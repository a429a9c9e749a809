#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "analysis/fleet.hpp"
#include "fleet/campaign.hpp"
#include "maintenance/executor.hpp"
#include "scenario/fig10.hpp"
#include "scenario/sweep.hpp"

namespace perfbench {
namespace {

using namespace decos;

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finaliser
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// fault_space: E20's discovery on the three rigs, then one armed run per
// point of a stride sample across each rig's whole manifest. The sample is
// interleaved rig by rig so a window cut anywhere keeps the rig mix.

class FaultSpace final : public Workload {
 public:
  FaultSpace(std::uint64_t seed, Scale scale)
      : seed_(seed), per_rig_(scale.tiny ? 3 : 50) {}

  const char* name() const override { return "fault_space"; }
  const char* work_unit() const override { return "armed runs"; }
  const char* latency_unit() const override { return "one armed run"; }

  std::string setup() override {
    constexpr std::array<scenario::SweepOptions::Rig, 3> kRigs = {
        scenario::SweepOptions::Rig::kFig10,
        scenario::SweepOptions::Rig::kChaosRig,
        scenario::SweepOptions::Rig::kHierarchy};
    std::string problems;
    for (std::size_t r = 0; r < kRigs.size(); ++r) {
      rigs_[r] = scenario::SweepOptions{};
      rigs_[r].rig = kRigs[r];
      const scenario::DiscoveryResult d =
          scenario::discover_fault_space(rigs_[r]);
      if (!d.baseline.converged()) {
        problems += std::string("baseline of rig ") +
                    scenario::to_string(kRigs[r]) + " does not converge; ";
      }
      const std::vector<fault::FaultPoint> all = d.manifest.points();
      space_[r] = all.size();
      const std::size_t stride = std::max<std::size_t>(1, all.size() / per_rig_);
      const std::size_t offset = mix(seed_ ^ (r + 1)) % stride;
      samples_[r].clear();
      for (std::size_t j = 0; j < per_rig_; ++j) {
        const std::size_t k = offset + j * stride;
        if (k >= all.size()) break;
        samples_[r].push_back(all[k]);
      }
      if (samples_[r].size() != per_rig_) {
        problems += std::string("rig ") + scenario::to_string(kRigs[r]) +
                    " manifest too small for the sample; ";
      }
    }
    return problems;
  }

  std::size_t pass_size() const override { return 3 * per_rig_; }

  OpOutcome run_op(std::size_t i, Tracer& tracer,
                   std::vector<double>& latency_ms) override {
    const std::size_t r = i % 3;
    const fault::FaultPoint point = samples_[r][i / 3];
    const auto t0 = Clock::now();
    scenario::ConvergenceVerdict v;
    {
      Tracer::Scope s(tracer, "scenario.replay_fault_point");
      v = scenario::replay_fault_point(rigs_[r], point);
    }
    const double op_s = seconds_since(t0);
    latency_ms.push_back(op_s * 1e3);

    Digest d;
    d.add(static_cast<std::uint64_t>(r));
    d.add(static_cast<std::uint64_t>(v.site));
    d.add(v.occurrence);
    d.add(v.fired);
    d.add(v.detected);
    d.add(v.classified);
    d.add(v.trust_reconverged);
    d.add(v.terminal_outcome);
    d.add(v.no_orphans);
    d.add(v.final_trust);
    const bool ok = v.fired && v.converged();
    if (!ok) {
      ++counterexamples_;
      if (first_bad_.empty()) {
        first_bad_ = std::string(scenario::to_string(rigs_[r].rig)) + " " +
                     v.replay_token();
      }
    }
    return OpOutcome{d.value(), ok, 1.0, op_s};
  }

  std::vector<std::string> summary() const override {
    std::vector<std::string> out;
    for (std::size_t r = 0; r < 3; ++r) {
      out.push_back(std::string("rig ") + scenario::to_string(rigs_[r].rig) +
                    ": " + std::to_string(samples_[r].size()) +
                    " sampled of " + std::to_string(space_[r]) + " points");
    }
    out.push_back("counterexamples: " + std::to_string(counterexamples_) +
                  (first_bad_.empty() ? "" : " (first: " + first_bad_ + ")"));
    return out;
  }

 private:
  std::uint64_t seed_;
  std::size_t per_rig_;
  std::array<scenario::SweepOptions, 3> rigs_{};
  std::array<std::vector<fault::FaultPoint>, 3> samples_{};
  std::array<std::size_t, 3> space_{};
  std::size_t counterexamples_ = 0;
  std::string first_bad_;
};

// ---------------------------------------------------------------------------
// closed_loop: every standard archetype on a Fig. 10 rig with a started
// MaintenanceExecutor, watched by an operator who queries the maintenance
// report every 100 simulated ms.

class ClosedLoop final : public Workload {
 public:
  ClosedLoop(std::uint64_t seed, Scale scale)
      : run_seed_(mix(seed)), tiny_(scale.tiny) {}

  const char* name() const override { return "closed_loop"; }
  const char* work_unit() const override {
    return "simulated TDMA rounds (host time inside run() only)";
  }
  const char* latency_unit() const override {
    return "one DiagnosticService::report() query";
  }

  std::string setup() override {
    archetypes_ = scenario::standard_archetypes();
    if (tiny_) archetypes_.resize(2);
    // Warm the allocator and code paths on a healthy rig, as every op
    // builds one; the rig must come up with every FRU trusted.
    scenario::Fig10Options o;
    o.seed = run_seed_;
    scenario::Fig10System rig(o);
    rig.run(sim::milliseconds(200));
    for (const diag::FruReport& row : rig.diag().report()) {
      if (row.trust < 0.9) return "healthy warm-up rig reports " + row.fru;
    }
    return "";
  }

  std::size_t pass_size() const override { return archetypes_.size(); }

  OpOutcome run_op(std::size_t i, Tracer& tracer,
                   std::vector<double>& latency_ms) override {
    report_us_.clear();
    const ClosedLoopRun r = run_closed_loop(archetypes_[i], run_seed_, tracer,
                                            &report_us_, nullptr, nullptr);
    for (const double us : report_us_) latency_ms.push_back(us / 1e3);
    ++runs_;
    if (r.recovered) ++recovered_;
    repairs_attempted_ += r.repairs_attempted;
    repairs_verified_ += r.repairs_verified;
    if (!r.recovered && first_bad_.empty()) first_bad_ = archetypes_[i].name;
    return OpOutcome{r.digest, r.recovered, static_cast<double>(r.rounds),
                     r.run_s};
  }

  std::vector<std::string> summary() const override {
    return {"recovered " + std::to_string(recovered_) + "/" +
                std::to_string(runs_) + " runs" +
                (first_bad_.empty() ? "" : " (first not recovered: " +
                                               first_bad_ + ")"),
            "repairs attempted " + std::to_string(repairs_attempted_) +
                ", verified " + std::to_string(repairs_verified_)};
  }

 private:
  std::uint64_t run_seed_;
  bool tiny_;
  std::vector<scenario::Archetype> archetypes_;
  std::vector<double> report_us_;
  std::uint64_t runs_ = 0, recovered_ = 0;
  std::uint64_t repairs_attempted_ = 0, repairs_verified_ = 0;
  std::string first_bad_;
};

// ---------------------------------------------------------------------------
// fleet: one serial FleetCampaign pass per op. It never touches tta, vnet,
// diag or maintenance, so a cluster-stack change predicts no change here.

class Fleet final : public Workload {
 public:
  Fleet(std::uint64_t seed, Scale scale) : seed_(seed) {
    cfg_.vehicles = scale.tiny ? 4'000 : 100'000;
    cfg_.batch_size = scale.tiny ? 1'000 : 2'000;
    cfg_.epochs = 12;
    cfg_.seed = seed;
    cfg_.jobs = 1;
  }

  const char* name() const override { return "fleet"; }
  const char* work_unit() const override { return "vehicles"; }
  const char* latency_unit() const override { return "one campaign pass"; }

  std::string setup() override {
    // The jobs/shards oracle: a small campaign merges to the same
    // aggregate serially on one shard and on two workers with eight.
    fleet::FleetCampaignConfig small;
    small.vehicles = 400;
    small.batch_size = 100;
    small.epochs = 6;
    small.seed = seed_;
    small.jobs = 1;
    small.shards = 1;
    const analysis::FleetAggregate serial = fleet::FleetCampaign(small).run();
    small.jobs = 2;
    small.shards = 8;
    const analysis::FleetAggregate parallel = fleet::FleetCampaign(small).run();
    return serial == parallel ? ""
                              : "fleet aggregate differs across jobs/shards";
  }

  std::size_t pass_size() const override { return 1; }

  OpOutcome run_op(std::size_t, Tracer& tracer,
                   std::vector<double>& latency_ms) override {
    const auto t0 = Clock::now();
    std::optional<analysis::FleetAggregate> agg;
    {
      Tracer::Scope s(tracer, "fleet.FleetCampaign.run");
      agg.emplace(fleet::FleetCampaign(cfg_).run());
    }
    const double op_s = seconds_since(t0);
    latency_ms.push_back(op_s * 1e3);

    Tracer::Scope s(tracer, "analysis.FleetAggregate.checks");
    const bool ok = shape_ok(*agg);
    if (!ok) ++shape_failures_;
    return OpOutcome{digest(*agg), ok, static_cast<double>(cfg_.vehicles),
                     op_s};
  }

  std::vector<std::string> summary() const override {
    return {std::to_string(cfg_.vehicles) + " vehicles x " +
                std::to_string(cfg_.epochs) + " epochs, batches of " +
                std::to_string(cfg_.batch_size),
            "shape-check failures: " + std::to_string(shape_failures_)};
  }

 private:
  /// bench_fleet's checks: Fig. 12 (symptom-driven replacement wastes
  /// more), Fig. 7 (infant mortality and wearout rise out of the
  /// useful-life valley) and the 20-80 software concentration.
  static bool shape_ok(const analysis::FleetAggregate& agg) {
    double valley = 1e300;
    for (std::uint32_t b = 4; b < 16; ++b) {
      valley = std::min(valley, agg.failure_rate_per_mh(b));
    }
    double old_peak = 0.0;
    for (std::uint32_t b = 18; b < agg.grid().age_bins; ++b) {
      old_peak = std::max(old_peak, agg.failure_rate_per_mh(b));
    }
    const double infant = agg.failure_rate_per_mh(0);
    return agg.naive().nff > agg.guided().nff &&
           agg.naive().nff_ratio() > agg.guided().nff_ratio() + 0.05 &&
           infant > 2.0 * valley && old_peak > 2.0 * valley &&
           agg.modules().head_share(0.2) > 0.5;
  }

  static std::uint64_t digest(const analysis::FleetAggregate& agg) {
    Digest d;
    d.add(agg.vehicles());
    d.add(agg.epochs());
    for (const analysis::StrategyTotals* s : {&agg.naive(), &agg.guided()}) {
      d.add(s->visits);
      d.add(s->removals);
      d.add(s->nff);
      d.add(s->eliminated);
    }
    for (const std::uint64_t v : agg.hw_failures_by_age()) d.add(v);
    for (const std::uint64_t v : agg.exposure_hours_by_age()) d.add(v);
    for (std::uint32_t dep = 0; dep < agg.grid().depots; ++dep) {
      for (std::uint32_t w = 0; w < agg.grid().windows; ++w) {
        d.add(agg.spare_demand(dep, w));
      }
    }
    for (const std::uint64_t v : agg.failures_by_cohort()) d.add(v);
    for (const std::uint64_t v : agg.vehicles_by_cohort()) d.add(v);
    d.add(agg.modules().head_share(0.2));
    return d.value();
  }

  std::uint64_t seed_;
  fleet::FleetCampaignConfig cfg_;
  std::uint64_t shape_failures_ = 0;
};

}  // namespace

ClosedLoopRun run_closed_loop(const scenario::Archetype& arch,
                              std::uint64_t seed, Tracer& tracer,
                              std::vector<double>* report_us,
                              diag::DiagnosticLog* recorder,
                              std::vector<double>* diagnose_us) {
  const maintenance::MaintenanceExecutor::Params exec_params{};
  const sim::Duration grace = sim::seconds(4);  // E17's repair grace
  const sim::Duration query_every = sim::milliseconds(100);

  scenario::Fig10Options opts;
  opts.seed = seed;
  std::optional<scenario::Fig10System> rig;
  {
    Tracer::Scope s(tracer, "scenario.Fig10System");
    rig.emplace(opts);
  }
  if (recorder != nullptr) rig->diag().assessor().set_flight_recorder(recorder);
  std::optional<maintenance::MaintenanceExecutor> executor;
  {
    Tracer::Scope s(tracer, "maintenance.MaintenanceExecutor.start");
    executor.emplace(rig->system(), rig->diag(), rig->injector(), exec_params);
    executor->start();
  }
  {
    Tracer::Scope s(tracer, "fault.Archetype.inject");
    arch.inject(*rig);
  }

  ClosedLoopRun out;
  Digest d;
  const std::uint64_t round0 = rig->round();
  const sim::Duration total = arch.horizon + grace;
  sim::Duration done = sim::Duration{};
  while (done.ns() < total.ns()) {
    const sim::Duration left = total - done;
    const sim::Duration slice =
        left.ns() < query_every.ns() ? left : query_every;
    {
      Tracer::Scope s(tracer, "sim.run_until");
      const auto t0 = Clock::now();
      rig->run(slice);
      out.run_s += seconds_since(t0);
    }
    done = done + slice;
    std::vector<diag::FruReport> rows;
    {
      Tracer::Scope s(tracer, "diag.DiagnosticService.report");
      const auto t0 = Clock::now();
      rows = rig->diag().report();
      if (report_us != nullptr) report_us->push_back(seconds_since(t0) * 1e6);
    }
    for (const diag::FruReport& row : rows) {
      d.add(row.trust);
      d.add(static_cast<std::uint64_t>(row.diagnosis.cls));
      d.add(static_cast<std::uint64_t>(row.action));
    }
  }
  out.rounds = rig->round() - round0;
  out.final_round = rig->round();

  if (diagnose_us != nullptr) {
    for (platform::ComponentId c = 0; c < opts.components; ++c) {
      Tracer::Scope s(tracer, "diag.DiagnosticService.diagnose_component");
      const auto t0 = Clock::now();
      const diag::Diagnosis dx = rig->diag().diagnose_component(c);
      diagnose_us->push_back(seconds_since(t0) * 1e6);
      d.add(static_cast<std::uint64_t>(dx.cls));
    }
  }

  // Verdicts, work orders, TTRs and action trajectories (E17's harvest).
  const fault::InjectedFault& subject = rig->injector().ledger().front();
  const double final_trust =
      subject.job ? rig->diag().assessor().job_trust(*subject.job)
                  : rig->diag().assessor().component_trust(subject.component);
  out.recovered = final_trust >= exec_params.verify_trust;
  out.work_orders = executor->work_orders().size();
  out.repairs_attempted = executor->repairs_attempted();
  out.repairs_verified = executor->repairs_verified();
  out.retries = executor->retries();
  out.nff_removals = executor->nff_removals();
  d.add(final_trust);
  d.add(out.recovered);
  d.add(out.rounds);
  for (const std::uint64_t v :
       {out.repairs_attempted, out.repairs_verified, executor->repairs_failed(),
        out.retries, out.nff_removals, executor->spares_consumed(),
        executor->quarantines()}) {
    d.add(v);
  }
  for (const maintenance::WorkOrder& o : executor->work_orders()) {
    d.add(static_cast<std::uint64_t>(o.component));
    d.add(static_cast<std::uint64_t>(o.job ? *o.job + 1 : 0));
    d.add(static_cast<std::uint64_t>(o.first_diagnosis));
    for (const fault::MaintenanceAction a : o.actions) {
      d.add(static_cast<std::uint64_t>(a));
    }
    d.add(static_cast<std::uint64_t>(o.attempts));
    d.add(o.nff);
    d.add(static_cast<std::uint64_t>(o.opened.ns()));
    d.add(static_cast<std::uint64_t>(o.closed.ns()));  // TTR = closed - opened
    d.add(static_cast<std::uint64_t>(o.state));
  }
  out.digest = d.value();
  return out;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale) {
  if (name == "fault_space") return std::make_unique<FaultSpace>(seed, scale);
  if (name == "closed_loop") return std::make_unique<ClosedLoop>(seed, scale);
  if (name == "fleet") return std::make_unique<Fleet>(seed, scale);
  return nullptr;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fault_space", "closed_loop",
                                                 "fleet"};
  return names;
}

}  // namespace perfbench
