#include "scenario/maintenance.hpp"

#include <algorithm>
#include <functional>

#include "exec/runner.hpp"

namespace decos::scenario {
namespace {

/// Runs one archetype x seed with a live executor and harvests everything
/// on the worker — the rig dies here, the merge thread only sees values.
/// `degraded`, when given, also receives the subject's degradation state.
MaintenanceRun run_one(const Archetype& arch, std::uint64_t seed,
                       const MaintenanceOptions& options,
                       const Fig10Options& base_options,
                       MaintenanceScenarioOutcome* degraded = nullptr) {
  Fig10Options opts = base_options;
  opts.seed = seed;
  Fig10System rig(opts);
  maintenance::MaintenanceExecutor executor(rig.system(), rig.diag(),
                                            rig.injector(), options.executor);
  executor.start();
  arch.inject(rig);
  rig.run(arch.horizon + options.repair_grace);

  MaintenanceRun out;
  out.truth = arch.truth;
  // The run's subject is the first injected fault's FRU (multi-fault
  // archetypes like repeated EMI bursts all target the same FRU).
  const fault::InjectedFault& subject = rig.injector().ledger().front();
  const diag::DiagnosticService& service = rig.diag();
  out.final_trust = subject.job ? service.job_trust(*subject.job)
                                : service.component_trust(subject.component);
  out.recovered = out.final_trust >= options.executor.verify_trust;
  out.repairs_attempted = executor.repairs_attempted();
  out.repairs_verified = executor.repairs_verified();
  out.repairs_failed = executor.repairs_failed();
  out.retries = executor.retries();
  out.nff_removals = executor.nff_removals();
  out.spares_consumed = executor.spares_consumed();
  out.quarantines = executor.quarantines();
  for (const maintenance::WorkOrder& o : executor.work_orders()) {
    const bool on_subject =
        subject.job ? (o.job && *o.job == *subject.job)
                    : (!o.job && o.component == subject.component);
    if (!on_subject) continue;
    out.trajectory.insert(out.trajectory.end(), o.actions.begin(),
                          o.actions.end());
    if (o.nff) out.nff_on_subject = true;
    if (o.state == maintenance::WorkOrderState::kVerified &&
        out.ttr_us < 0) {
      out.ttr_us = (o.closed - o.opened).ns() / 1000;
    }
  }
  out.metrics = rig.sim().metrics().snapshot();
  if (degraded) {
    // Component rows come first, in component order.
    const diag::FruReport row = rig.diag().report().at(subject.component);
    degraded->degraded_ona =
        std::ranges::count(row.asserted_onas, "maintenance-degraded") > 0;
    degraded->degraded_jobs = executor.degraded_jobs();
  }
  return out;
}

}  // namespace

MaintenanceCampaignResult run_maintenance_campaign(
    const std::vector<Archetype>& archetypes,
    const std::vector<std::uint64_t>& seeds, MaintenanceOptions options,
    Fig10Options base_options, unsigned jobs) {
  MaintenanceCampaignResult result;
  result.per_archetype.reserve(archetypes.size());
  for (const Archetype& arch : archetypes) {
    MaintenanceCampaignResult::PerArchetype row;
    row.name = arch.name;
    row.truth = arch.truth;
    result.per_archetype.push_back(std::move(row));
  }
  if (seeds.empty()) return result;

  std::vector<std::function<MaintenanceRun()>> runs;
  runs.reserve(archetypes.size() * seeds.size());
  for (const Archetype& arch : archetypes) {
    for (const std::uint64_t seed : seeds) {
      runs.push_back([&arch, seed, &options, &base_options] {
        return run_one(arch, seed, options, base_options);
      });
    }
  }

  exec::ExperimentRunner runner(jobs);
  runner.run_and_merge<MaintenanceRun>(
      std::move(runs), [&](std::size_t i, MaintenanceRun& r) {
        auto& row = result.per_archetype[i / seeds.size()];
        ++result.runs;
        ++row.runs;
        if (r.recovered) {
          ++result.recovered;
          ++row.recovered;
        }
        row.repairs_attempted += r.repairs_attempted;
        row.repairs_verified += r.repairs_verified;
        row.retries += r.retries;
        row.nff_removals += r.nff_removals;
        row.spares_consumed += r.spares_consumed;
        row.quarantines += r.quarantines;
        if (r.ttr_us >= 0) {
          row.ttr_us_total += r.ttr_us;
          ++row.ttr_samples;
        }
        result.repairs_attempted += r.repairs_attempted;
        result.repairs_verified += r.repairs_verified;
        result.repairs_failed += r.repairs_failed;
        result.retries += r.retries;
        result.nff_removals += r.nff_removals;
        result.spares_consumed += r.spares_consumed;
        result.quarantines += r.quarantines;
        result.metrics.merge(r.metrics);
      });
  return result;
}

MaintenanceScenarioOutcome run_maintenance_scenario(
    const Archetype& archetype, std::uint64_t seed, MaintenanceOptions options,
    Fig10Options base_options) {
  // A single-descriptor sweep on the experiment engine, sharing the
  // campaign's isolation contract and error reporting.
  exec::ExperimentRunner runner(1);
  MaintenanceScenarioOutcome out;
  runner.run_and_merge<MaintenanceScenarioOutcome>(
      {[&] {
        MaintenanceScenarioOutcome o;
        o.run = run_one(archetype, seed, options, base_options, &o);
        return o;
      }},
      [&](std::size_t, MaintenanceScenarioOutcome& harvested) {
        out = std::move(harvested);
      });
  return out;
}

}  // namespace decos::scenario
