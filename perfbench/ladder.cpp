#include "ladder.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "analysis/fleet.hpp"
#include "diag/assessor.hpp"
#include "diag/classifier.hpp"
#include "diag/evidence.hpp"
#include "fleet/fleet_sim.hpp"
#include "maintenance/executor.hpp"
#include "platform/system.hpp"
#include "scenario/fig10.hpp"
#include "scenario/sweep.hpp"
#include "tta/frame.hpp"
#include "vnet/message.hpp"
#include "vnet/multiplexer.hpp"

namespace perfbench {
namespace {

using namespace decos;

/// Allocation count as a metric value: "not measured" under sanitizers.
std::optional<double> allocs_value(double v) {
  return allocs_measured() ? std::optional<double>(v) : std::nullopt;
}

// ---------------------------------------------------------------------------
// The cost ladder. Three rungs of the same cluster and horizon, each adding
// one layer: a bare TDMA cluster (Fig. 10's cluster parameters, no jobs),
// the healthy Fig. 10 rig (app jobs, vnets and the diagnostic DAS, no
// fault), and that rig with a started MaintenanceExecutor. Differences of
// the rungs' ns/round give each added layer's share; they sum back to the
// top rung by construction.

enum class Rung { kBare, kHealthy, kExecutor };

struct RungSample {
  double ns_per_round = 0.0;
  double allocs_per_round = 0.0;
  double ns_per_event = 0.0;
  double allocs_per_event = 0.0;
  double events_per_round = 0.0;
};

constexpr std::uint32_t kComponents = 5;
constexpr sim::Duration kSlot = sim::microseconds(500);
constexpr sim::Duration kRound = kSlot * kComponents;

RungSample run_rung(Rung rung, std::uint64_t seed, std::uint64_t rounds,
                    Tracer& tracer) {
  // The rung's objects, in dependency order; only one family is used.
  std::optional<sim::Simulator> bare_sim;
  std::optional<platform::System> bare;
  std::optional<scenario::Fig10System> rig;
  std::optional<maintenance::MaintenanceExecutor> executor;
  sim::Simulator* s = nullptr;
  tta::Cluster* cluster = nullptr;
  if (rung == Rung::kBare) {
    Tracer::Scope span(tracer, "platform.System");
    platform::System::Params p;
    p.cluster.node_count = kComponents;
    p.cluster.tdma.slot_length = kSlot;
    p.cluster.drift_bound_ppm = 40.0;
    bare_sim.emplace(seed);
    bare.emplace(*bare_sim, p);
    bare->finalize();
    bare->start();
    s = &*bare_sim;
    cluster = &bare->cluster();
  } else {
    {
      Tracer::Scope span(tracer, "scenario.Fig10System");
      scenario::Fig10Options o;
      o.seed = seed;
      rig.emplace(o);
    }
    if (rung == Rung::kExecutor) {
      Tracer::Scope span(tracer, "maintenance.MaintenanceExecutor.start");
      executor.emplace(rig->system(), rig->diag(), rig->injector(),
                       maintenance::MaintenanceExecutor::Params{});
      executor->start();
    }
    s = &rig->sim();
    cluster = &rig->system().cluster();
  }

  Tracer::Scope span(tracer, "sim.run_until");
  s->run_until(s->now() + kRound * 200);  // warm-up: buffers at high water
  const std::uint64_t r0 = cluster->node(0).current_round();
  const std::uint64_t e0 = s->events_executed();
  const std::uint64_t a0 = thread_allocs();
  const auto t0 = Clock::now();
  s->run_until(s->now() + kRound * static_cast<std::int64_t>(rounds));
  const double ns = seconds_since(t0) * 1e9;
  const auto allocs = static_cast<double>(thread_allocs() - a0);
  const auto events = static_cast<double>(s->events_executed() - e0);
  const auto n =
      static_cast<double>(cluster->node(0).current_round() - r0);
  return RungSample{ns / n, allocs / n, ns / events, allocs / events,
                    events / n};
}

// ---------------------------------------------------------------------------
// vnet: the rig's own network plan through the mux spine. One Multiplexer
// per component hosts the application ports its jobs own; per round each
// port sends one message (the rig's jobs publish every round), each
// component drains and packs its frame, and every other component unpacks
// it, as the broadcast bus delivers it.

struct MuxSample {
  double ns_per_round = 0.0;
  double allocs_per_round = 0.0;
  std::vector<std::uint8_t> frame_payload;  // component 0's last frame
};

MuxSample run_mux(std::uint64_t seed, std::uint64_t rounds, Tracer& tracer) {
  scenario::Fig10Options o;
  o.seed = seed;
  scenario::Fig10System rig(o);
  const vnet::NetworkPlan& plan = rig.system().plan();

  std::vector<vnet::Multiplexer> muxes;
  std::vector<std::vector<platform::PortId>> sends(kComponents);
  muxes.reserve(kComponents);
  for (platform::ComponentId c = 0; c < kComponents; ++c) {
    muxes.emplace_back(plan, c);
  }
  for (const vnet::PortConfig& pc : plan.ports()) {
    if (pc.vnet == platform::kDiagnosticVnet) continue;
    const platform::ComponentId host = rig.system().job(pc.owner).host();
    muxes[host].host_port(pc.id);
    sends[host].push_back(pc.id);
  }
  std::vector<vnet::Message> drained;
  std::vector<vnet::Message> arrived;
  std::vector<std::vector<std::uint8_t>> frames(kComponents);

  Tracer::Scope span(tracer, "vnet.Multiplexer.round");
  auto round_once = [&](tta::RoundId r) {
    for (platform::ComponentId c = 0; c < kComponents; ++c) {
      for (const platform::PortId p : sends[c]) {
        vnet::Message m;
        m.port = p;
        m.value = 0.25 * static_cast<double>(r % 64);
        m.kind = 1;
        (void)muxes[c].send(m, r);
      }
      muxes[c].drain_messages(r, drained);
      vnet::pack_into(drained, r, frames[c]);
    }
    for (platform::ComponentId c = 0; c < kComponents; ++c) {
      for (platform::ComponentId rx = 0; rx < kComponents; ++rx) {
        if (rx != c) muxes[rx].unpack_arrival(frames[c], arrived);
      }
    }
  };
  for (tta::RoundId r = 0; r < 512; ++r) round_once(r);  // warm-up
  const std::uint64_t a0 = thread_allocs();
  const auto t0 = Clock::now();
  for (tta::RoundId r = 512; r < 512 + rounds; ++r) round_once(r);
  const double ns = seconds_since(t0) * 1e9;
  const auto n = static_cast<double>(rounds);
  return MuxSample{ns / n,
                   static_cast<double>(thread_allocs() - a0) / n, frames[0]};
}

/// tta: Frame::crc_ok() on a sealed frame carrying the rig's payload.
double crc_ok_ns(std::vector<std::uint8_t> payload, std::uint64_t iters,
                 Tracer& tracer) {
  tta::Frame f;
  f.payload = std::move(payload);
  f.seal();
  Tracer::Scope span(tracer, "tta.Frame.crc_ok");
  std::uint64_t ok = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) ok += f.crc_ok() ? 1 : 0;
  const double ns = seconds_since(t0) * 1e9;
  return ok == iters ? ns / static_cast<double>(iters) : -1.0;
}

}  // namespace

std::vector<Metric> run_ladder(std::uint64_t seed, Scale scale,
                               Tracer& tracer) {
  std::vector<Metric> out;
  auto put = [&out](const char* name, std::optional<double> v,
                    const char* unit) { out.push_back(Metric{name, v, unit}); };

  // --- sim / tta / diag idle / maintenance: the cost ladder ---------------
  const std::uint64_t rounds = scale.tiny ? 400 : 8'000;
  const int reps = scale.tiny ? 1 : 5;
  std::array<std::vector<double>, 3> ns;
  std::vector<RungSample> top;
  double bare_allocs = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    for (const Rung r : {Rung::kBare, Rung::kHealthy, Rung::kExecutor}) {
      const RungSample smp = run_rung(r, seed, rounds, tracer);
      ns[static_cast<std::size_t>(r)].push_back(smp.ns_per_round);
      if (r == Rung::kBare) bare_allocs = smp.allocs_per_round;
      if (r == Rung::kExecutor) top.push_back(smp);
    }
  }
  const double bare_ns = median(ns[0]);
  const double healthy_ns = median(ns[1]);
  const double exec_ns = median(ns[2]);
  std::vector<double> top_ns_ev, top_allocs_ev;
  for (const RungSample& t : top) {
    top_ns_ev.push_back(t.ns_per_event);
    top_allocs_ev.push_back(t.allocs_per_event);
  }
  put("sim.ns_per_event", median(top_ns_ev), "ns");
  put("sim.allocs_per_event", allocs_value(median(top_allocs_ev)), "count");
  put("sim.events_per_round", top.front().events_per_round, "count");
  put("tta.ns_per_round", bare_ns, "ns");
  put("tta.allocs_per_round", allocs_value(bare_allocs), "count");
  put("diag.idle_ns_per_round", healthy_ns - bare_ns, "ns");
  put("maintenance.ns_per_round", exec_ns - healthy_ns, "ns");
  put("ladder.full_ns_per_round", exec_ns, "ns");

  // --- vnet mux spine and the CRC check on its frame ----------------------
  const MuxSample mux = run_mux(seed, scale.tiny ? 500 : 20'000, tracer);
  put("vnet.mux_ns_per_round", mux.ns_per_round, "ns");
  put("vnet.allocs_per_round", allocs_value(mux.allocs_per_round), "count");
  std::vector<double> crc;
  for (int rep = 0; rep < reps; ++rep) {
    crc.push_back(
        crc_ok_ns(mux.frame_payload, scale.tiny ? 2'000 : 200'000, tracer));
  }
  put("tta.crc_ok_ns", median(crc), "ns");

  // --- diag writes and reads, maintenance counts: closed-loop runs with
  // the flight recorder attached, the captured streams replayed ----------
  std::vector<scenario::Archetype> archetypes = scenario::standard_archetypes();
  if (scale.tiny) archetypes.resize(2);
  const diag::Assessor::Params assessor{};
  const diag::Classifier classifier(assessor.classifier,
                                    fault::SpatialLayout::linear(kComponents));
  std::vector<double> report_us, diagnose_us, classify_us;
  double symptoms = 0.0, sim_rounds = 0.0, ingest_ns = 0.0, ingest_allocs = 0.0;
  std::uint64_t work_orders = 0, verified = 0, retries = 0, nff = 0;
  for (const scenario::Archetype& arch : archetypes) {
    diag::DiagnosticLog log;
    const ClosedLoopRun run = run_closed_loop(arch, seed, tracer, &report_us,
                                              &log, &diagnose_us);
    symptoms += static_cast<double>(log.size());
    sim_rounds += static_cast<double>(run.rounds);
    work_orders += run.work_orders;
    verified += run.repairs_verified;
    retries += run.retries;
    nff += run.nff_removals;

    diag::EvidenceStore store(assessor.evidence);
    {
      Tracer::Scope span(tracer, "diag.DiagnosticLog.replay_into");
      const std::uint64_t a0 = thread_allocs();
      const auto t0 = Clock::now();
      log.replay_into(store);
      ingest_ns += seconds_since(t0) * 1e9;
      ingest_allocs += static_cast<double>(thread_allocs() - a0);
    }
    for (platform::ComponentId c = 0; c < kComponents; ++c) {
      Tracer::Scope span(tracer, "diag.Classifier.classify_component");
      const auto t0 = Clock::now();
      const diag::Diagnosis d =
          classifier.classify_component(store, c, run.final_round, kComponents);
      classify_us.push_back(seconds_since(t0) * 1e6);
      (void)d;
    }
  }
  put("diag.symptoms_per_round", symptoms / sim_rounds, "count");
  put("diag.ingest_ns_per_symptom", ingest_ns / symptoms, "ns");
  put("diag.allocs_per_symptom", allocs_value(ingest_allocs / symptoms),
      "count");
  put("diag.classify_us", median(classify_us), "us");
  put("diag.report_us_p99", quantile(report_us, 0.99), "us");
  put("diag.diagnose_component_us", median(diagnose_us), "us");
  put("maintenance.work_orders", static_cast<double>(work_orders), "count");
  put("maintenance.repairs_verified", static_cast<double>(verified), "count");
  put("maintenance.retries", static_cast<double>(retries), "count");
  put("maintenance.nff_removals", static_cast<double>(nff), "count");

  // --- scenario: discovery, armed runs and rig construction ---------------
  constexpr std::array<std::pair<scenario::SweepOptions::Rig, const char*>, 3>
      kRigs = {{{scenario::SweepOptions::Rig::kFig10, "fig10"},
                {scenario::SweepOptions::Rig::kChaosRig, "chaos"},
                {scenario::SweepOptions::Rig::kHierarchy, "hierarchy"}}};
  std::array<std::vector<fault::FaultPoint>, 3> points;
  for (std::size_t r = 0; r < kRigs.size(); ++r) {
    scenario::SweepOptions opts;
    opts.rig = kRigs[r].first;
    std::vector<double> ms;
    scenario::FaultPointManifest manifest;
    for (int rep = 0; rep < (scale.tiny ? 1 : 3); ++rep) {
      Tracer::Scope span(tracer, "scenario.discover_fault_space");
      const auto t0 = Clock::now();
      manifest = scenario::discover_fault_space(opts).manifest;
      ms.push_back(seconds_since(t0) * 1e3);
    }
    out.push_back(Metric{std::string("scenario.discovery_ms.") + kRigs[r].second,
                         median(ms), "ms"});
    const std::vector<fault::FaultPoint> all = manifest.points();
    const std::size_t k = scale.tiny ? 2 : 12;
    const std::size_t stride = std::max<std::size_t>(1, all.size() / k);
    std::vector<double> armed;
    for (std::size_t j = (seed % stride); j < all.size() && armed.size() < k;
         j += stride) {
      Tracer::Scope span(tracer, "scenario.replay_fault_point");
      const auto t0 = Clock::now();
      const scenario::ConvergenceVerdict v =
          scenario::replay_fault_point(opts, all[j]);
      armed.push_back(seconds_since(t0) * 1e3);
      (void)v;
    }
    out.push_back(Metric{std::string("scenario.armed_run_ms_p50.") +
                             kRigs[r].second,
                         median(armed), "ms"});
  }
  std::vector<double> build_us;
  for (int rep = 0; rep < (scale.tiny ? 3 : 20); ++rep) {
    Tracer::Scope span(tracer, "scenario.Fig10System");
    scenario::Fig10Options o;
    o.seed = seed + static_cast<std::uint64_t>(rep);
    const auto t0 = Clock::now();
    const scenario::Fig10System rig(o);
    build_us.push_back(seconds_since(t0) * 1e6);
  }
  put("scenario.rig_build_us", median(build_us), "us");

  // --- fleet stepping on a warmed batch, and the aggregate merge ----------
  fleet::FleetBatchConfig batch;
  batch.vehicles = scale.tiny ? 500 : 10'000;
  batch.epochs = 4;
  batch.shards = 8;
  batch.seed = seed;
  fleet::FleetSimulator fsim(batch);
  analysis::FleetBatchCounts tally(batch.grid);
  // Sparse software-failure cells are the only unbounded tally; reserve
  // past every pass so the measured passes see no vector growth.
  tally.module_failures.reserve(static_cast<std::size_t>(reps + 1) * 2 *
                                batch.vehicles);
  {
    Tracer::Scope span(tracer, "fleet.FleetSimulator.run_into");
    fsim.run_into(tally);  // warm-up: slabs, heaps, arenas at high water
  }
  std::vector<double> step_ns;
  std::uint64_t steady_allocs = 0;
  for (int rep = 0; rep < reps; ++rep) {
    Tracer::Scope span(tracer, "fleet.FleetSimulator.run_into");
    const std::uint64_t a0 = thread_allocs();
    const auto t0 = Clock::now();
    fsim.run_into(tally);
    const double ns = seconds_since(t0) * 1e9;
    steady_allocs += thread_allocs() - a0;
    step_ns.push_back(ns / static_cast<double>(batch.vehicles * batch.epochs));
  }
  put("fleet.ns_per_vehicle_epoch", median(step_ns), "ns");
  put("fleet.steady_allocs", allocs_value(static_cast<double>(steady_allocs)),
      "count");
  analysis::FleetBatchCounts counts;
  {
    Tracer::Scope span(tracer, "fleet.FleetSimulator.run");
    counts = fleet::FleetSimulator(batch).run();
  }
  analysis::FleetAggregate agg(batch.grid);
  std::vector<double> merge_us;
  for (int rep = 0; rep < (scale.tiny ? 5 : 50); ++rep) {
    Tracer::Scope span(tracer, "analysis.FleetAggregate.merge");
    const auto t0 = Clock::now();
    agg.merge(counts);
    merge_us.push_back(seconds_since(t0) * 1e6);
  }
  put("analysis.merge_us_per_batch", median(merge_us), "us");
  return out;
}

}  // namespace perfbench
