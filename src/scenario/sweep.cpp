#include "scenario/sweep.hpp"

#include <functional>
#include <optional>
#include <utility>

#include "exec/runner.hpp"
#include "scenario/chaos.hpp"
#include "scenario/fig10.hpp"
#include "scenario/hierarchy.hpp"

namespace decos::scenario {
namespace {

Fig10Options rig_options(const SweepOptions& opts) {
  Fig10Options fo;
  fo.seed = opts.seed;
  // The no-orphans leg of the oracle audits the provenance ledger, so
  // every sweep run traces.
  fo.provenance = true;
  if (opts.rig == SweepOptions::Rig::kChaosRig) {
    fo.components = 7;
    fo.assessor_host = 5;
    fo.assessor_replicas = {6};
  }
  return fo;
}

HierarchyOptions hierarchy_rig_options(const SweepOptions& opts) {
  HierarchyOptions ho;
  ho.seed = opts.seed;
  ho.components = 8;
  ho.provenance = true;
  return ho;
}

/// What one run (discovery or armed) hands back.
struct PointRun {
  ConvergenceVerdict verdict;
  FaultPointManifest manifest;
};

/// The rig-independent body of one deterministic run: arm/count, gate
/// diagnostic deliveries, inject the victim's permanent failure, run, and
/// judge with the convergence oracle. Discovery and armed runs share this
/// one code path, so the counting run's tallies are exactly the
/// occurrence space every armed run replays. The harvest diagnoses
/// through the composed DiagnosticService accessors — pure reads, which
/// delegate to the active assessor on the legacy rigs and compose the
/// per-slice partial views on the hierarchy rig.
template <class Rig>
PointRun run_body(Rig& rig, const SweepOptions& opts,
                  std::optional<fault::FaultPoint> armed,
                  std::uint32_t components) {
  fault::FaultPointRegistry reg;
  if (armed) {
    reg.arm(*armed);
  } else {
    reg.count();
  }
  rig.diag().bind_fault_points(&reg);

  maintenance::MaintenanceExecutor executor(rig.system(), rig.diag(),
                                            rig.injector(), opts.executor);
  executor.bind_fault_points(&reg);

  // Bit-fault leg: a short, un-ledgered rx-BER window on a bystander
  // component makes the bit-path sites (spurious sampler flip,
  // copy-on-corrupt skip, frame-pool exhaustion) reachable. Programming
  // the plane directly opens no journey — the flips are disturbance
  // noise, not an injected fault, so the no-orphans audit is untouched —
  // and the sites only hit while the sampler is live, so the enumerable
  // point space grows by the window's deliveries, not the horizon's.
  fault::BitFaultPlane& bitplane = rig.injector().bitfault_plane();
  bitplane.bind_fault_points(&reg);
  rig.sim().schedule_at(sim::SimTime::zero() + sim::milliseconds(60),
                        [&bitplane] { bitplane.set_rx_ber(0, 5e-3); });
  rig.sim().schedule_at(sim::SimTime::zero() + sim::milliseconds(66),
                        [&bitplane] { bitplane.set_rx_ber(0, 0.0); });

  // Last-hop gate on every component: one diagnostic-vnet delivery (per
  // receiver) is an enumerable drop. Application vnets pass untouched.
  for (platform::ComponentId c = 0; c < components; ++c) {
    rig.system().component(c).delivery_filter =
        [&reg](const vnet::Message& m, platform::JobId) {
          if (m.vnet != platform::kDiagnosticVnet) return true;
          return !reg.hit(fault::FaultSite::kDiagDeliver);
        };
  }

  const platform::ComponentId victim = sweep_victim(opts);
  rig.injector().inject_permanent_failure(victim,
                                          sim::SimTime::zero() + opts.inject_at);
  executor.start();
  rig.run(opts.horizon);

  PointRun out;
  ConvergenceVerdict& v = out.verdict;
  v.seed = opts.seed;
  if (armed) {
    v.site = armed->site;
    v.occurrence = armed->occurrence;
    v.fired = reg.fired();
  } else {
    // The baseline has no point to fire; satisfy the oracle's firing leg
    // so converged() judges the pipeline alone.
    v.fired = true;
  }

  diag::DiagnosticService& service = rig.diag();
  const fault::FaultClass truth = rig.injector().truth_for_component(victim);

  v.final_trust = service.component_trust(victim);
  v.trust_reconverged = v.final_trust >= opts.executor.verify_trust ||
                        executor.quarantined_component(victim);

  bool classified = false;
  bool all_closed = true;
  bool victim_order = false;
  bool victim_terminal = false;
  for (const maintenance::WorkOrder& o : executor.work_orders()) {
    if (o.is_open()) all_closed = false;
    if (o.job || o.component != victim) continue;
    victim_order = true;
    if (o.first_diagnosis == truth) classified = true;
    if (o.state == maintenance::WorkOrderState::kVerified ||
        o.state == maintenance::WorkOrderState::kQuarantined) {
      victim_terminal = true;
    }
  }
  fault::FaultClass final_verdict = fault::FaultClass::kNone;
  if (!classified) {
    final_verdict = service.diagnose_component(victim).cls;
    classified = final_verdict == truth;
  }
  v.classified = classified;
  v.terminal_outcome = all_closed && victim_terminal;
  // A verified repair erases the FRU's violation instant by design
  // (reset_component_trust), so a work order on the victim is itself
  // proof of detection — orders only open on a trust violation.
  v.detected =
      victim_order || service.first_component_violation(victim).has_value();

  // Any orphan left by the journey audit is an injected fault the
  // pipeline lost track of.
  v.no_orphans = close_journeys(rig.sim().provenance(),
                                rig.injector().ledger(), Subject{victim, {}},
                                final_verdict,
                                service.assessor().current_round())
                     .orphans == 0;

  for (int i = 0; i < fault::kFaultSiteCount; ++i) {
    out.manifest.counts[static_cast<std::size_t>(i)] =
        reg.reached(static_cast<fault::FaultSite>(i));
  }
  return out;
}

PointRun run_one(const SweepOptions& opts,
                 std::optional<fault::FaultPoint> armed) {
  if (opts.rig == SweepOptions::Rig::kHierarchy) {
    HierarchySystem rig(hierarchy_rig_options(opts));
    return run_body(rig, opts, armed, rig.options().components);
  }
  const Fig10Options fo = rig_options(opts);
  Fig10System rig(fo);
  return run_body(rig, opts, armed, fo.components);
}

}  // namespace

const char* to_string(SweepOptions::Rig rig) {
  switch (rig) {
    case SweepOptions::Rig::kFig10:
      return "fig10";
    case SweepOptions::Rig::kChaosRig:
      return "chaos-rig";
    case SweepOptions::Rig::kHierarchy:
      return "hierarchy";
  }
  return "?";
}

platform::ComponentId sweep_victim(const SweepOptions& opts) {
  // Fig. 10: component 1 hosts jobs of several DASs — the integrated
  // sharing the spatial judgement cares about. Chaos rig: the primary
  // assessor's own host dies, so the diagnostic DAS must survive the
  // fault it is diagnosing (failover, repair, debounced failback).
  // Hierarchy rig: the victim is overlay position 5 — killing it takes
  // out an assessor slice, so the oracle only passes if the overlay
  // self-heals (tester recomputation + composed partial views).
  switch (opts.rig) {
    case SweepOptions::Rig::kFig10:
      return 1;
    case SweepOptions::Rig::kChaosRig:
    case SweepOptions::Rig::kHierarchy:
      return 5;
  }
  return 0;
}

std::vector<fault::FaultPoint> FaultPointManifest::points(
    std::size_t max) const {
  std::vector<fault::FaultPoint> out;
  const std::size_t cap = max == 0 ? SIZE_MAX : max;
  for (int s = 0; s < fault::kFaultSiteCount; ++s) {
    for (std::uint64_t occ = 0; occ < counts[static_cast<std::size_t>(s)];
         ++occ) {
      if (out.size() >= cap) return out;
      out.push_back(fault::FaultPoint{static_cast<fault::FaultSite>(s), occ});
    }
  }
  return out;
}

DiscoveryResult discover_fault_space(const SweepOptions& opts) {
  PointRun run = run_one(opts, std::nullopt);
  return DiscoveryResult{run.manifest, run.verdict};
}

SweepResult run_fault_space_sweep(const SweepOptions& opts,
                                  std::size_t max_points, unsigned jobs) {
  SweepResult result;
  const DiscoveryResult discovery = discover_fault_space(opts);
  result.manifest = discovery.manifest;
  result.baseline = discovery.baseline;
  result.space_size = result.manifest.total();

  const std::vector<fault::FaultPoint> points =
      result.manifest.points(max_points);
  result.truncated = points.size() < result.space_size;
  result.verdicts.reserve(points.size());

  std::vector<std::function<ConvergenceVerdict()>> runs;
  runs.reserve(points.size());
  for (const fault::FaultPoint& p : points) {
    runs.push_back([&opts, p] { return run_one(opts, p).verdict; });
  }

  exec::ExperimentRunner runner(jobs);
  runner.run_and_merge<ConvergenceVerdict>(
      std::move(runs),
      [&result](std::size_t, const ConvergenceVerdict& v) {
        result.verdicts.push_back(v);
        if (!v.converged()) result.counterexamples.push_back(v);
        ++result.executed;
      },
      [&points](std::size_t i) { return points[i].token(); });
  return result;
}

ConvergenceVerdict replay_fault_point(const SweepOptions& opts,
                                      fault::FaultPoint point) {
  return run_one(opts, point).verdict;
}

}  // namespace decos::scenario
