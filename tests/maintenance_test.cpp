// Closed-loop maintenance: the MaintenanceExecutor consumes the
// diagnostic report and executes the Fig. 11 action in-sim. The
// through-line of every test: a repair only counts when the FRU's trust
// reconverges above the conformance threshold, a wrong action is a
// measured NFF removal followed by a model-guided retry, and a drained
// spare pool degrades visibly (quarantine + meta-ONA), never silently.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "analysis/nff.hpp"
#include "fault/chaos.hpp"
#include "scenario/maintenance.hpp"

namespace decos {
namespace {

using fault::MaintenanceAction;

scenario::Archetype find_archetype(const std::string& name) {
  const auto all = scenario::standard_archetypes();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const auto& a) { return a.name == name; });
  if (it == all.end()) throw std::runtime_error("unknown archetype " + name);
  return *it;
}

/// Hardware archetypes whose Fig. 11 action touches the physical FRU.
std::vector<scenario::Archetype> hardware_archetypes() {
  std::vector<scenario::Archetype> out;
  for (const char* name :
       {"connector", "wearout", "permanent", "quartz", "brownout", "babbling"}) {
    out.push_back(find_archetype(name));
  }
  return out;
}

TEST(MaintenanceExecutor, RepairVerifiedRestoresTrustAboveConformance) {
  // A permanent hardware failure: the executor pulls a spare, replaces
  // the component, the node re-integrates, and trust reconverges above
  // the verification threshold — the paper's full detect -> disseminate
  // -> analyse -> *repair* loop in one run.
  const auto out = scenario::run_maintenance_scenario(
      find_archetype("permanent"), 901, {}, {});
  EXPECT_TRUE(out.run.recovered) << "final trust " << out.run.final_trust;
  EXPECT_GE(out.run.repairs_verified, 1u);
  EXPECT_EQ(out.run.spares_consumed, 1u);
  ASSERT_FALSE(out.run.trajectory.empty());
  EXPECT_EQ(out.run.trajectory.front(), MaintenanceAction::kReplaceComponent);
  // Model-guided first visit: no wasted second action on the subject.
  EXPECT_EQ(out.run.trajectory.size(), 1u);
  EXPECT_EQ(out.run.nff_removals, 0u);
  EXPECT_GT(out.run.ttr_us, 0);
}

TEST(MaintenanceExecutor, SoftwareUpdateRecoversCrashedJobWithoutHardware) {
  const auto out =
      scenario::run_maintenance_scenario(find_archetype("sw-crash"), 901, {}, {});
  EXPECT_TRUE(out.run.recovered);
  ASSERT_FALSE(out.run.trajectory.empty());
  EXPECT_EQ(out.run.trajectory.front(), MaintenanceAction::kSoftwareUpdate);
  // A software fault must never consume hardware spares or score an NFF.
  EXPECT_EQ(out.run.spares_consumed, 0u);
  EXPECT_EQ(out.run.nff_removals, 0u);
}

TEST(MaintenanceExecutor, TransientFaultHealsWithoutAnyRepair) {
  // SEU bursts are component-external: Fig. 11 maps them to no-action,
  // so the loop must sit on its hands and let trust recover by itself.
  const auto out =
      scenario::run_maintenance_scenario(find_archetype("seu"), 901, {}, {});
  EXPECT_TRUE(out.run.recovered);
  EXPECT_EQ(out.run.repairs_attempted, 0u);
  EXPECT_EQ(out.run.spares_consumed, 0u);
}

TEST(MaintenanceExecutor, AllHardwareArchetypesReconverge) {
  // Acceptance bar: for every hardware archetype, trust on the true FRU
  // reconverges above the conformance threshold after a verified repair.
  const auto result = scenario::run_maintenance_campaign(
      hardware_archetypes(), {901, 902}, {}, {}, 2);
  EXPECT_EQ(result.recovered, result.runs);
  for (const auto& row : result.per_archetype) {
    EXPECT_EQ(row.recovered, row.runs) << row.name;
    EXPECT_GE(row.repairs_verified, row.runs) << row.name;
    EXPECT_GT(row.ttr_samples, 0u) << row.name;
  }
}

TEST(MaintenanceExecutor, NaiveStrategyMeasuredNffThenRetrySucceeds) {
  // The pre-DECOS garage on a connector fault: hardware-flavoured
  // symptoms, so the naive strategy pulls the box. The injector's ground
  // truth scores that removal as NFF (the unit retests OK at the bench),
  // the symptom persists, and the retry's model-guided second opinion
  // re-seats the connector — the wrong-action-then-retry trajectory the
  // paper's economics argument is built on.
  scenario::MaintenanceOptions options;
  options.executor.strategy = analysis::Strategy::kNaiveReplace;
  scenario::Fig10Options rig;
  // The connector archetype targets the default assessor host; home the
  // assessor elsewhere so replacing the box does not kill the diagnosis.
  rig.assessor_host = 0;
  const auto out = scenario::run_maintenance_scenario(
      find_archetype("connector"), 901, options, rig);

  EXPECT_TRUE(out.run.nff_on_subject);
  EXPECT_GE(out.run.nff_removals, 1u);
  EXPECT_GE(out.run.retries, 1u);
  ASSERT_FALSE(out.run.trajectory.empty());
  EXPECT_EQ(out.run.trajectory.front(), MaintenanceAction::kReplaceComponent);
  EXPECT_NE(std::find(out.run.trajectory.begin(), out.run.trajectory.end(),
                      MaintenanceAction::kInspectConnector),
            out.run.trajectory.end());
  EXPECT_TRUE(out.run.recovered) << "final trust " << out.run.final_trust;
}

TEST(MaintenanceExecutor, SpareExhaustionQuarantinesAndRaisesMetaOna) {
  scenario::MaintenanceOptions options;
  options.executor.spares = 0;
  const auto out = scenario::run_maintenance_scenario(
      find_archetype("permanent"), 901, options, {});

  EXPECT_GE(out.run.quarantines, 1u);
  EXPECT_EQ(out.run.spares_consumed, 0u);
  EXPECT_FALSE(out.run.recovered);
  // Degradation is visible, never silent: the meta-ONA sits on the
  // quarantined FRU's report row and the dependent jobs are marked.
  EXPECT_TRUE(out.degraded_ona);
  EXPECT_FALSE(out.degraded_jobs.empty());
}

/// Field-by-field snapshot equality, skipping the only wall-clock metric
/// (sim.events_per_sec — events per wall second, not simulated state).
void expect_same_snapshot(const obs::Snapshot& a, const obs::Snapshot& b) {
  auto filtered = [](const obs::Snapshot& s) {
    std::vector<const obs::SnapshotEntry*> out;
    for (const auto& e : s.entries) {
      if (e.name != "sim.events_per_sec") out.push_back(&e);
    }
    return out;
  };
  const auto fa = filtered(a);
  const auto fb = filtered(b);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    const auto& ea = *fa[i];
    const auto& eb = *fb[i];
    EXPECT_EQ(ea.name, eb.name);
    EXPECT_EQ(ea.label, eb.label) << ea.name;
    EXPECT_EQ(ea.counter, eb.counter) << ea.name << "{" << ea.label << "}";
    EXPECT_DOUBLE_EQ(ea.gauge, eb.gauge) << ea.name;
    EXPECT_EQ(ea.hist_count, eb.hist_count) << ea.name;
    EXPECT_DOUBLE_EQ(ea.hist_sum, eb.hist_sum) << ea.name;
    EXPECT_EQ(ea.buckets, eb.buckets) << ea.name;
  }
}

TEST(MaintenanceExecutor, ParallelCampaignIsBitIdenticalToSerial) {
  const std::vector<scenario::Archetype> subset = {find_archetype("permanent"),
                                                   find_archetype("sw-crash")};
  const std::vector<std::uint64_t> seeds = {901, 902};
  const auto serial =
      scenario::run_maintenance_campaign(subset, seeds, {}, {}, 1);
  const auto parallel =
      scenario::run_maintenance_campaign(subset, seeds, {}, {}, 4);

  ASSERT_EQ(serial.per_archetype.size(), parallel.per_archetype.size());
  for (std::size_t i = 0; i < serial.per_archetype.size(); ++i) {
    const auto& s = serial.per_archetype[i];
    const auto& p = parallel.per_archetype[i];
    EXPECT_EQ(s.name, p.name);
    EXPECT_EQ(s.recovered, p.recovered) << s.name;
    EXPECT_EQ(s.repairs_attempted, p.repairs_attempted) << s.name;
    EXPECT_EQ(s.repairs_verified, p.repairs_verified) << s.name;
    EXPECT_EQ(s.retries, p.retries) << s.name;
    EXPECT_EQ(s.nff_removals, p.nff_removals) << s.name;
    EXPECT_EQ(s.spares_consumed, p.spares_consumed) << s.name;
    EXPECT_EQ(s.quarantines, p.quarantines) << s.name;
    EXPECT_EQ(s.ttr_us_total, p.ttr_us_total) << s.name;
  }
  EXPECT_EQ(serial.recovered, parallel.recovered);
  EXPECT_EQ(serial.repairs_attempted, parallel.repairs_attempted);
  expect_same_snapshot(serial.metrics, parallel.metrics);
}


// --- the verdict pass: pure queries, transition-driven maintenance -------

sim::SimTime at_ms(std::int64_t v) {
  return sim::SimTime::zero() + sim::milliseconds(v);
}

/// Everything a closed-loop run leaves behind that a query could disturb.
struct LoopRecord {
  obs::Snapshot metrics;
  std::string ndjson;
  std::vector<maintenance::WorkOrder> orders;
  std::uint64_t failovers = 0;
  std::uint64_t failbacks = 0;
};

/// A closed-loop run stepped one TDMA round at a time. With `operate` set,
/// an operator reads every diagnosis query after each round.
LoopRecord run_loop(bool chaos, bool operate) {
  scenario::Fig10Options opts;
  opts.seed = 31;
  opts.provenance = true;
  if (chaos) {
    opts.components = 7;
    opts.assessor_host = 5;
    opts.assessor_replicas = {6};
  }
  scenario::Fig10System rig(opts);
  maintenance::MaintenanceExecutor executor(rig.system(), rig.diag(),
                                            rig.injector(), {});
  executor.start();
  std::optional<fault::ChaosInjector> storm;
  if (chaos) {
    // The primary assessor's own host fails: failover, replacement,
    // failback, all under a lossy diagnostic channel.
    storm.emplace(rig.sim(), rig.system());
    storm->degrade_diagnostic_channel(0.10, 0.05, at_ms(0));
    rig.injector().inject_permanent_failure(5, at_ms(300));
  } else {
    rig.injector().inject_permanent_failure(2, at_ms(300));
  }
  rig.injector().inject_heisenbug(rig.a(1), at_ms(300), 0.08);

  diag::DiagnosticService& d = rig.diag();
  const sim::Duration round = rig.system().cluster().schedule().round_length();
  for (sim::Duration t{}; t.ns() < sim::seconds(3).ns(); t = t + round) {
    rig.run(round);
    if (!operate) continue;
    (void)d.report();
    (void)d.assessor();
    (void)d.active_assessor();
    for (platform::ComponentId c = 0; c < opts.components; ++c) {
      (void)d.diagnose_component(c);
      (void)d.component_trust(c);
      (void)d.first_component_violation(c);
      (void)d.assessor().diagnose_component(c);
    }
    for (platform::JobId j = 0; j < rig.system().job_count(); ++j) {
      if (d.is_diagnostic_job(j)) continue;
      (void)d.diagnose_job(j);
      (void)d.job_trust(j);
      (void)d.first_job_violation(j);
      (void)d.assessor().diagnose_job(j);
    }
  }
  return LoopRecord{rig.sim().metrics().snapshot(),
                    rig.sim().provenance().ndjson(), executor.work_orders(),
                    d.failovers(), d.failbacks()};
}

void expect_same_loop(const LoopRecord& quiet, const LoopRecord& queried) {
  expect_same_snapshot(quiet.metrics, queried.metrics);
  EXPECT_EQ(quiet.ndjson, queried.ndjson);
  EXPECT_EQ(quiet.failovers, queried.failovers);
  EXPECT_EQ(quiet.failbacks, queried.failbacks);
  ASSERT_EQ(quiet.orders.size(), queried.orders.size());
  for (std::size_t i = 0; i < quiet.orders.size(); ++i) {
    const maintenance::WorkOrder& a = quiet.orders[i];
    const maintenance::WorkOrder& b = queried.orders[i];
    EXPECT_EQ(a.fru, b.fru);
    EXPECT_EQ(a.first_diagnosis, b.first_diagnosis) << a.fru;
    EXPECT_EQ(a.actions, b.actions) << a.fru;
    EXPECT_EQ(a.state, b.state) << a.fru;
    EXPECT_EQ(a.opened.ns(), b.opened.ns()) << a.fru;
    EXPECT_EQ(a.closed.ns(), b.closed.ns()) << a.fru;
  }
}

TEST(VerdictPass, QueriesArePureReadsOnFig10Rig) {
  const LoopRecord quiet = run_loop(false, false);
  ASSERT_FALSE(quiet.orders.empty());
  expect_same_loop(quiet, run_loop(false, true));
}

TEST(VerdictPass, QueriesArePureReadsOnChaosRig) {
  const LoopRecord quiet = run_loop(true, false);
  ASSERT_FALSE(quiet.orders.empty());
  ASSERT_GE(quiet.failovers, 1u);
  expect_same_loop(quiet, run_loop(true, true));
}

/// Steps a Fig. 10 rig with a started executor round by round after
/// injecting `inject`, and returns the instant `c` first read reported
/// (trust below the report threshold) and the instant its verdict first
/// read actionable, plus the orders opened on it.
struct Crossing {
  std::optional<sim::SimTime> reported;
  std::optional<sim::SimTime> actionable;
  fault::FaultClass class_when_reported = fault::FaultClass::kNone;
  std::vector<maintenance::WorkOrder> orders;
  sim::Duration round{};
};

Crossing step_until_order(std::uint64_t seed, platform::ComponentId c,
                          void (*inject)(scenario::Fig10System&)) {
  scenario::Fig10Options opts;
  opts.seed = seed;
  scenario::Fig10System rig(opts);
  maintenance::MaintenanceExecutor executor(rig.system(), rig.diag(),
                                            rig.injector(), {});
  executor.start();
  inject(rig);
  Crossing out;
  out.round = rig.system().cluster().schedule().round_length();
  const diag::DiagnosticService& d = rig.diag();
  for (int r = 0; r < 2000 && executor.work_orders().empty(); ++r) {
    rig.run(out.round);
    if (d.component_trust(c) >= diag::TrustParams::report_threshold) continue;
    const fault::FaultClass cls = d.diagnose_component(c).cls;
    if (!out.reported) {
      out.reported = rig.sim().now();
      out.class_when_reported = cls;
    }
    if (!out.actionable &&
        analysis::decide(analysis::Strategy::kModelGuided, cls) !=
            fault::MaintenanceAction::kNoAction) {
      out.actionable = rig.sim().now();
    }
  }
  out.orders = executor.work_orders();
  return out;
}

TEST(VerdictPass, OrderOpensWithinOneRoundOfTrustCrossingThreshold) {
  // A borderline connector: by the time its trust crosses the report
  // threshold the recurring episodes already classify it, so the order
  // must open in the very assessment round of the crossing.
  const Crossing x = step_until_order(44, 3, [](scenario::Fig10System& rig) {
    rig.injector().inject_connector_fault(3, at_ms(300),
                                          sim::milliseconds(250),
                                          sim::milliseconds(10), 0.8);
  });
  ASSERT_TRUE(x.reported.has_value());
  ASSERT_EQ(x.actionable, x.reported)
      << "class at the crossing: " << fault::to_string(x.class_when_reported);
  ASSERT_EQ(x.orders.size(), 1u);
  EXPECT_EQ(x.orders[0].component, 3u);
  EXPECT_LE(x.orders[0].opened.ns(), x.reported->ns());
  EXPECT_GT(x.orders[0].opened.ns(), (*x.reported - x.round).ns());
}

TEST(VerdictPass, LateActionableClassStillOpensAnOrder) {
  // A permanent failure drops trust below the report threshold within a
  // few rounds, long before the continuous-omission pattern classifies:
  // the FRU is reported with no actionable class first. The later class
  // change alone, with trust still below the threshold, must open the
  // order, and within one assessment round.
  const Crossing x = step_until_order(43, 2, [](scenario::Fig10System& rig) {
    rig.injector().inject_permanent_failure(2, at_ms(300));
  });
  ASSERT_TRUE(x.reported.has_value());
  ASSERT_EQ(analysis::decide(analysis::Strategy::kModelGuided,
                             x.class_when_reported),
            fault::MaintenanceAction::kNoAction);
  ASSERT_TRUE(x.actionable.has_value());
  EXPECT_GT(x.actionable->ns(), x.reported->ns());
  ASSERT_EQ(x.orders.size(), 1u);
  EXPECT_EQ(x.orders[0].first_diagnosis, fault::FaultClass::kComponentInternal);
  EXPECT_LE(x.orders[0].opened.ns(), x.actionable->ns());
  EXPECT_GT(x.orders[0].opened.ns(), (*x.actionable - x.round).ns());
}

}  // namespace
}  // namespace decos
