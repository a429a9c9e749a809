// Diagnostic-path fault tolerance: the chaos catalogue (fault/chaos.hpp)
// and the chaos campaign (scenario/chaos.hpp). The through-line of every
// test: attacks on the diagnostic path itself must degrade the
// maintenance view gracefully and visibly, never silently.

#include <gtest/gtest.h>

#include "fault/chaos.hpp"
#include "scenario/campaign.hpp"
#include "scenario/chaos.hpp"
#include "scenario/fig10.hpp"

namespace decos {
namespace {

sim::SimTime ms(std::int64_t v) { return sim::SimTime{0} + sim::milliseconds(v); }

scenario::Fig10Options chaos_rig_options(std::uint64_t seed, bool hardening) {
  scenario::Fig10Options opts;
  opts.seed = seed;
  opts.components = 7;
  opts.assessor_host = 5;
  opts.assessor_replicas = {6};
  opts.assessor.hardening = hardening;
  return opts;
}

TEST(ChaosInjector, KilledHostDropsOutOfItsOwnMembership) {
  scenario::Fig10System rig(chaos_rig_options(7, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(5, ms(400));
  rig.run(sim::seconds(1));
  EXPECT_EQ((rig.system().cluster().node(5).membership() >> 5) & 1u, 0u);
  // A live peer also expels the silent node from its view.
  EXPECT_EQ((rig.system().cluster().node(0).membership() >> 5) & 1u, 0u);
}

TEST(ChaosInjector, RevivedHostReintegrates) {
  scenario::Fig10System rig(chaos_rig_options(7, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(5, ms(400));
  storm.revive_host(5, ms(1200));
  rig.run(sim::seconds(3));
  EXPECT_EQ((rig.system().cluster().node(5).membership() >> 5) & 1u, 1u);
}

TEST(ChaosInjector, ChannelDegradationDropsOnlyDiagnosticTraffic) {
  scenario::Fig10System rig(chaos_rig_options(3, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.degrade_diagnostic_channel(0.5, 0.0, ms(0));
  rig.run(sim::seconds(2));
  EXPECT_GT(storm.messages_dropped(), 0u);
  // Application traffic is untouched: the TMR voter kept voting.
  EXPECT_GT(rig.tmr().votes, 100u);
}

// The chaos rig's assessors form a two-position cube: position 0 on
// host 5, position 1 on host 6. Both positions test every component.

/// Every FRU's composed verdict, components first, then application jobs.
std::vector<fault::FaultClass> composed_verdicts(scenario::Fig10System& rig) {
  std::vector<fault::FaultClass> out;
  for (platform::ComponentId c = 0; c < rig.options().components; ++c) {
    out.push_back(rig.diag().diagnose_component(c).cls);
  }
  for (const platform::JobId j : rig.app_jobs()) {
    out.push_back(rig.diag().diagnose_job(j).cls);
  }
  return out;
}

TEST(AssessorOverlay, PrimaryDeathReassignsTestersAndRevivalRestoresThem) {
  scenario::Fig10System rig(chaos_rig_options(11, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(5, ms(800));
  rig.run(sim::seconds(1));

  const diag::HierarchyTopology& topo = rig.diag().topology();
  EXPECT_FALSE(topo.alive(0));
  for (platform::ComponentId c = 0; c < 7; ++c) {
    EXPECT_EQ(topo.testers(c), std::vector<std::uint32_t>{1}) << int(c);
  }

  storm.revive_host(5, ms(1400));
  rig.run(sim::seconds(2));
  EXPECT_TRUE(topo.alive(0));
  for (platform::ComponentId c = 0; c < 7; ++c) {
    EXPECT_EQ(topo.testers(c).size(), 2u) << int(c);
  }
  EXPECT_EQ(topo.recomputes(), 2u);
}

TEST(AssessorOverlay, ReassignmentHappensWithoutAnyQuery) {
  // Nothing reads the diagnosis while position 0's host dies: the verdict
  // pass alone recomputes the view, and the gauge shows it. The dead
  // host's verdict then comes from the surviving position.
  scenario::Fig10System rig(chaos_rig_options(11, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(5, ms(800));
  rig.run(sim::seconds(2));
  const auto snap = rig.sim().metrics().snapshot();
  const auto* recomputes = snap.find("diag.hierarchy.recomputes");
  ASSERT_NE(recomputes, nullptr);
  EXPECT_EQ(recomputes->gauge, 1.0);

  diag::DiagnosticService& d = rig.diag();
  EXPECT_LT(d.component_trust(5), 0.5);
  EXPECT_EQ(d.component_trust(5), d.assessor(1).component_trust(5));
  EXPECT_EQ(d.diagnose_component(5).cls,
            d.assessor(1).diagnose_component(5).cls);
  EXPECT_NE(d.diagnose_component(5).cls, fault::FaultClass::kNone);
  // The dead position's frozen view never saw its own host go.
  EXPECT_GT(d.assessor(0).component_trust(5), 0.9);
}

TEST(AssessorOverlay, FlappingHostLeavesVerdictsUnchanged) {
  // Position 0's host twitches back to life mid-outage for less than
  // 50 ms, then dies again. The overlay follows each membership change,
  // and no verdict differs from an outage without the flap.
  auto run = [](bool flap) {
    scenario::Fig10System rig(chaos_rig_options(11, true));
    fault::ChaosInjector storm(rig.sim(), rig.system());
    storm.kill_host(5, ms(800));
    if (flap) {
      storm.revive_host(5, ms(1400));  // back up for a moment...
      storm.kill_host(5, ms(1445));    // ...but dead again within 50 ms
    }
    storm.revive_host(5, ms(2000));  // the durable revival
    rig.run(sim::seconds(4));
    EXPECT_TRUE(rig.diag().topology().alive(0));
    return composed_verdicts(rig);
  };
  const auto steady = run(false);
  EXPECT_EQ(run(true), steady);
  EXPECT_NE(steady[5], fault::FaultClass::kNone);
}

TEST(AssessorOverlay, FaultDuringOutageIsDiagnosed) {
  // A fault injected *while position 0 is dead* must still be diagnosed:
  // position 1 tests every component of the two-position cube.
  scenario::Fig10System rig(chaos_rig_options(13, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(5, ms(500));
  rig.injector().inject_permanent_failure(2, ms(900));
  rig.run(sim::seconds(4));

  EXPECT_FALSE(rig.diag().topology().alive(0));
  EXPECT_EQ(rig.diag().diagnose_component(2).cls,
            fault::FaultClass::kComponentInternal);
}

TEST(AssessorOverlay, OutageFaultStaysDiagnosedAfterRevival) {
  // Fault injected during the outage; after the revival the composed
  // verdict still convicts it. No state is merged into the revived
  // position: the surviving tester never stopped testing.
  scenario::Fig10System rig(chaos_rig_options(17, true));
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(5, ms(500));
  rig.injector().inject_permanent_failure(2, ms(900));
  storm.revive_host(5, ms(2600));
  rig.run(sim::seconds(4));

  EXPECT_TRUE(rig.diag().topology().alive(0));
  EXPECT_LT(rig.diag().component_trust(2), 0.5);
  EXPECT_EQ(rig.diag().diagnose_component(2).cls,
            fault::FaultClass::kComponentInternal);
}

TEST(TmrRedundancy, LostReplicaAssertsExternalOnaOnItsHost) {
  // Killing component 0 takes TMR replica S1 with it. The redundancy
  // monitor's lost transition must surface in the maintenance view: an
  // external ONA on the replica's host plus the labelled counter.
  scenario::Fig10System rig({.seed = 23});
  rig.injector().inject_permanent_failure(0, ms(300));
  rig.run(sim::seconds(2));

  bool ona_seen = false;
  for (const auto& row : rig.diag().report()) {
    if (row.fru != "component 0") continue;
    for (const auto& ona : row.asserted_onas) {
      if (ona == "tmr-redundancy-lost") ona_seen = true;
    }
  }
  EXPECT_TRUE(ona_seen);
  const auto snap = rig.sim().metrics().snapshot();
  const auto* lost =
      snap.find("vnet.tmr.redundancy_transitions", "edge=lost");
  ASSERT_NE(lost, nullptr);
  EXPECT_GE(lost->counter, 1u);
}

TEST(SilentAgent, HardenedReportFlagsMissingEvidence) {
  const auto out = scenario::run_silent_agent_scenario(true);
  EXPECT_LT(out.evidence_quality, 1.0);
  EXPECT_GT(out.evidence_age, 32u);
  EXPECT_TRUE(out.channel_degraded_ona);
  EXPECT_FALSE(out.false_healthy());
}

TEST(SilentAgent, AblatedReportIsFalselyHealthy) {
  // The pre-hardening failure mode this PR closes: with hardening off the
  // silenced component keeps full trust, full evidence quality, and no
  // maintenance action — indistinguishable from verified health.
  const auto out = scenario::run_silent_agent_scenario(false);
  EXPECT_DOUBLE_EQ(out.evidence_quality, 1.0);
  EXPECT_DOUBLE_EQ(out.trust, 1.0);
  EXPECT_FALSE(out.channel_degraded_ona);
  EXPECT_TRUE(out.false_healthy());
}

TEST(ChannelHardening, AblationSwitchReachesEveryAgent) {
  // One flag, Assessor::Params::hardening, ablates the diagnostic-path
  // hardening end to end: the service hands it to every agent. On a lossy
  // diagnostic channel an ablated agent sends no heartbeat and no resend;
  // a hardened one does both.
  for (const bool hardening : {false, true}) {
    SCOPED_TRACE(hardening ? "hardening on" : "hardening off");
    scenario::Fig10System rig(chaos_rig_options(5, hardening));
    fault::ChaosInjector storm(rig.sim(), rig.system());
    storm.degrade_diagnostic_channel(0.10, 0.05, ms(0));
    rig.injector().inject_wearout(1, ms(300), sim::milliseconds(500), 0.7,
                                  sim::milliseconds(10));
    rig.run(sim::seconds(2));
    ASSERT_GT(storm.messages_dropped(), 0u);
    std::uint64_t heartbeats = 0;
    std::uint64_t resends = 0;
    for (platform::ComponentId c = 0; c < 7; ++c) {
      const diag::Agent& agent = rig.diag().agent(c);
      heartbeats += agent.heartbeats_sent();
      resends += agent.retransmissions();
      if (!hardening) {
        EXPECT_EQ(agent.heartbeats_sent(), 0u) << "agent " << c;
        EXPECT_EQ(agent.retransmissions(), 0u) << "agent " << c;
      }
    }
    if (hardening) {
      EXPECT_GT(heartbeats, 0u);
      EXPECT_GT(resends, 0u);
    }
  }
}

TEST(ChaosCampaign, HardenedAccuracyWithinTenPercentOfBaseline) {
  // Acceptance criterion: classification accuracy under the full chaos
  // treatment (lossy diagnostic channel + assessor outage + revival)
  // within 10 percentage points of the fault-free baseline. One seed here
  // keeps the test fast; the bench sweeps more.
  const auto archetypes = scenario::standard_archetypes();
  const std::vector<std::uint64_t> seeds{1};

  scenario::Fig10Options base;
  base.components = 7;
  base.assessor_host = 5;
  const auto baseline = scenario::run_campaign(archetypes, seeds, base);
  std::size_t base_correct = 0, base_runs = 0;
  for (const auto& row : baseline.per_archetype) {
    base_correct += row.correct;
    base_runs += row.runs;
  }
  const double base_acc =
      static_cast<double>(base_correct) / static_cast<double>(base_runs);

  const auto chaotic =
      scenario::run_chaos_campaign(archetypes, seeds, scenario::ChaosOptions{});
  EXPECT_GE(chaotic.accuracy(), base_acc - 0.10);

  // The hardening machinery demonstrably worked for its living.
  EXPECT_GT(chaotic.heartbeats_received, 0u);
  EXPECT_GT(chaotic.chaos_dropped, 0u);
  EXPECT_GT(chaotic.symptom_gaps, 0u);
  EXPECT_GT(chaotic.retransmissions, 0u);
}

}  // namespace
}  // namespace decos
