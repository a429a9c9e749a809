// Hierarchical diagnosis end to end: the hierarchy rig
// (scenario/hierarchy.hpp), verdict-delta dissemination, the composed
// service contract and campaign determinism.

#include <gtest/gtest.h>

#include <vector>

#include "fault/chaos.hpp"
#include "feature_oracle.hpp"
#include "scenario/fig10.hpp"
#include "scenario/hierarchy.hpp"

namespace decos {
namespace {

sim::SimTime ms(std::int64_t v) { return sim::SimTime{0} + sim::milliseconds(v); }

TEST(VerdictDeltaCodec, RoundTripsThroughAux) {
  diag::VerdictDelta d;
  d.job_level = true;
  d.fru = 417;
  d.origin = 23;
  d.trust = 0.3125;
  d.cls = fault::FaultClass::kComponentInternal;
  d.clear = false;
  d.round = 95;
  // Forwarded five rounds after emission: the age field carries the
  // difference, so the receiver reconstructs the emission round even
  // though the multiplexer restamps sent_round.
  vnet::Message m = diag::encode_delta(d, 100);
  const auto back = diag::decode_delta(m);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->job_level, d.job_level);
  EXPECT_EQ(back->fru, d.fru);
  EXPECT_EQ(back->origin, d.origin);
  EXPECT_EQ(back->trust, d.trust);
  EXPECT_EQ(back->cls, d.cls);
  EXPECT_EQ(back->clear, d.clear);
  EXPECT_EQ(back->round, d.round);
}

TEST(VerdictDeltaCodec, SaturatedAgeIsRejected) {
  diag::VerdictDelta d;
  d.fru = 3;
  d.round = 10;
  // 63+ rounds old: the age field saturates and the emission round can
  // no longer be reconstructed — receivers must drop the copy.
  EXPECT_FALSE(diag::decode_delta(diag::encode_delta(d, 10 + 63)).has_value());
  EXPECT_FALSE(diag::decode_delta(diag::encode_delta(d, 10 + 200)).has_value());
  EXPECT_TRUE(diag::decode_delta(diag::encode_delta(d, 10 + 62)).has_value());
}

/// Wire-sequence gaps summed over every overlay position.
std::uint64_t symptom_gaps(diag::DiagnosticService& d) {
  std::uint64_t gaps = 0;
  for (std::size_t i = 0; i < d.assessor_count(); ++i) {
    gaps += d.assessor(i).symptom_gaps();
  }
  return gaps;
}

TEST(SymptomGaps, LosslessRunsCountNone) {
  // Each of an agent's ports leads to one position, so every message a
  // tester filters still advances that port's sequence: a lossless run
  // loses nothing and must count no gap, however the slices are cut.
  scenario::HierarchyOptions ho;
  ho.seed = 3;
  ho.components = 8;
  scenario::HierarchySystem hier(ho);
  hier.injector().inject_permanent_failure(5, ms(500));
  hier.run(sim::seconds(2));
  EXPECT_GT(hier.diag().hierarchy_stats().symptoms_accepted, 0u);
  EXPECT_EQ(symptom_gaps(hier.diag()), 0u);

  for (const bool two_positions : {false, true}) {
    scenario::Fig10Options fo;
    fo.seed = 3;
    if (two_positions) {
      fo.components = 7;
      fo.assessor_host = 5;
      fo.assessor_replicas = {6};
    }
    scenario::Fig10System rig(fo);
    rig.injector().inject_permanent_failure(1, ms(500));
    rig.run(sim::seconds(2));
    EXPECT_EQ(symptom_gaps(rig.diag()), 0u)
        << (two_positions ? "chaos rig" : "Fig. 10 rig");
  }
}

TEST(SymptomGaps, LossyChannelStillCountsGaps) {
  scenario::Fig10Options fo;
  fo.seed = 3;
  fo.components = 7;
  fo.assessor_host = 5;
  fo.assessor_replicas = {6};
  scenario::Fig10System rig(fo);
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.degrade_diagnostic_channel(0.10, 0.0, ms(0));
  rig.injector().inject_permanent_failure(1, ms(500));
  rig.run(sim::seconds(2));
  ASSERT_GT(storm.messages_dropped(), 0u);
  EXPECT_GT(symptom_gaps(rig.diag()), 0u);
}

TEST(HierarchyRig, SteadyStateFiltersNothingAndDisseminatesNothing) {
  scenario::HierarchyOptions opts;
  opts.components = 8;
  scenario::HierarchySystem rig(opts);
  rig.run(sim::seconds(1));

  const auto& topo = rig.diag().topology();
  EXPECT_EQ(topo.positions(), 8u);
  EXPECT_EQ(topo.dimension(), 3u);

  const auto stats = rig.diag().hierarchy_stats();
  // Sender-side routing already narrows traffic to the tester sets, so
  // the receiver-side filter (the safety net for reassignment races)
  // never fires in an undisturbed run.
  EXPECT_GT(stats.symptoms_accepted, 0u);
  EXPECT_EQ(stats.symptoms_filtered, 0u);
  // Nothing crossed the violation threshold: no deltas on the wire.
  EXPECT_EQ(stats.deltas_emitted, 0u);
  EXPECT_EQ(rig.diag().topology().recomputes(), 0u);

  for (platform::ComponentId c = 0; c < 8; ++c) {
    EXPECT_GT(rig.diag().component_trust(c), 0.9);
  }
}

TEST(HierarchyRig, AssessorDeathSelfHealsWithoutFailover) {
  scenario::HierarchyOptions opts;
  opts.components = 8;
  scenario::HierarchySystem rig(opts);

  // Kill overlay position 3 — simultaneously an application host, an
  // agent and an assessor slice owner.
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.kill_host(3, ms(400));
  rig.run(sim::seconds(2));

  // The composed view convicts the dead host even though one of its own
  // testers died with it — surviving testers took over the slice.
  EXPECT_LT(rig.diag().component_trust(3), 0.5);
  ASSERT_TRUE(rig.diag().first_component_violation(3).has_value());
  EXPECT_NE(rig.diag().diagnose_component(3).cls, fault::FaultClass::kNone);

  // The overlay self-healed by local tester recomputation and verdict
  // dissemination.
  EXPECT_GT(rig.diag().topology().recomputes(), 0u);
  const auto stats = rig.diag().hierarchy_stats();
  EXPECT_GT(stats.deltas_emitted, 0u);
  EXPECT_GT(stats.deltas_accepted, 0u);

  // The rest of the cluster stays trusted.
  for (platform::ComponentId c = 0; c < 8; ++c) {
    if (c == 3) continue;
    EXPECT_GT(rig.diag().component_trust(c), 0.9) << "component " << int(c);
  }
}

TEST(HierarchyRig, SummariesMatchExactClassification) {
  // Every position's live, folded features and verdicts equal those of a
  // fresh summary that never folded, over the same evidence store.
  scenario::HierarchyOptions opts;
  opts.components = 8;
  scenario::HierarchySystem rig(opts);
  rig.injector().inject_wearout(2, ms(300), sim::milliseconds(600), 0.7,
                                sim::milliseconds(10));
  rig.run(sim::seconds(4));
  std::size_t with_evidence = 0;
  for (std::size_t i = 0; i < rig.diag().assessor_count(); ++i) {
    const diag::Assessor& a = rig.diag().assessor(i);
    EXPECT_GT(a.summary().horizon(), 0u);
    with_evidence +=
        diag::oracle::expect_folded_matches_unfolded(a, opts.components);
  }
  EXPECT_GT(with_evidence, 0u);
  EXPECT_NE(rig.diag().diagnose_component(2).cls, fault::FaultClass::kNone);
}

TEST(HierarchyCampaign, JobsFourBitIdenticalToSerial) {
  const std::vector<std::uint64_t> seeds = {1, 2, 3, 4};
  scenario::HierarchyOptions base;
  base.components = 8;
  const auto serial = scenario::run_hierarchy_campaign(seeds, base, 1);
  const auto parallel = scenario::run_hierarchy_campaign(seeds, base, 4);

  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_EQ(serial.correct, parallel.correct);
  for (int t = 0; t < static_cast<int>(analysis::ConfusionMatrix::kClasses);
       ++t) {
    for (int p = 0; p < static_cast<int>(analysis::ConfusionMatrix::kClasses);
         ++p) {
      EXPECT_EQ(serial.confusion.count(static_cast<fault::FaultClass>(t),
                                       static_cast<fault::FaultClass>(p)),
                parallel.confusion.count(static_cast<fault::FaultClass>(t),
                                         static_cast<fault::FaultClass>(p)));
    }
  }
  EXPECT_EQ(serial.symptoms_accepted, parallel.symptoms_accepted);
  EXPECT_EQ(serial.symptoms_filtered, parallel.symptoms_filtered);
  EXPECT_EQ(serial.deltas_emitted, parallel.deltas_emitted);
  EXPECT_EQ(serial.deltas_forwarded, parallel.deltas_forwarded);
  EXPECT_EQ(serial.deltas_accepted, parallel.deltas_accepted);
  EXPECT_EQ(serial.deltas_duplicate, parallel.deltas_duplicate);
  EXPECT_EQ(serial.deltas_rejected, parallel.deltas_rejected);
  EXPECT_GT(serial.runs, 0u);
}

}  // namespace
}  // namespace decos
