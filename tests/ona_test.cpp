// Tests for the declarative Out-of-Norm Assertion framework: condition
// primitives on synthetic evidence, the standard rule base against the
// Fig. 8 archetypes (unit level), and agreement between the triggered
// ONAs and the rule classifier on live end-to-end scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "diag/classifier.hpp"
#include "diag/ona.hpp"
#include "diag/summary.hpp"
#include "scenario/fig10.hpp"

namespace decos::diag {
namespace {

/// Builds synthetic evidence: `episodes` bursts of sender-side symptoms
/// about component `subject`, reported by observers 1..3, with the gap
/// between bursts scaled by `gap_factor` each time (0.7 = accelerating).
EvidenceStore synthetic_sender_evidence(platform::ComponentId subject,
                                        int episodes, double first_gap,
                                        double gap_factor,
                                        SymptomType type = SymptomType::kSlotCrcError) {
  EvidenceStore ev;
  double gap = first_gap;
  tta::RoundId r = 100;
  for (int e = 0; e < episodes; ++e) {
    for (int i = 0; i < 3; ++i) {  // 3 symptomatic rounds per episode
      for (platform::ComponentId obs = 1; obs <= 3; ++obs) {
        Symptom s;
        s.type = type;
        s.observer = obs;
        s.subject_component = subject;
        s.round = r + static_cast<tta::RoundId>(i);
        ev.ingest(s);
      }
    }
    r += static_cast<tta::RoundId>(gap);
    gap *= gap_factor;
  }
  return ev;
}

OnaContext make_ctx(const EvidenceStore& ev, platform::ComponentId subject,
                    tta::RoundId now, const fault::SpatialLayout& layout) {
  OnaContext ctx{subject, {}, now};
  EvidenceSummary(FeatureParams{.sender_spread = 2}, 5, layout)
      .component_features(ev, subject, now, ctx.features);
  return ctx;
}

/// The live assessor's context for `subject`: the record its verdict uses.
OnaContext live_ctx(scenario::Fig10System& rig,
                    platform::ComponentId subject) {
  const Assessor& a = rig.diag().assessor();
  return OnaContext{subject, a.component_features(subject), a.current_round()};
}

TEST(OnaConditions, SenderEpisodeCountAtLeast) {
  const auto layout = fault::SpatialLayout::linear(5);
  const auto ev = synthetic_sender_evidence(0, 5, 200.0, 1.0);
  const auto ctx = make_ctx(ev, 0, 2000, layout);
  EXPECT_TRUE(conditions::sender_episode_count_at_least(5)(ctx));
  EXPECT_FALSE(conditions::sender_episode_count_at_least(6)(ctx));
  EXPECT_FALSE(conditions::sender_episode_count_at_most(4)(ctx));
  EXPECT_TRUE(conditions::sender_episode_count_at_most(5)(ctx));
}

TEST(OnaConditions, RateIncreasingDetectsAcceleration) {
  const auto layout = fault::SpatialLayout::linear(5);
  const auto accel = synthetic_sender_evidence(0, 8, 400.0, 0.6);
  const auto steady = synthetic_sender_evidence(0, 8, 400.0, 1.0);
  EXPECT_TRUE(conditions::sender_rate_increasing()(
      make_ctx(accel, 0, 5000, layout)));
  EXPECT_FALSE(conditions::sender_rate_increasing()(
      make_ctx(steady, 0, 5000, layout)));
}

TEST(OnaConditions, DenseTailDetectsContinuousRun) {
  const auto layout = fault::SpatialLayout::linear(5);
  EvidenceStore ev;
  for (tta::RoundId r = 100; r < 400; ++r) {
    for (platform::ComponentId obs = 1; obs <= 3; ++obs) {
      Symptom s;
      s.type = SymptomType::kSlotOmission;
      s.observer = obs;
      s.subject_component = 0;
      s.round = r;
      ev.ingest(s);
    }
  }
  const auto ctx = make_ctx(ev, 0, 405, layout);
  EXPECT_TRUE(conditions::sender_dense_tail(200)(ctx));
  EXPECT_TRUE(conditions::dominant_omission()(ctx));
  EXPECT_FALSE(conditions::dominant_timing()(ctx));
  // A run that ended long ago is not a dense *tail*.
  const auto stale = make_ctx(ev, 0, 2000, layout);
  EXPECT_FALSE(conditions::sender_dense_tail(200)(stale));
}

TEST(OnaConditions, ObserverSideAndIsolation) {
  const auto layout = fault::SpatialLayout::linear(5);
  EvidenceStore ev;
  // Component 3 reports many senders in three separated bursts.
  for (tta::RoundId base : {100u, 400u, 800u}) {
    for (tta::RoundId r = base; r < base + 4; ++r) {
      for (platform::ComponentId sender = 0; sender < 3; ++sender) {
        Symptom s;
        s.type = SymptomType::kSlotCrcError;
        s.observer = 3;
        s.subject_component = sender;
        s.round = r;
        ev.ingest(s);
      }
    }
  }
  const auto ctx = make_ctx(ev, 3, 1000, layout);
  EXPECT_TRUE(conditions::observer_episode_count_at_least(3)(ctx));
  EXPECT_TRUE(conditions::observers_isolated()(ctx));
  EXPECT_FALSE(conditions::observers_spatially_correlated()(ctx));
  EXPECT_TRUE(conditions::no_sender_evidence()(ctx));
}

TEST(OnaEngine, StandardRulesMatchSyntheticArchetypes) {
  const auto layout = fault::SpatialLayout::linear(5);
  const auto engine = OnaEngine::standard_rules();

  // Wearout: accelerating CRC episodes.
  {
    const auto ev = synthetic_sender_evidence(0, 8, 400.0, 0.6);
    const auto hits = engine.evaluate(make_ctx(ev, 0, 5000, layout));
    ASSERT_FALSE(hits.empty());
    bool wearout = false;
    for (const auto* h : hits) wearout |= (h->name() == "wearout");
    EXPECT_TRUE(wearout);
  }
  // Isolated transient: one short burst.
  {
    const auto ev = synthetic_sender_evidence(0, 1, 200.0, 1.0);
    const auto hits = engine.evaluate(make_ctx(ev, 0, 5000, layout));
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0]->name(), "isolated-transient");
    EXPECT_EQ(hits[0]->indicates(), fault::FaultClass::kComponentExternal);
  }
  // No evidence: nothing triggers.
  {
    EvidenceStore ev;
    EXPECT_TRUE(engine.evaluate(make_ctx(ev, 0, 100, layout)).empty());
  }
}

TEST(OnaEngine, UntriggeredRuleRequiresAllConditions) {
  OutOfNormAssertion ona(
      "test", fault::FaultClass::kComponentInternal,
      {conditions::sender_episode_count_at_least(1),
       conditions::dominant_timing()});
  const auto layout = fault::SpatialLayout::linear(5);
  // CRC-dominant evidence: first condition holds, second does not.
  const auto ev = synthetic_sender_evidence(0, 3, 200.0, 1.0);
  EXPECT_FALSE(ona.triggered(make_ctx(ev, 0, 2000, layout)));
}

TEST(OnaEngine, EmptyConditionListNeverTriggers) {
  OutOfNormAssertion ona("empty", fault::FaultClass::kNone, {});
  EvidenceStore ev;
  const auto layout = fault::SpatialLayout::linear(5);
  EXPECT_FALSE(ona.triggered(make_ctx(ev, 0, 0, layout)));
}

// --- live agreement with the classifier -----------------------------------------

TEST(OnaLive, WearoutScenarioTriggersWearoutOna) {
  scenario::Fig10System rig({.seed = 51});
  rig.injector().inject_wearout(1, sim::SimTime{0} + sim::milliseconds(300),
                                sim::milliseconds(600), 0.7,
                                sim::milliseconds(10));
  rig.run(sim::seconds(5));
  const auto engine = OnaEngine::standard_rules();
  const OnaContext ctx = live_ctx(rig, 1);
  bool wearout = false;
  for (const auto* h : engine.evaluate(ctx)) {
    wearout |= (h->name() == "wearout");
  }
  EXPECT_TRUE(wearout);
  // And the rule classifier agrees with the ONA's indicated class.
  EXPECT_EQ(rig.diag().assessor().diagnose_component(1).cls,
            fault::FaultClass::kComponentInternal);
}

TEST(OnaLive, EmiScenarioTriggersMassiveTransientOna) {
  scenario::Fig10System rig({.seed = 52});
  rig.injector().inject_emi_burst(1.0, 1.1, sim::SimTime{0} + sim::milliseconds(600),
                                  sim::milliseconds(12));
  rig.run(sim::seconds(3));
  const auto engine = OnaEngine::standard_rules();
  const OnaContext ctx = live_ctx(rig, 1);
  bool massive = false;
  for (const auto* h : engine.evaluate(ctx)) {
    massive |= (h->name() == "massive-transient");
  }
  EXPECT_TRUE(massive);
}

TEST(OnaLive, ConnectorScenarioTriggersConnectorOna) {
  scenario::Fig10System rig({.seed = 53});
  rig.injector().inject_connector_fault(3, sim::SimTime{0} + sim::milliseconds(300),
                                        sim::milliseconds(250),
                                        sim::milliseconds(10), 0.8);
  rig.run(sim::seconds(5));
  const auto engine = OnaEngine::standard_rules();
  const OnaContext ctx = live_ctx(rig, 3);
  bool connector = false;
  for (const auto* h : engine.evaluate(ctx)) {
    connector |= (h->name() == "connector");
  }
  EXPECT_TRUE(connector);
}

TEST(OnaLive, ReportRowJudgesOnasOnTheVerdictsFeatures) {
  // E13a: dead component 3 plus wearing component 1, assessor on host 4.
  // The ONAs must read the record the verdict reads — sender_spread
  // auto-scaled to the cluster. Judged on a fixed bar of 2 instead, every
  // healthy observer (each flags both faulty senders) was discredited as
  // a broken receive path ("connector"), and neither fault's own pattern
  // was asserted.
  scenario::Fig10Options opts;
  opts.seed = 1301;
  opts.assessor_host = 4;
  scenario::Fig10System rig(opts);
  rig.injector().inject_permanent_failure(
      3, sim::SimTime{0} + sim::milliseconds(300));
  rig.injector().inject_wearout(1, sim::SimTime{0} + sim::milliseconds(600),
                                sim::milliseconds(500), 0.7,
                                sim::milliseconds(10));
  rig.run(sim::seconds(5));
  const auto rows = rig.diag().report();
  auto asserted = [&](platform::ComponentId c, const std::string& ona) {
    const auto& onas = rows.at(c).asserted_onas;
    return std::find(onas.begin(), onas.end(), ona) != onas.end();
  };
  for (platform::ComponentId c : {0u, 2u, 4u}) {
    EXPECT_FALSE(asserted(c, "connector")) << "component " << c;
  }
  EXPECT_TRUE(asserted(1, "wearout"));
  EXPECT_TRUE(asserted(3, "permanent-silence"));
  EXPECT_EQ(rows.at(1).diagnosis.cls, fault::FaultClass::kComponentInternal);
  EXPECT_EQ(rows.at(3).diagnosis.cls, fault::FaultClass::kComponentInternal);
}

}  // namespace
}  // namespace decos::diag
