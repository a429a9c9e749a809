// Direct unit tests of the feature extraction shared by the classifier
// and the ONA library: credibility filtering, verdict totals, spatial
// correlation geometry, drift-bucket tests, and the alpha score. The
// component features are read through an EvidenceSummary that has folded
// nothing — the path every one-off classification takes.
#include <gtest/gtest.h>

#include <cmath>

#include "diag/features.hpp"
#include "diag/summary.hpp"

namespace decos::diag {
namespace {

Symptom transport(tta::RoundId round, SymptomType type,
                  platform::ComponentId obs, platform::ComponentId subj) {
  Symptom s;
  s.round = round;
  s.type = type;
  s.observer = obs;
  s.subject_component = subj;
  s.magnitude = 1.0;
  return s;
}

ComponentFeatures features_of(const EvidenceStore& ev, platform::ComponentId c,
                              const FeatureParams& p, tta::RoundId now = 0) {
  ComponentFeatures f;
  EvidenceSummary(p, 5, fault::SpatialLayout::linear(5))
      .component_features(ev, c, now, f);
  return f;
}

// --- credibility filter -----------------------------------------------------------

TEST(Features, SelfSuspectObserverDoesNotCountTowardQuorum) {
  EvidenceStore ev;
  // Observer 1 reports subjects 0 and 2 in round 10 (spread 2 >= bar) —
  // self-suspect; observer 3 reports only subject 0 — credible.
  ev.ingest(transport(10, SymptomType::kSlotCrcError, 1, 0));
  ev.ingest(transport(10, SymptomType::kSlotCrcError, 1, 2));
  ev.ingest(transport(10, SymptomType::kSlotCrcError, 3, 0));
  FeatureParams p;
  p.sender_spread = 2;
  // Subject 0 has observers {1 (suspect), 3 (credible)}: 1 credible < 2.
  EXPECT_TRUE(features_of(ev, 0, p).sender_eps.empty());
  // Add a second credible observer.
  ev.ingest(transport(10, SymptomType::kSlotCrcError, 4, 0));
  const auto eps = features_of(ev, 0, p).sender_eps;
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].rounds, 1u);
}

TEST(Features, ObserverRoundsNeedSpread) {
  EvidenceStore ev;
  ev.ingest(transport(5, SymptomType::kSlotOmission, 2, 0));
  FeatureParams p;
  p.sender_spread = 2;
  EXPECT_TRUE(features_of(ev, 2, p).observer_eps.empty());  // one sender
  ev.ingest(transport(5, SymptomType::kSlotOmission, 2, 1));
  const auto eps = features_of(ev, 2, p).observer_eps;
  ASSERT_EQ(eps.size(), 1u);
  EXPECT_EQ(eps[0].rounds, 1u);
}

// --- verdict totals -----------------------------------------------------------------

TEST(Features, VerdictTotalsCountOnlyQuorumRounds) {
  EvidenceStore ev;
  // Round 1: two observers (quorum met). Round 2: one observer only.
  ev.ingest(transport(1, SymptomType::kSlotCrcError, 1, 0));
  ev.ingest(transport(1, SymptomType::kSlotOmission, 2, 0));
  ev.ingest(transport(2, SymptomType::kSlotTimingError, 1, 0));
  FeatureParams p;
  const auto vt = features_of(ev, 0, p).totals;
  EXPECT_EQ(vt.quorum_rounds, 1u);
  EXPECT_EQ(vt.crc, 1u);
  EXPECT_EQ(vt.omission, 1u);
  EXPECT_EQ(vt.timing, 0u);  // round 2 below quorum
}

// --- spatial correlation geometry ----------------------------------------------------

TEST(Features, SpatialCorrelationRespectsRadiusAndDelta) {
  FeatureParams p;
  p.sender_spread = 2;
  p.spatial_radius = 1.5;

  auto make_ev = [&](platform::ComponentId other, tta::RoundId other_round) {
    EvidenceStore ev;
    // Component 1 has an observer episode at rounds 100-102.
    for (tta::RoundId r = 100; r <= 102; ++r) {
      ev.ingest(transport(r, SymptomType::kSlotCrcError, 1, 0));
      ev.ingest(transport(r, SymptomType::kSlotCrcError, 1, 3));
    }
    // `other` has observer activity at `other_round`.
    ev.ingest(transport(other_round, SymptomType::kSlotCrcError, other, 0));
    ev.ingest(transport(other_round, SymptomType::kSlotCrcError, other, 3));
    return ev;
  };

  // Neighbour (distance 1) within the correlation delta of 10: correlated.
  {
    const auto ev = make_ev(2, 104);
    EXPECT_TRUE(features_of(ev, 1, p).observers_correlated());
  }
  // Neighbour but far in time: not correlated.
  {
    const auto ev = make_ev(2, 300);
    EXPECT_FALSE(features_of(ev, 1, p).observers_correlated());
  }
  // Coincident in time but spatially remote (distance 3): not correlated.
  {
    const auto ev = make_ev(4, 101);
    EXPECT_FALSE(features_of(ev, 1, p).observers_correlated());
  }
}

// --- drift buckets ---------------------------------------------------------------------

TEST(Features, DriftNeedsMonotoneGrowth) {
  // Clean growth: drifting.
  std::vector<double> rising;
  for (int i = 0; i < 16; ++i) rising.push_back(1.0 + 0.3 * i);
  EXPECT_TRUE(magnitudes_drifting(rising));

  // Flat: not drifting.
  std::vector<double> flat(16, 5.0);
  EXPECT_FALSE(magnitudes_drifting(flat));

  // Declining: not drifting.
  std::vector<double> falling;
  for (int i = 0; i < 16; ++i) falling.push_back(10.0 - 0.5 * i);
  EXPECT_FALSE(magnitudes_drifting(falling));

  // Too short: undecidable.
  EXPECT_FALSE(magnitudes_drifting({1, 2, 3, 4, 5, 6, 7}));

  // Growth modulated by oscillation (the sine-sensor case): still drifts.
  std::vector<double> wavy;
  for (int i = 0; i < 24; ++i) {
    wavy.push_back(1.0 + 0.4 * i + 0.8 * std::sin(i * 1.3));
  }
  EXPECT_TRUE(magnitudes_drifting(wavy));
}

// --- alpha score ----------------------------------------------------------------------

TEST(Features, AlphaScoreDecaysAndAccumulates) {
  FeatureParams p;
  EvidenceStore ev;
  // One old symptomatic round: nearly fully decayed after 5000 rounds.
  ev.ingest(transport(100, SymptomType::kSlotCrcError, 1, 0));
  ev.ingest(transport(100, SymptomType::kSlotCrcError, 2, 0));
  EXPECT_LT(features_of(ev, 0, p, 5100).alpha, 0.01);

  // A dense recent run accumulates toward its length.
  for (tta::RoundId r = 5000; r < 5050; ++r) {
    ev.ingest(transport(r, SymptomType::kSlotCrcError, 1, 0));
    ev.ingest(transport(r, SymptomType::kSlotCrcError, 2, 0));
  }
  const double a = features_of(ev, 0, p, 5050).alpha;
  EXPECT_GT(a, 45.0);
  EXPECT_LT(a, 51.0);
}

TEST(Features, AlphaScoreIgnoresFutureRounds) {
  FeatureParams p;
  EvidenceStore ev;
  ev.ingest(transport(200, SymptomType::kSlotCrcError, 1, 0));
  ev.ingest(transport(200, SymptomType::kSlotCrcError, 2, 0));
  EXPECT_DOUBLE_EQ(features_of(ev, 0, p, 100).alpha, 0.0);
  // The round of `now` itself counts with weight decay^0.
  EXPECT_DOUBLE_EQ(features_of(ev, 0, p, 200).alpha, 1.0);
}

}  // namespace
}  // namespace decos::diag
