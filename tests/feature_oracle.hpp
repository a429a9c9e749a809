// Shared oracle for the one feature path: folded component features must
// equal those of a summary that never folded, read over the same store.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "diag/assessor.hpp"
#include "diag/summary.hpp"

namespace decos::diag::oracle {

/// Episodes, correlation verdicts and totals match exactly; alpha within
/// 1e-12 relative (folding decays the accumulator multiplicatively).
inline void expect_same_features(const ComponentFeatures& folded,
                                 const ComponentFeatures& unfolded,
                                 platform::ComponentId c, tta::RoundId now) {
  SCOPED_TRACE(::testing::Message() << "component " << c << " at round " << now);
  EXPECT_EQ(folded.sender_eps, unfolded.sender_eps);
  EXPECT_EQ(folded.observer_eps, unfolded.observer_eps);
  EXPECT_EQ(folded.observer_hit, unfolded.observer_hit);
  EXPECT_EQ(folded.totals, unfolded.totals);
  EXPECT_LE(std::abs(folded.alpha - unfolded.alpha),
            1e-12 * std::abs(unfolded.alpha))
      << folded.alpha << " vs " << unfolded.alpha;
}

/// Assessor `a`'s live (folded) features and verdict for every component
/// equal a fresh unfolded summary's over a.evidence(). Returns how many
/// components carry evidence, so callers can check the run was not idle.
inline std::size_t expect_folded_matches_unfolded(const Assessor& a,
                                                  std::uint32_t components) {
  const EvidenceSummary fresh(a.feature_params(), components,
                              a.classifier().layout());
  std::size_t with_evidence = 0;
  for (platform::ComponentId c = 0; c < components; ++c) {
    ComponentFeatures unfolded;
    fresh.component_features(a.evidence(), c, a.current_round(), unfolded);
    expect_same_features(a.component_features(c), unfolded, c,
                         a.current_round());
    const Diagnosis live = a.diagnose_component(c);
    const Diagnosis walked = a.classifier().classify_component(
        a.evidence(), c, a.current_round(), components);
    EXPECT_EQ(live.cls, walked.cls) << "component " << c;
    EXPECT_EQ(live.rationale, walked.rationale) << "component " << c;
    if (!unfolded.sender_eps.empty() || !unfolded.observer_eps.empty()) {
      ++with_evidence;
    }
  }
  return with_evidence;
}

}  // namespace decos::diag::oracle
