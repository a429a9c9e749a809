// The evidence summary: the one extractor of component features.
//
// Every consumer of a component's time/space/value features — the rule
// classifier, each Out-of-Norm Assertion, the maintenance report — reads
// the ComponentFeatures record this class produces. Deriving them from
// the per-round detail of the evidence store is O(window) per FRU per
// read; the summary makes the steady-state cost independent of the window.
//
// It maintains a *fold horizon* h: rounds before h are folded once into
// per-component state (episodes, the spatial-correlation verdicts of
// closed observer episodes, verdict totals, the alpha accumulator valued
// at h) and never rescanned. A read merges the folded state with a walk
// over the short tail [h, now] — O(tail + episodes) instead of O(window).
// A summary that has folded nothing (h = 0) reads by walking the whole
// store, so a one-off classification of any store is the same code path.
//
// Correctness hinges on finality: a round is folded only once no future
// ingest can still mention it. The fold lag therefore exceeds the oldest
// observation the wire format can deliver (the symptom age field saturates
// at 255 rounds) plus the agents' largest resend backoff. Should an older
// observation arrive anyway — or the store prune detail the tail still
// needs — the summary marks itself dirty: reads walk the whole store until
// the next fold() rebuilds. Folded features equal the unfolded walk
// exactly for the integer-valued features (episodes, totals, correlation
// verdicts); the alpha accumulator folds multiplicatively and may differ
// from the unfolded sum in the last ulp.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "diag/evidence.hpp"
#include "diag/features.hpp"
#include "fault/injector.hpp"
#include "platform/types.hpp"

namespace decos::diag {

class EvidenceSummary {
 public:
  /// Rounds between the latest fold's `now` and the fold horizon.
  static constexpr tta::RoundId kFoldLag = 320;

  /// Resolves `fp` for `component_count` components: an auto
  /// sender_spread of 0 becomes auto_sender_spread(component_count). No
  /// other code resolves it.
  EvidenceSummary(FeatureParams fp, std::uint32_t component_count,
                  fault::SpatialLayout layout);

  /// The resolved feature parameters every read uses.
  [[nodiscard]] const FeatureParams& feature_params() const { return fp_; }
  /// First round not yet folded (0 = nothing folded).
  [[nodiscard]] tta::RoundId horizon() const { return horizon_; }
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }

  /// Ingest-side hook: an observation before the fold horizon violates the
  /// finality assumption and forces a rebuild.
  void note_ingest(const Symptom& s) {
    if (s.round < horizon_) dirty_ = true;
  }
  /// Prune-side hook (the store dropped detail before `cutoff`): dropping
  /// folded detail invalidates nothing, since folded state no longer reads
  /// it, but the tail walk needs every round from the horizon on.
  void note_prune(tta::RoundId cutoff) {
    if (cutoff > horizon_) dirty_ = true;
  }

  /// Advances the fold horizon to now - kFoldLag + 1 (rebuilding first if
  /// dirty). Call once per assessment round with the store the summary
  /// describes; amortised cost is O(1) per symptomatic round folded.
  void fold(const EvidenceStore& ev, tta::RoundId now);

  /// The features of component `c` at `now`: folded state merged with a
  /// walk of `ev` over [horizon, now]. `now` must not precede the latest
  /// fold's `now`.
  void component_features(const EvidenceStore& ev, platform::ComponentId c,
                          tta::RoundId now, ComponentFeatures& out) const;

 private:
  struct ComponentFold {
    /// Episodes and totals of the folded rounds; the last episode of each
    /// list may still be open (extendable by tail rounds). observer_hit
    /// holds the verdicts of the closed observer episodes only, and alpha
    /// is valued at the horizon.
    ComponentFeatures features;
    /// How many leading observer episodes are closed.
    std::size_t observer_closed = 0;
  };

  /// A walk's read position in one observer's detail.
  struct Cursor {
    const std::map<tta::RoundId, ObserverRound>* detail = nullptr;
    std::map<tta::RoundId, ObserverRound>::const_iterator at;
  };
  /// True when >= quorum credible observers reported the subject of `sr`
  /// in round `r`. A walk asks in ascending rounds: each observer's
  /// detail is merged through its cursor, not searched.
  [[nodiscard]] bool credible_round(const EvidenceStore& ev, tta::RoundId r,
                                    const SubjectRound& sr,
                                    std::vector<Cursor>& cursors) const;
  /// Whether observer episode `e` of `c` coincides with receive-path
  /// trouble at a spatially proximate component.
  [[nodiscard]] bool episode_correlated(const EvidenceStore& ev,
                                        platform::ComponentId c,
                                        const Episode& e) const;
  /// Adds rounds [from, to) of `c`'s detail to the episodes and totals of
  /// `out`, and each credible round r <= alpha_at to `alpha` as
  /// decay^(alpha_at - r).
  void walk(const EvidenceStore& ev, platform::ComponentId c,
            tta::RoundId from, tta::RoundId to, tta::RoundId alpha_at,
            ComponentFeatures& out, double& alpha) const;

  FeatureParams fp_{};
  std::uint32_t component_count_ = 0;
  fault::SpatialLayout layout_{};
  tta::RoundId horizon_ = 0;
  bool dirty_ = false;
  std::uint64_t rebuilds_ = 0;
  /// Empty until the first fold.
  std::vector<ComponentFold> folds_;
};

}  // namespace decos::diag
