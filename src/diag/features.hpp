// Feature vocabulary of the three Fig. 8 dimensions, shared by the rule
// classifier and the declarative Out-of-Norm Assertion library. The
// component features are extracted in one place, diag/summary.hpp; this
// header holds the record they fill and the pure tests over it.
//
//   time  : symptomatic-round lists grouped into episodes; rate trends
//   space : credible-observer quorums (sender-side) vs sender spread
//           (observer-side); spatial correlation against the layout
//   value : dominant transport verdict; value-magnitude trends
#pragma once

#include <cstdint>
#include <vector>

#include "fault/injector.hpp"
#include "platform/types.hpp"

namespace decos::diag {

/// A contiguous run of symptomatic rounds.
struct Episode {
  tta::RoundId first = 0;
  tta::RoundId last = 0;
  std::uint32_t rounds = 0;  // symptomatic rounds inside [first, last]

  bool operator==(const Episode&) const = default;
};

/// Groups symptomatic rounds (ascending) into episodes separated by > gap.
[[nodiscard]] std::vector<Episode> episodes_of(
    const std::vector<tta::RoundId>& symptomatic_rounds, tta::RoundId gap);

/// Appends symptomatic round `r` (not below the last one) to `eps`: it
/// extends the last episode when within `gap` of it, else opens a new one.
void extend_episodes(std::vector<Episode>& eps, tta::RoundId r,
                     tta::RoundId gap);

/// Rounds of silence separating two episodes. Read by the summary, the
/// classifier and the ONA library alike.
inline constexpr tta::RoundId kEpisodeGap = 25;

/// The feature thresholds that vary between callers; every other one is a
/// constant next to its reader (summary.cpp, features.cpp). One set feeds
/// the summary, the rule classifier and every ONA.
struct FeatureParams {
  /// Senders an observer must flag in one round for a receive-path
  /// (observer-side) round; also the self-suspicion bar for credibility.
  /// 0 = auto (auto_sender_spread), resolved by EvidenceSummary. The bar
  /// must scale with cluster size — with a fixed
  /// bar of 2, two *concurrent* genuine sender faults would discredit
  /// every observer and blind the sender-side analysis entirely.
  std::uint32_t sender_spread = 0;
  /// Spatial distance within which correlated components count as
  /// proximate.
  double spatial_radius = 1.6;

  bool operator==(const FeatureParams&) const = default;
};

/// The auto sender_spread bar: max(2, 3/4 of the other components).
[[nodiscard]] std::uint32_t auto_sender_spread(std::uint32_t component_count);

/// Late-vs-early mean episode gap shrinks below the wearout ratio.
[[nodiscard]] bool rate_increasing(const std::vector<Episode>& eps);

/// Per-verdict totals over quorum rounds about a component.
struct VerdictTotals {
  std::uint64_t crc = 0;
  std::uint64_t timing = 0;
  std::uint64_t omission = 0;
  std::uint64_t quorum_rounds = 0;

  bool operator==(const VerdictTotals&) const = default;
};

/// The time/space/value features of one component FRU: the one record
/// the rule classifier and every Out-of-Norm Assertion read. Produced by
/// EvidenceSummary::component_features.
struct ComponentFeatures {
  /// Episodes of the rounds in which >= quorum *credible* observers
  /// reported the component as a faulty sender. An observer flagging
  /// >= sender_spread senders in the same round is self-suspect and does
  /// not count.
  std::vector<Episode> sender_eps;
  /// Episodes of the rounds in which the component itself reported
  /// >= sender_spread senders (its receive path is the common factor).
  std::vector<Episode> observer_eps;
  /// Per observer episode: coincides (within the correlation delta) with an
  /// observer round of a spatially proximate component.
  std::vector<bool> observer_hit;
  VerdictTotals totals;
  /// Alpha-count score (Bondavalli et al., the paper's §V-C
  /// discriminator) over the credible sender rounds at or before `now`:
  /// each contributes decay^(now - round). Rare uncorrelated transients
  /// decay away; an internal fault recurring at the same location keeps
  /// the score high.
  double alpha = 0.0;

  /// A *majority* of the observer episodes coincide with receive-path
  /// trouble at a proximate component. A vehicle with a bad connector
  /// also drives past the occasional interference zone, and one
  /// coincidence must not relabel the whole recurring connector history
  /// as EMI; a true massive transient correlates in (almost) every
  /// episode it produced.
  [[nodiscard]] bool observers_correlated() const {
    std::size_t hits = 0;
    for (const bool h : observer_hit) hits += h ? 1u : 0u;
    return 2 * hits > observer_eps.size();
  }
};

/// Bucket-mean drift test over a job's value-magnitude history: split into
/// four buckets; near-monotone growth with last >= 1.8 x first.
[[nodiscard]] bool magnitudes_drifting(const std::vector<double>& magnitudes);

// --- bit-level value-error features (Fig. 8's value dimension at bit
// granularity, computed over a fault::BitFaultLog slice) ---------------------

struct BitErrorFeatures {
  std::uint64_t flips = 0;   // logged flips attributed to the component
  std::uint64_t events = 0;  // distinct affected rounds
  /// Rounds between the first and last affected round, inclusive.
  tta::RoundId span_rounds = 0;
  /// Flip density: flips per affected round (shower/burst intensity).
  double flips_per_event = 0.0;
  /// Mean length of runs of *consecutive* affected rounds — an EMI window
  /// corrupts back-to-back rounds, wearout sprinkles isolated ones.
  double mean_burst_len = 0.0;
  /// Shannon entropy of the normalized bit positions (8 bins, in [0,1]).
  /// BER processes scatter uniformly (high); a stuck value-field flip
  /// concentrates (low).
  double position_entropy = 0.0;
  /// Flip rate in the late half of the span over the early half — the
  /// wearout discriminator (rising rate) against EMI's flat window.
  double late_early_rate_ratio = 0.0;
};

[[nodiscard]] BitErrorFeatures bit_error_features(const fault::BitFaultLog& log,
                                                  platform::ComponentId c);

/// The bit-level value-fault archetypes the features separate.
enum class BitArchetype : std::uint8_t {
  kNone = 0,
  kWearout,    // rising flip rate over many scattered episodes
  kEmiBurst,   // bounded dense window of consecutive corrupted rounds
  kSeuShower,  // a single-round (or near) shower
};
[[nodiscard]] const char* to_string(BitArchetype a);

/// Rule classifier over the bit features (thresholds documented inline).
[[nodiscard]] BitArchetype classify_bit_pattern(const BitErrorFeatures& f);

}  // namespace decos::diag
