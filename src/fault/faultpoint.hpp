// Fault-point registry: named, counted injection sites on the fragile
// edges of the diagnostic/maintenance path.
//
// The chaos campaign samples fault schedules randomly; this registry is
// the substrate for enumerating them exhaustively instead. Every fragile
// edge — a heartbeat leaving an agent, a symptom entering the resend
// buffer, a tester-set recomputation, a repair-verification window
// boundary — is instrumented with a hit() call naming its site. A run
// then executes in one of three modes:
//
//   kOff       every hit() is a single-branch no-op (the default; rigs
//              that never bind a registry pay one null-pointer test);
//   kCounting  hits are tallied per site and nothing ever fires — one
//              counting run enumerates the reachable (site, occurrence)
//              space of a deterministic execution;
//   kArmed     exactly one (site, occurrence) pair fires: the Nth reach
//              of the armed site returns true once and the caller
//              applies the site's adverse perturbation (drop the
//              heartbeat, skip the resend push, defer the recompute...).
//
// Because the simulator is deterministic, the armed run is bit-identical
// to the counting run up to the firing instant, so every point the
// discovery run counted is guaranteed to be reached when armed — the
// skip-range idiom of Vector-Hate- (SNIPPETS.md §1) ported onto named
// sites. The scenario/sweep driver turns this into exhaustive one-
// fault-per-run sweeps with one-line replay tokens ("site:occurrence").
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace decos::fault {

/// The instrumented edges. Order is the enumeration order of the sweep
/// manifest; append new sites at the end so replay tokens stay stable.
enum class FaultSite : std::uint8_t {
  kHeartbeatSend = 0,   // agent heartbeat lost at the send instant
  kHeartbeatReceive,    // heartbeat dropped at the assessor inbox
  kResendPush,          // symptom never enters the resend buffer
  kStalenessExpiry,     // staleness watchdog misses an expiry tick
  kRepairSettle,        // post-repair settle glitch: trust reset lost
  kRepairVerify,        // verification deferred one more window
  kSpareAlloc,          // pulled spare is dead-on-arrival
  kDiagDeliver,         // one diagnostic-vnet delivery dropped
  kDissemForward,       // forwarded verdict delta dropped at the cube edge
  kStaleVerdict,        // delta delivered with a stale event timestamp
  kTesterReassign,      // topology recompute lags the membership change
  kBitSamplerSpurious,  // BER sampler fires a flip it should not have
  kCopyOnCorruptSkip,   // pending bit flips silently not applied
  kFramePoolExhausted,  // corrupt-copy slot denied, delivery dropped
};
inline constexpr int kFaultSiteCount = 14;

[[nodiscard]] const char* to_string(FaultSite s);
[[nodiscard]] std::optional<FaultSite> site_from_string(std::string_view name);

/// One point of the enumerable fault space: the `occurrence`-th reach
/// (0-based) of `site` within a deterministic run.
struct FaultPoint {
  FaultSite site = FaultSite::kHeartbeatSend;
  std::uint64_t occurrence = 0;

  [[nodiscard]] bool operator==(const FaultPoint&) const = default;
  /// The one-line replay token, "site:occurrence".
  [[nodiscard]] std::string token() const;
};

/// Parses "site:occurrence" (e.g. "heartbeat-send:17"). Rejects unknown
/// site names, missing/extra fields and non-numeric occurrences.
[[nodiscard]] std::optional<FaultPoint> parse_fault_point(
    std::string_view token);

class FaultPointRegistry {
 public:
  enum class Mode : std::uint8_t { kOff, kCounting, kArmed };

  /// Switches to counting mode (tally reaches, never fire).
  void count() { mode_ = Mode::kCounting; }

  /// Arms exactly one point: the `point.occurrence`-th reach of
  /// `point.site` fires. Implies counting (the tallies stay valid).
  void arm(FaultPoint point) {
    mode_ = Mode::kArmed;
    armed_ = point;
  }

  [[nodiscard]] Mode mode() const { return mode_; }

  /// The instrumentation hook. Returns true exactly when the armed point
  /// is reached — the caller then applies the site's perturbation. In
  /// kOff mode this is a single branch with no side effects, so unarmed
  /// rigs pay nothing for being instrumented.
  [[nodiscard]] bool hit(FaultSite site) {
    if (mode_ == Mode::kOff) return false;
    const std::uint64_t occurrence = counts_[static_cast<std::size_t>(site)]++;
    if (mode_ != Mode::kArmed || fired_) return false;
    if (site != armed_.site || occurrence != armed_.occurrence) return false;
    fired_ = true;
    return true;
  }

  /// Reaches per site so far (the discovery manifest's raw counts).
  [[nodiscard]] std::uint64_t reached(FaultSite site) const {
    return counts_[static_cast<std::size_t>(site)];
  }
  [[nodiscard]] std::uint64_t total_reached() const {
    std::uint64_t t = 0;
    for (const std::uint64_t c : counts_) t += c;
    return t;
  }

  /// Whether the armed point fired. Never set in counting mode; set at
  /// most once per run by construction.
  [[nodiscard]] bool fired() const { return fired_; }
  [[nodiscard]] const FaultPoint& armed() const { return armed_; }

 private:
  Mode mode_ = Mode::kOff;
  FaultPoint armed_{};
  bool fired_ = false;
  std::array<std::uint64_t, kFaultSiteCount> counts_{};
};

}  // namespace decos::fault
