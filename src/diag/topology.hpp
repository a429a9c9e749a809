// VCube-style diagnostic overlay topology (Duarte et al., PAPERS.md).
//
// The diagnostic service organises its assessor hosts as a virtual
// hypercube. Each FRU (keyed by its hosting component) is
// monitored by a *logarithmic* tester set instead of by every assessor:
// its home position h(c) = c mod A, plus the first fault-free member of
// each VCube cluster c(h, s) for s = 1..d, where d = ceil(log2 A). The
// clusters partition the non-home positions, so a FRU is orphaned only
// when every position is dead — diagnosis survives k < d+1 assessor
// deaths by construction, with no promotion protocol.
//
// The topology is a pure function of (host list, liveness vector): every
// node that feeds the same membership view into update() computes the
// same cube, the same tester sets and the same responsible tester — no
// agreement rounds needed. Assessors recompute locally on membership
// change; the tester-reassignment fault site models one side lagging a
// recompute behind the other.
//
// Positions beyond the real host count (non-power-of-two cubes) are
// treated as permanently dead virtual nodes: the first-fault-free walk
// skips them exactly like crashed hosts.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "platform/types.hpp"

namespace decos::diag {

class HierarchyTopology {
 public:
  /// Index into the assessor host list (primary = 0). Doubles as the
  /// hypercube address.
  using Position = std::uint32_t;

  HierarchyTopology() = default;

  /// `hosts[i]` is the component hosting the assessor at position i, in
  /// the service's host order. All positions start alive.
  HierarchyTopology(std::vector<platform::ComponentId> hosts,
                    std::uint32_t component_count);

  /// Recomputes tester sets and cube edges from the per-position liveness
  /// vector. Returns true when the view actually changed (and a recompute
  /// happened); identical views are a no-op, so callers can feed their
  /// membership view in every round.
  bool update(const std::vector<bool>& alive);

  /// True when `alive` differs from the current view (update would
  /// recompute). Lets the tester-reassignment fault site defer the
  /// recompute without mutating state.
  [[nodiscard]] bool would_change(const std::vector<bool>& alive) const {
    return alive != alive_;
  }

  [[nodiscard]] std::uint32_t positions() const {
    return static_cast<std::uint32_t>(hosts_.size());
  }
  /// Cube dimension d = ceil(log2 positions); 0 for a single position.
  [[nodiscard]] std::uint32_t dimension() const { return dim_; }
  [[nodiscard]] platform::ComponentId host(Position p) const {
    return hosts_.at(p);
  }
  [[nodiscard]] std::optional<Position> position_of(
      platform::ComponentId host) const;
  [[nodiscard]] bool alive(Position p) const {
    return p < alive_.size() && alive_[p];
  }
  [[nodiscard]] std::uint64_t recomputes() const { return recomputes_; }

  /// Home position of the FRUs hosted on component `c`.
  [[nodiscard]] Position home(platform::ComponentId c) const {
    return c % positions();
  }

  /// Tester set of component `c`'s FRUs, in priority order: the home
  /// position first (if alive), then the first alive member of each
  /// cluster c(home, s), s = 1..d. Empty only when every position is dead.
  [[nodiscard]] const std::vector<Position>& testers(
      platform::ComponentId c) const {
    return testers_.at(c);
  }
  [[nodiscard]] bool is_tester(Position p, platform::ComponentId c) const {
    return p < 64 && ((tester_masks_.at(c) >> p) & 1u) != 0;
  }
  /// The composing tester of `c` (first in priority order); nullopt when
  /// every position is dead.
  [[nodiscard]] std::optional<Position> responsible(
      platform::ComponentId c) const {
    const auto& t = testers_.at(c);
    if (t.empty()) return std::nullopt;
    return t.front();
  }

  /// Alive hypercube neighbours of `p` ({p xor 2^s} for s < d); empty when
  /// `p` itself is dead.
  [[nodiscard]] const std::vector<Position>& neighbors(Position p) const {
    return neighbors_.at(p);
  }
  /// Whether `a` and `b` share a cube edge and both ends are alive — the
  /// acceptance test for disseminated verdict deltas.
  [[nodiscard]] bool are_neighbors(Position a, Position b) const;

 private:
  void recompute();
  /// First alive member of cluster c(i, s), walking the VCube order
  /// (i xor 2^(s-1), then its sub-clusters). Returns nullopt when the
  /// whole cluster is dead.
  [[nodiscard]] std::optional<Position> first_alive_in_cluster(
      Position i, std::uint32_t s) const;

  std::vector<platform::ComponentId> hosts_;
  std::uint32_t component_count_ = 0;
  std::uint32_t dim_ = 0;
  std::vector<bool> alive_;
  std::vector<std::vector<Position>> testers_;    // per component
  std::vector<std::uint64_t> tester_masks_;       // per component, bit = position
  std::vector<std::vector<Position>> neighbors_;  // per position
  std::uint64_t recomputes_ = 0;
};

}  // namespace decos::diag
