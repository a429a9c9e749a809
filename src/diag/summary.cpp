#include "diag/summary.hpp"

#include <cmath>
#include <limits>

namespace decos::diag {
namespace {

/// Distinct credible observers required before the *sender* is the
/// suspect side.
constexpr std::uint32_t kObserverQuorum = 2;
/// Rounds of tolerance when matching episodes across components.
constexpr tta::RoundId kCorrelationDelta = 10;
/// Per-round decay of the alpha-count score.
constexpr double kAlphaDecay = 0.999;

// A closed episode's correlation window must end before the next episode
// can start, so its verdict is final at close time and can be folded.
static_assert(kCorrelationDelta < kEpisodeGap);

}  // namespace

EvidenceSummary::EvidenceSummary(FeatureParams fp,
                                 std::uint32_t component_count,
                                 fault::SpatialLayout layout)
    : fp_(fp), component_count_(component_count), layout_(std::move(layout)) {
  if (fp_.sender_spread == 0) {
    fp_.sender_spread = auto_sender_spread(component_count);
  }
}

bool EvidenceSummary::credible_round(const EvidenceStore& ev, tta::RoundId r,
                                     const SubjectRound& sr,
                                     std::vector<Cursor>& cursors) const {
  std::uint32_t credible = 0;
  for (platform::ComponentId o : sr.observers) {
    if (o >= cursors.size()) cursors.resize(o + 1);
    Cursor& cur = cursors[o];
    if (!cur.detail) {
      cur.detail = &ev.reported_by(o);
      cur.at = cur.detail->lower_bound(r);
    }
    while (cur.at != cur.detail->end() && cur.at->first < r) ++cur.at;
    const bool hit = cur.at != cur.detail->end() && cur.at->first == r;
    if (!hit || cur.at->second.senders_reported.size() < fp_.sender_spread) {
      ++credible;
    }
  }
  return credible >= kObserverQuorum;
}

bool EvidenceSummary::episode_correlated(const EvidenceStore& ev,
                                         platform::ComponentId c,
                                         const Episode& e) const {
  for (platform::ComponentId o = 0; o < component_count_; ++o) {
    if (o == c) continue;
    if (std::abs(layout_.position.at(o) - layout_.position.at(c)) >
        fp_.spatial_radius) {
      continue;
    }
    const auto& reported = ev.reported_by(o);
    auto it = reported.lower_bound(
        e.first > kCorrelationDelta ? e.first - kCorrelationDelta : 0);
    for (; it != reported.end() && it->first <= e.last + kCorrelationDelta;
         ++it) {
      if (it->second.senders_reported.size() >= fp_.sender_spread) return true;
    }
  }
  return false;
}

void EvidenceSummary::walk(const EvidenceStore& ev, platform::ComponentId c,
                           tta::RoundId from, tta::RoundId to,
                           tta::RoundId alpha_at, ComponentFeatures& out,
                           double& alpha) const {
  // Sender side: credible rounds, verdict totals and the alpha
  // accumulator advance together over one walk of the subject detail.
  const auto& about = ev.about(c);
  std::vector<Cursor> cursors;
  for (auto it = about.lower_bound(from); it != about.end() && it->first < to;
       ++it) {
    const tta::RoundId r = it->first;
    const SubjectRound& sr = it->second;
    if (sr.observers.size() >= kObserverQuorum) {
      ++out.totals.quorum_rounds;
      out.totals.crc += sr.crc;
      out.totals.timing += sr.timing;
      out.totals.omission += sr.omission;
    }
    if (!credible_round(ev, r, sr, cursors)) continue;
    if (r <= alpha_at) {
      alpha += std::pow(kAlphaDecay, static_cast<double>(alpha_at - r));
    }
    extend_episodes(out.sender_eps, r, kEpisodeGap);
  }

  // Observer side.
  const auto& reported = ev.reported_by(c);
  for (auto it = reported.lower_bound(from);
       it != reported.end() && it->first < to; ++it) {
    if (it->second.senders_reported.size() >= fp_.sender_spread) {
      extend_episodes(out.observer_eps, it->first, kEpisodeGap);
    }
  }
}

void EvidenceSummary::fold(const EvidenceStore& ev, tta::RoundId now) {
  if (dirty_) {
    folds_.clear();
    horizon_ = 0;
    dirty_ = false;
    ++rebuilds_;
  }
  const tta::RoundId to = now > kFoldLag ? now - kFoldLag + 1 : 0;
  if (to <= horizon_) return;
  if (folds_.empty()) folds_.resize(component_count_);
  for (platform::ComponentId c = 0; c < component_count_; ++c) {
    ComponentFold& f = folds_[c];
    ComponentFeatures& acc = f.features;
    double tail_alpha = 0.0;
    walk(ev, c, horizon_, to, to, acc, tail_alpha);
    acc.alpha =
        acc.alpha * std::pow(kAlphaDecay, static_cast<double>(to - horizon_)) +
        tail_alpha;
    // Close every observer episode no round from `to` on can extend, and
    // freeze its correlation verdict: its window ends before `to`, so the
    // data it reads is final.
    while (f.observer_closed < acc.observer_eps.size() &&
           acc.observer_eps[f.observer_closed].last + kEpisodeGap < to) {
      acc.observer_hit.push_back(
          episode_correlated(ev, c, acc.observer_eps[f.observer_closed]));
      ++f.observer_closed;
    }
  }
  horizon_ = to;
}

void EvidenceSummary::component_features(const EvidenceStore& ev,
                                         platform::ComponentId c,
                                         tta::RoundId now,
                                         ComponentFeatures& out) const {
  static const ComponentFold kUnfolded{};
  const bool folded = !dirty_ && !folds_.empty();
  const ComponentFold& f = folded ? folds_[c] : kUnfolded;
  const tta::RoundId from = folded ? horizon_ : 0;
  out = f.features;
  out.alpha =
      f.features.alpha * std::pow(kAlphaDecay, static_cast<double>(now - from));
  // The folded lists end in (at most one) open episode each, which the
  // tail rounds extend exactly as an unfolded walk would.
  walk(ev, c, from, std::numeric_limits<tta::RoundId>::max(), now, out,
       out.alpha);
  // Correlation verdicts: frozen for closed episodes, judged live for the
  // open and tail ones, whose windows still move.
  for (std::size_t i = f.observer_closed; i < out.observer_eps.size(); ++i) {
    out.observer_hit.push_back(episode_correlated(ev, c, out.observer_eps[i]));
  }
}

}  // namespace decos::diag
