#include "diag/assessor.hpp"

#include <algorithm>
#include <bit>
#include <string>

namespace decos::diag {
namespace {

/// Trust of a fresh (or freshly repaired) FRU.
constexpr double kInitialTrust = 1.0;
/// Trust recovery per healthy assessment round.
constexpr double kTrustRecovery = 0.001;
/// Trust below which the FRU counts as *suspected* — the detection instant
/// of the detection-latency metric (injection -> first trust violation).
/// Above the report threshold on purpose: suspicion is the early signal,
/// the report threshold drives maintenance decisions.
constexpr double kViolationThreshold = 0.9;
static_assert(kViolationThreshold > TrustParams::report_threshold);
/// Trajectory sampling period in rounds (Fig. 9 resolution).
constexpr tta::RoundId kSamplePeriod = 50;
/// Rounds of agent silence before the FRU's evidence counts stale (covers
/// several agent heartbeat periods).
constexpr tta::RoundId kStaleAfter = 32;
/// Observation-key dedupe horizon in rounds (exceeds the agents' largest
/// resend backoff).
constexpr tta::RoundId kDedupeWindow = 512;
/// Hierarchy mode: rounds between periodic re-emissions of a still-standing
/// verdict delta (edge-triggered emissions happen at the violation instant
/// regardless).
constexpr tta::RoundId kDeltaRefreshPeriod = 16;
/// Hierarchy mode: verdict deltas handed to the dissemination port per
/// assessment round (own emissions + forwards; leftovers queue).
constexpr std::size_t kDissemBudget = 16;

}  // namespace

Assessor::Assessor(Params p, fault::SpatialLayout layout,
                   std::uint32_t component_count, std::uint32_t /*job_count*/)
    : p_(p),
      classifier_(p.classifier, std::move(layout)),
      store_(Params::evidence),
      component_count_(component_count),
      component_trust_(component_count, kInitialTrust),
      component_trajectories_(component_count),
      was_stale_(component_count, false),
      channels_(component_count),
      component_hits_(component_count, 0),
      mask_words_((component_count + 63) / 64),
      summary_(p.classifier, component_count, classifier_.layout()) {
  if (mask_words_ == 0) mask_words_ = 1;
  transport_masks_.assign(component_count_ * mask_words_, 0);
}

void Assessor::enable_hierarchy(HierarchyTopology topology,
                                std::uint32_t position,
                                platform::PortId dissem_port) {
  topo_ = std::move(topology);
  position_ = position;
  dissem_port_ = dissem_port;
  comp_delta_active_.assign(component_count_, false);
}

void Assessor::register_peer(platform::JobId assessor_job,
                             std::uint32_t position) {
  peer_position_[assessor_job] = position;
}

void Assessor::refresh_topology(const std::vector<bool>& alive) {
  if (!topo_) return;
  if (!topo_->would_change(alive)) return;
  if (fp_ && fp_->hit(fault::FaultSite::kTesterReassign)) {
    // The recompute lags the membership change by one assessment round:
    // this side keeps routing/accepting on the stale tester sets while
    // its peers have already moved — the reassignment race the E20
    // oracle must show convergence under.
    return;
  }
  topo_->update(alive);
}

void Assessor::bind_hierarchy_metrics(obs::Registry& registry) {
  hier_accepted_metric_ = registry.counter("diag.hierarchy.symptoms_accepted");
  hier_filtered_metric_ = registry.counter("diag.hierarchy.symptoms_filtered");
  hier_emitted_metric_ = registry.counter("diag.hierarchy.deltas_emitted");
  hier_forwarded_metric_ = registry.counter("diag.hierarchy.deltas_forwarded");
  hier_delta_accepted_metric_ =
      registry.counter("diag.hierarchy.deltas_accepted");
  hier_duplicate_metric_ = registry.counter("diag.hierarchy.deltas_duplicate");
  hier_rejected_metric_ = registry.counter("diag.hierarchy.deltas_rejected");
}

void Assessor::register_agent(platform::JobId agent_job,
                              platform::ComponentId component) {
  agent_component_[agent_job] = component;
}

void Assessor::register_subject_job(platform::JobId job,
                                    platform::ComponentId host) {
  jobs_by_host_[host].push_back(job);
  job_host_[job] = host;
  job_trust_.emplace(job, kInitialTrust);
  if (job >= job_hits_.size()) job_hits_.resize(job + 1, 0);
}

void Assessor::bind_metrics(obs::Registry& registry) {
  symptoms_metric_ = registry.counter("diag.symptoms_ingested");
  violations_metric_ = registry.counter("diag.trust_violations");
  gaps_metric_ = registry.counter("diag.assessor.symptom_gaps");
  duplicates_metric_ = registry.counter("diag.assessor.duplicates_dropped");
  agent_drops_metric_ = registry.counter("diag.assessor.agent_drops_reported");
}

obs::ProvenanceId Assessor::journey_for(const Symptom& s) const {
  if (!prov_ || !prov_->enabled()) return obs::kNoJourney;
  obs::ProvenanceId j = obs::kNoJourney;
  if (s.subject_job.has_value()) j = prov_->journey_for_job(*s.subject_job);
  if (j == obs::kNoJourney) {
    j = prov_->journey_for_component(s.subject_component);
  }
  return j;
}

void Assessor::note_component_trust(platform::ComponentId c) {
  if (component_trust_[c] < kViolationThreshold &&
      !component_violation_round_.contains(c)) {
    component_violation_round_[c] = round_;
    violations_metric_.inc();
    if (prov_ && prov_->enabled()) {
      prov_->event(prov_->journey_for_component(c), obs::ProvStage::kVerdict,
                   "assessor", "trust-violation", round_);
    }
  }
}

void Assessor::note_job_trust(platform::JobId j) {
  if (job_trust_.at(j) < kViolationThreshold &&
      !job_violation_round_.contains(j)) {
    job_violation_round_[j] = round_;
    violations_metric_.inc();
    if (prov_ && prov_->enabled()) {
      prov_->event(prov_->journey_for_job(j), obs::ProvStage::kVerdict,
                   "assessor", "trust-violation", round_);
    }
  }
}

std::optional<tta::RoundId> Assessor::first_component_violation(
    platform::ComponentId c) const {
  auto it = component_violation_round_.find(c);
  if (it == component_violation_round_.end()) return std::nullopt;
  return it->second;
}

std::optional<tta::RoundId> Assessor::first_job_violation(
    platform::JobId j) const {
  auto it = job_violation_round_.find(j);
  if (it == job_violation_round_.end()) return std::nullopt;
  return it->second;
}

tta::RoundId Assessor::evidence_age(platform::ComponentId c) const {
  const AgentChannel& ch = channels_.at(c);
  return round_ > ch.last_heard ? round_ - ch.last_heard : 0;
}

double Assessor::evidence_quality(platform::ComponentId c) const {
  if (!p_.hardening) return 1.0;
  const tta::RoundId age = evidence_age(c);
  if (age <= kStaleAfter) return 1.0;
  // Linear decay after the staleness threshold; floor at 0 once silence
  // reaches five thresholds.
  const double excess = static_cast<double>(age - kStaleAfter);
  return std::max(0.0, 1.0 - excess / static_cast<double>(4 * kStaleAfter));
}

bool Assessor::evidence_fresh(platform::ComponentId c) const {
  return !p_.hardening || evidence_age(c) <= kStaleAfter;
}

double Assessor::job_evidence_quality(platform::JobId j) const {
  return evidence_quality(host_of(j));
}

void Assessor::track_channel(platform::ComponentId agent,
                             const vnet::Message& m) {
  AgentChannel& ch = channels_[agent];
  ch.last_heard = std::max(ch.last_heard, round_);
  // The multiplexer assigns contiguous per-port sequence numbers to every
  // accepted message, so a jump on the symptom port is exactly the number
  // of diagnostic messages the channel lost in flight.
  if (!ch.seq_seen) {
    ch.seq_seen = true;
    ch.next_seq = m.seq + 1;
    return;
  }
  if (m.seq > ch.next_seq) {
    const std::uint32_t lost = m.seq - ch.next_seq;
    gaps_ += lost;
    gaps_metric_.inc(lost);
  }
  if (m.seq + 1 > ch.next_seq) ch.next_seq = m.seq + 1;
}

bool Assessor::dedupe_accept(const Symptom& s) {
  const DedupKey key{s.observer, s.type, s.subject_component,
                     s.subject_job.value_or(platform::kInvalidJob), s.round};
  return seen_.insert(key).second;
}

void Assessor::ingest_external(const Symptom& s) {
  if (hierarchical() && !topo_->is_tester(position_, s.subject_component)) {
    // Guardian-block reports follow the same implicit addressing as the
    // wire stream: only the subject's testers account them.
    ++hier_.symptoms_filtered;
    hier_filtered_metric_.inc();
    return;
  }
  if (recorder_) recorder_->record(s);
  store_.ingest(s);
  summary_.note_ingest(s);
  symptoms_metric_.inc();
  if (prov_ && prov_->enabled()) {
    prov_->event(journey_for(s), obs::ProvStage::kEvidence, "assessor",
                 to_string(s.type), s.round);
  }
  if (s.subject_component < component_trust_.size()) {
    component_trust_[s.subject_component] = std::max(
        0.0, component_trust_[s.subject_component] - p_.trust.drop);
    note_component_trust(s.subject_component);
  }
}

void Assessor::process(platform::JobContext& ctx) {
  round_ = ctx.round();

  // Which FRUs were implicated by symptoms ingested this dispatch.
  // Member scratch, reset here: the steady-state dispatch allocates
  // nothing (the trust-update loops below walk every FRU anyway, so the
  // O(N) reset costs no extra asymptotic work).
  std::fill(component_hits_.begin(), component_hits_.end(), 0u);
  std::fill(job_hits_.begin(), job_hits_.end(), 0u);
  std::fill(transport_masks_.begin(), transport_masks_.end(), 0u);

  for (const vnet::Message& m : ctx.inbox()) {
    auto agent_it = agent_component_.find(m.sender);
    if (agent_it == agent_component_.end()) {
      // Not a known agent: in hierarchy mode this is where verdict
      // deltas from peer assessors arrive on the dissemination vnet.
      if (hierarchical()) handle_delta(m);
      continue;
    }
    const platform::ComponentId agent = agent_it->second;
    if (const auto hb = decode_heartbeat(m)) {
      if (hierarchical() && !topo_->is_tester(position_, agent)) {
        // Implicit addressing: the overlay's routing is enforced at the
        // receiver — a tester keeps channel state only for its slice.
        ++hier_.symptoms_filtered;
        hier_filtered_metric_.inc();
        continue;
      }
      if (fp_ && fp_->hit(fault::FaultSite::kHeartbeatReceive)) {
        // Heartbeat dropped at the inbox: neither liveness nor the wire
        // sequence advances, so the loss surfaces later as staleness plus
        // a sequence gap — exactly like a frame lost in flight.
        continue;
      }
      if (hierarchical()) {
        ++hier_.symptoms_accepted;
        hier_accepted_metric_.inc();
      }
      if (p_.hardening) track_channel(agent, m);
      ++heartbeats_;
      AgentChannel& ch = channels_[agent];
      ch.reported_detected = hb->symptoms_detected;
      ++ch.heartbeats;
      if (hb->symptoms_dropped > ch.reported_dropped) {
        const std::uint32_t delta = hb->symptoms_dropped - ch.reported_dropped;
        agent_drops_ += delta;
        agent_drops_metric_.inc(delta);
        ch.reported_dropped = hb->symptoms_dropped;
      }
      continue;
    }
    if (p_.hardening && !hierarchical()) track_channel(agent, m);
    const auto symptom = decode(m, agent);
    if (!symptom) continue;
    if (hierarchical()) {
      // The routing key is the subject component (job symptoms carry
      // their host there), so every tester of a FRU sees the identical
      // evidence stream about it — and nothing else.
      if (!topo_->is_tester(position_, symptom->subject_component)) {
        ++hier_.symptoms_filtered;
        hier_filtered_metric_.inc();
        continue;
      }
      ++hier_.symptoms_accepted;
      hier_accepted_metric_.inc();
      // Liveness only, no wire-sequence accounting: a slice subscriber
      // legitimately skips most of an agent's stream, so sequence jumps
      // carry no loss signal here (gaps never feed trust either way).
      AgentChannel& ch = channels_[agent];
      ch.last_heard = std::max(ch.last_heard, round_);
    }
    // Retransmissions arrive as duplicates of an already-ingested
    // observation key; charging them again would let the resend machinery
    // itself erode trust.
    if (p_.hardening && !dedupe_accept(*symptom)) {
      ++duplicates_;
      duplicates_metric_.inc();
      continue;
    }
    if (recorder_) recorder_->record(*symptom);
    store_.ingest(*symptom);
    summary_.note_ingest(*symptom);
    symptoms_metric_.inc();
    if (prov_ && prov_->enabled()) {
      prov_->event(journey_for(*symptom), obs::ProvStage::kEvidence,
                   "assessor", to_string(symptom->type), symptom->round);
    }
    // Trust is kept per FRU: job-level symptoms (value, gap, overflow)
    // charge the software FRU — a misconfigured job must not erode
    // confidence in the healthy board it runs on. Transport symptoms are
    // deferred: the charged side depends on the observer's spread.
    if (symptom->subject_job) {
      const platform::JobId j = *symptom->subject_job;
      if (j >= job_hits_.size()) job_hits_.resize(j + 1, 0);
      ++job_hits_[j];
    } else if ((symptom->type == SymptomType::kSlotCrcError ||
                symptom->type == SymptomType::kSlotTimingError ||
                symptom->type == SymptomType::kSlotOmission) &&
               symptom->observer < component_count_ &&
               symptom->subject_component < component_count_) {
      transport_masks_[symptom->observer * mask_words_ +
                       symptom->subject_component / 64] |=
          std::uint64_t{1} << (symptom->subject_component % 64);
    } else if (symptom->subject_component < component_count_) {
      ++component_hits_[symptom->subject_component];
    }
  }

  // An observer flagging most of its peers at once is itself the suspect
  // (connector/EMI on its receive path): charge the observer, not the
  // blameless senders — mirroring the classifier's credibility rule at
  // its auto bar.
  const std::size_t spread_bar = auto_sender_spread(component_count_);
  for (platform::ComponentId observer = 0; observer < component_count_;
       ++observer) {
    const std::uint64_t* mask = &transport_masks_[observer * mask_words_];
    std::size_t spread = 0;
    for (std::size_t w = 0; w < mask_words_; ++w) {
      spread += static_cast<std::size_t>(std::popcount(mask[w]));
    }
    if (spread == 0) continue;
    if (spread >= spread_bar) {
      component_hits_[observer] += static_cast<std::uint32_t>(spread);
    } else {
      for (std::size_t w = 0; w < mask_words_; ++w) {
        for (std::uint64_t word = mask[w]; word != 0; word &= word - 1) {
          ++component_hits_[w * 64 +
                            static_cast<std::size_t>(std::countr_zero(word))];
        }
      }
    }
  }

  // Staleness-expiry fault site: reached once per fresh->stale transition
  // of an agent channel. Firing models a watchdog glitch — the expiry
  // tick is missed and the channel reads fresh for another full window,
  // so trust keeps recovering on absent evidence.
  if (fp_ && p_.hardening) {
    for (platform::ComponentId c = 0; c < component_count_; ++c) {
      bool stale = evidence_age(c) > kStaleAfter;
      if (stale && !was_stale_[c] &&
          fp_->hit(fault::FaultSite::kStalenessExpiry)) {
        channels_[c].last_heard = round_;
        stale = false;
      }
      was_stale_[c] = stale;
    }
  }

  // Trust update: recovery for quiet FRUs, drop scaled by symptom volume.
  // "Quiet" only earns recovery while the FRU's agent channel is fresh: a
  // silent agent means *absence of evidence*, and absence of evidence must
  // freeze trust, not launder it back toward 1.0.
  for (platform::ComponentId c = 0; c < component_count_; ++c) {
    const std::uint32_t hits = component_hits_[c];
    if (hits == 0) {
      if (!channel_degraded(c)) {
        component_trust_[c] =
            std::min(1.0, component_trust_[c] + kTrustRecovery);
      }
    } else {
      const double scale = static_cast<double>(std::min(hits, 4u));
      component_trust_[c] =
          std::max(0.0, component_trust_[c] - p_.trust.drop * scale);
      note_component_trust(c);
    }
  }
  for (auto& [j, trust] : job_trust_) {
    const std::uint32_t hits = j < job_hits_.size() ? job_hits_[j] : 0;
    if (hits == 0) {
      auto host_it = job_host_.find(j);
      if (host_it == job_host_.end() || !channel_degraded(host_it->second)) {
        trust = std::min(1.0, trust + kTrustRecovery);
      }
    } else {
      const double scale = static_cast<double>(std::min(hits, 4u));
      trust = std::max(0.0, trust - p_.trust.drop * scale);
      note_job_trust(j);
    }
  }

  if (hierarchical()) emit_deltas(ctx);

  // Trajectory sampling (Fig. 9).
  if (round_ >= last_sample_ + kSamplePeriod) {
    last_sample_ = round_;
    for (platform::ComponentId c = 0; c < component_count_; ++c) {
      component_trajectories_[c].push_back(TrustSample{round_, component_trust_[c]});
    }
  }

  // Dedupe keys older than the window can never be duplicated again (the
  // resend buffer is far shorter); drop them to stay bounded.
  if (p_.hardening && round_ >= last_dedupe_prune_ + kDedupeWindow) {
    last_dedupe_prune_ = round_;
    const tta::RoundId horizon =
        round_ > kDedupeWindow ? round_ - kDedupeWindow : 0;
    std::erase_if(seen_,
                  [horizon](const DedupKey& k) { return k.round < horizon; });
  }

  summary_.fold(store_, round_);
  store_.prune(round_);
  constexpr tta::RoundId kWindow = Params::evidence.window_rounds;
  summary_.note_prune(round_ > kWindow ? round_ - kWindow : 0);
}

void Assessor::handle_delta(const vnet::Message& m) {
  const auto peer = peer_position_.find(m.sender);
  if (peer == peer_position_.end()) return;  // not a peer assessor either
  auto delta = decode_delta(m);
  if (!delta) return;
  // Deltas travel strictly along cube edges; anything else is a routing
  // anomaly (stale peer view, misconfiguration) and is refused so the
  // flood's termination argument stays edge-local.
  if (!topo_->are_neighbors(position_, peer->second)) {
    ++hier_.deltas_rejected;
    hier_rejected_metric_.inc();
    return;
  }
  if (fp_ && fp_->hit(fault::FaultSite::kStaleVerdict)) {
    // Stale-verdict delivery: the copy arrives claiming an ancient
    // emission instant. The monotonic merge below must shrug it off —
    // any cached entry is newer, and a round-0 ghost can never displace
    // a live verdict.
    delta->round = 0;
  }
  const auto seen_key = std::make_tuple(delta->origin, delta->job_level,
                                        delta->fru);
  auto [seen_it, first_time] = delta_seen_.emplace(seen_key, delta->round);
  if (!first_time) {
    if (delta->round <= seen_it->second) {
      // Re-flooded copy of an emission we already propagated (or an older
      // one): absorb silently. This is what terminates the flood.
      ++hier_.deltas_duplicate;
      hier_duplicate_metric_.inc();
      return;
    }
    seen_it->second = delta->round;
  }
  ++hier_.deltas_accepted;
  hier_delta_accepted_metric_.inc();
  const DeltaKey key{delta->job_level, delta->fru};
  if (delta->clear) {
    // A clear only withdraws the *origin's own* suspicion; a verdict
    // cached from a different tester stands until that tester clears it.
    auto it = delta_cache_.find(key);
    if (it != delta_cache_.end() && it->second.origin == delta->origin) {
      delta_cache_.erase(it);
    }
  } else {
    auto [it, inserted] = delta_cache_.emplace(key, *delta);
    if (!inserted) {
      VerdictDelta& cur = it->second;
      // Latest emission wins; ties break to the lower origin position so
      // every node converges on the identical cache entry.
      if (delta->round > cur.round ||
          (delta->round == cur.round && delta->origin < cur.origin)) {
        cur = *delta;
      }
    }
  }
  if (prov_ && prov_->enabled() && !delta->job_level && !delta->clear) {
    prov_->event(prov_->journey_for_component(
                     static_cast<platform::ComponentId>(delta->fru)),
                 obs::ProvStage::kVerdict, "dissemination",
                 fault::to_string(delta->cls), round_);
  }
  // Forward exactly once per newly-seen emission, to all neighbours (the
  // budget-bounded drain excludes the edge it arrived on implicitly: the
  // sender already saw this emission and will dedupe it).
  dissem_out_.push_back(PendingDelta{*delta, /*forward=*/true});
}

void Assessor::queue_clear_delta(bool job_level, std::uint32_t fru,
                                 double trust) {
  VerdictDelta d;
  d.job_level = job_level;
  d.fru = fru;
  d.origin = position_;
  d.trust = trust;
  d.cls = fault::FaultClass::kNone;
  d.clear = true;
  d.round = round_;
  delta_seen_[std::make_tuple(position_, job_level, fru)] = round_;
  dissem_out_.push_back(PendingDelta{d, /*forward=*/false});
}

void Assessor::emit_deltas(platform::JobContext& ctx) {
  // Edge-triggered emissions: a slice FRU crossing the violation threshold
  // publishes one delta immediately; recovery above it publishes a clear.
  // A standing suspicion is re-emitted every refresh period so late
  // joiners and lossy paths converge without any retransmission protocol.
  const bool refresh =
      round_ >= last_delta_refresh_ + kDeltaRefreshPeriod;
  if (refresh) last_delta_refresh_ = round_;
  auto emit = [&](bool job_level, std::uint32_t fru, double trust) {
    VerdictDelta d;
    d.job_level = job_level;
    d.fru = fru;
    d.origin = position_;
    d.trust = trust;
    d.cls = job_level
                ? diagnose_job(static_cast<platform::JobId>(fru)).cls
                : diagnose_component(static_cast<platform::ComponentId>(fru))
                      .cls;
    d.clear = false;
    d.round = round_;
    delta_seen_[std::make_tuple(position_, job_level, fru)] = round_;
    dissem_out_.push_back(PendingDelta{d, /*forward=*/false});
  };
  for (platform::ComponentId c = 0; c < component_count_; ++c) {
    if (!topo_->is_tester(position_, c)) continue;
    const bool suspect =
        component_trust_[c] < kViolationThreshold;
    if (suspect && (!comp_delta_active_[c] || refresh)) {
      comp_delta_active_[c] = true;
      emit(false, c, component_trust_[c]);
    } else if (!suspect && comp_delta_active_[c]) {
      comp_delta_active_[c] = false;
      queue_clear_delta(false, c, component_trust_[c]);
    }
  }
  for (const auto& [j, trust] : job_trust_) {
    const auto host_it = job_host_.find(j);
    if (host_it == job_host_.end()) continue;
    if (!topo_->is_tester(position_, host_it->second)) continue;
    const bool suspect = trust < kViolationThreshold;
    bool& active = job_delta_active_[j];
    if (suspect && (!active || refresh)) {
      active = true;
      emit(true, j, trust);
    } else if (!suspect && active) {
      active = false;
      queue_clear_delta(true, j, trust);
    }
  }
  // Budgeted drain: own emissions and forwards share the per-round send
  // allowance; leftovers stay queued (FIFO) for the next round.
  std::size_t sent = 0;
  while (!dissem_out_.empty() && sent < kDissemBudget) {
    const PendingDelta pd = dissem_out_.front();
    dissem_out_.pop_front();
    if (pd.forward && fp_ && fp_->hit(fault::FaultSite::kDissemForward)) {
      // Forward drop: the copy vanishes at this hop. Other cube paths
      // and the origin's periodic refresh must still converge the cache.
      continue;
    }
    const vnet::Message m = encode_delta(pd.d, round_);
    if (!ctx.send(dissem_port_, m.value, m.kind, m.aux)) {
      // Port back-pressure: requeue at the front and stop — order is
      // preserved and the budget retries next round.
      dissem_out_.push_front(pd);
      break;
    }
    ++sent;
    if (pd.forward) {
      ++hier_.deltas_forwarded;
      hier_forwarded_metric_.inc();
    } else {
      ++hier_.deltas_emitted;
      hier_emitted_metric_.inc();
    }
  }
}

const VerdictDelta* Assessor::cached_component_delta(
    platform::ComponentId c) const {
  const auto it = delta_cache_.find(DeltaKey{false, c});
  return it == delta_cache_.end() ? nullptr : &it->second;
}

const VerdictDelta* Assessor::cached_job_delta(platform::JobId j) const {
  const auto it = delta_cache_.find(DeltaKey{true, j});
  return it == delta_cache_.end() ? nullptr : &it->second;
}

void Assessor::reset_component_trust(platform::ComponentId c) {
  component_trust_.at(c) = kInitialTrust;
  component_violation_round_.erase(c);
  if (hierarchical()) {
    delta_cache_.erase(DeltaKey{false, c});
    if (comp_delta_active_[c]) {
      comp_delta_active_[c] = false;
      queue_clear_delta(false, c, kInitialTrust);
    }
  }
}

void Assessor::reset_job_trust(platform::JobId j) {
  job_trust_[j] = kInitialTrust;
  job_violation_round_.erase(j);
  if (hierarchical()) {
    delta_cache_.erase(DeltaKey{true, j});
    auto it = job_delta_active_.find(j);
    if (it != job_delta_active_.end() && it->second) {
      it->second = false;
      queue_clear_delta(true, j, kInitialTrust);
    }
  }
}

void Assessor::reconcile_from(const Assessor& fresher) {
  // Per-FRU max-staleness merge: the side that heard the FRU's agent more
  // recently contributes trust and channel state.
  for (platform::ComponentId c = 0; c < component_count_; ++c) {
    if (fresher.channels_[c].last_heard >= channels_[c].last_heard) {
      channels_[c] = fresher.channels_[c];
      component_trust_[c] = fresher.component_trust_[c];
    }
    auto vit = fresher.component_violation_round_.find(c);
    if (vit != fresher.component_violation_round_.end()) {
      auto [mine, inserted] = component_violation_round_.emplace(c, vit->second);
      if (!inserted) mine->second = std::min(mine->second, vit->second);
    }
  }
  for (auto& [j, trust] : job_trust_) {
    const platform::ComponentId host = host_of(j);
    auto theirs = fresher.job_trust_.find(j);
    if (theirs != fresher.job_trust_.end() &&
        fresher.channels_[host].last_heard >= channels_[host].last_heard) {
      trust = theirs->second;
    }
  }
  for (const auto& [j, r] : fresher.job_violation_round_) {
    auto [mine, inserted] = job_violation_round_.emplace(j, r);
    if (!inserted) mine->second = std::min(mine->second, r);
  }
  // Both assessors subscribe to the same symptom multicast, so the side
  // that stayed alive holds (essentially) a superset of the other's
  // evidence: adopt its store wholesale when it is ahead in rounds or in
  // ingested volume. The dedupe sets are unioned so that neither side's
  // already-charged observations can be double-ingested afterwards.
  if (fresher.round_ >= round_ ||
      fresher.store_.symptoms_ingested() > store_.symptoms_ingested()) {
    store_ = fresher.store_;
    component_trajectories_ = fresher.component_trajectories_;
    last_sample_ = fresher.last_sample_;
    summary_ = fresher.summary_;
  }
  seen_.insert(fresher.seen_.begin(), fresher.seen_.end());
}

ComponentFeatures Assessor::component_features(platform::ComponentId c) const {
  ComponentFeatures f;
  summary_.component_features(store_, c, round_, f);
  return f;
}

Diagnosis Assessor::diagnose_component(platform::ComponentId c) const {
  return diagnose_component(c, component_features(c));
}

Diagnosis Assessor::diagnose_component(platform::ComponentId c,
                                       const ComponentFeatures& f) const {
  return classifier_.classify_component(store_, c, round_, f);
}

platform::ComponentId Assessor::host_of(platform::JobId j) const {
  const auto it = job_host_.find(j);
  return it == job_host_.end() ? 0 : it->second;
}

Diagnosis Assessor::diagnose_job(platform::JobId j) const {
  return diagnose_job(j, diagnose_component(host_of(j)));
}

Diagnosis Assessor::diagnose_job(platform::JobId j,
                                 const Diagnosis& host_diagnosis) const {
  static const std::vector<platform::JobId> kNoSiblings;
  const auto sib_it = jobs_by_host_.find(host_of(j));
  const auto& siblings =
      sib_it == jobs_by_host_.end() ? kNoSiblings : sib_it->second;
  return classifier_.classify_job(store_, j, host_diagnosis, siblings,
                                  round_);
}

}  // namespace decos::diag
