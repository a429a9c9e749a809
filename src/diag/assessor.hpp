// The assessment stage of the diagnostic DAS.
//
// The assessor runs as an encapsulated job, consumes the symptom stream
// arriving on the virtual diagnostic network, maintains the evidence store
// (the distributed state) and a *trust level* per FRU — the paper's output
// to the maintenance engineer (Section II-D, Fig. 9). Classification into
// the maintenance-oriented fault classes is performed on demand by the
// Classifier over the accumulated evidence.
//
// Trust is an evidence accumulator in [0,1]: it recovers slowly through
// healthy rounds and drops with each symptomatic round, so a healthy FRU's
// trajectory hugs 1.0 while a degrading FRU's trajectory descends — the
// two arrows of Fig. 9.
//
// The assessor also polices its own evidence channel. Each agent's symptom
// port carries a contiguous wire sequence number and a periodic heartbeat;
// the assessor tracks per-channel staleness and sequence gaps, so agent
// silence degrades the FRU's *evidence quality* instead of letting trust
// quietly recover toward 1.0 — silence of the monitor is not health of
// the monitored. Retransmitted symptoms are deduplicated on their
// observation key so resends never double-charge trust.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "fault/faultpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "diag/classifier.hpp"
#include "diag/evidence.hpp"
#include "diag/log.hpp"
#include "diag/summary.hpp"
#include "diag/symptom.hpp"
#include "diag/topology.hpp"
#include "platform/job.hpp"
#include "platform/types.hpp"

namespace decos::diag {

struct TrustParams {
  /// Drop per symptomatic round (scaled by min(symptoms, 4)).
  double drop = 0.02;
  /// Trust below which the FRU is reported to the maintenance engineer.
  static constexpr double report_threshold = 0.5;
};

struct TrustSample {
  tta::RoundId round;
  double trust;
};

/// Per-agent diagnostic-channel state: when the assessor last heard the
/// agent (symptom *or* heartbeat), the next expected wire sequence number
/// on its symptom port, and the agent's self-confessed drop count.
struct AgentChannel {
  tta::RoundId last_heard = 0;
  std::uint32_t next_seq = 0;
  bool seq_seen = false;
  std::uint64_t reported_detected = 0;
  std::uint32_t reported_dropped = 0;
  std::uint64_t heartbeats = 0;
};

class Assessor {
 public:
  struct Params {
    /// The one set of feature thresholds: the summary, the classifier and
    /// every ONA read it, resolved once by the summary.
    FeatureParams classifier{};
    /// The assessor's evidence window (the store's default).
    static constexpr EvidenceStore::Params evidence{};
    TrustParams trust{};
    /// Master switch for channel hardening (staleness watchdog, dedupe,
    /// gap tracking, recovery gating). Off reproduces the pre-hardening
    /// assessor, for ablation runs.
    bool hardening = true;
  };

  Assessor(Params p, fault::SpatialLayout layout, std::uint32_t component_count,
           std::uint32_t job_count);

  /// Registers which agent job reports for which component (observer
  /// reconstruction on decode).
  void register_agent(platform::JobId agent_job, platform::ComponentId component);

  /// Declares an application job to be assessed, with its host component.
  void register_subject_job(platform::JobId job, platform::ComponentId host);

  /// Job behaviour: decode + ingest the inbox, update trust levels.
  void process(platform::JobContext& ctx);

  /// Ingests a symptom arriving outside the diagnostic vnet — currently
  /// only the star coupler's guardian-block reports, which physically
  /// originate at the bus, not at any component agent.
  void ingest_external(const Symptom& s);

  /// Attaches a flight recorder: every ingested symptom is also appended
  /// to `log` (not owned; pass nullptr to detach). The recorded log can
  /// later be replayed off-board (see diag/log.hpp).
  void set_flight_recorder(DiagnosticLog* log) { recorder_ = log; }

  /// Binds the assessor's instrumentation (symptoms ingested, trust
  /// violations, channel gaps and drops) to `registry`, which
  /// must outlive the assessor. DiagnosticService binds to the
  /// simulator's registry automatically.
  void bind_metrics(obs::Registry& registry);

  /// Binds the hierarchy-mode dissemination counters. Unlike bind_metrics
  /// (primary only — replicas would double-count the shared multicast),
  /// these are bound on *every* assessor: each position filters and
  /// forwards its own slice, so the cluster-wide sums are the meaningful
  /// quantities (diag.hierarchy.* counters).
  void bind_hierarchy_metrics(obs::Registry& registry);

  /// Attaches the provenance tracer (not owned; nullptr detaches): every
  /// ingested symptom appends a kEvidence span and the first trust
  /// violation per FRU a kVerdict span — all linked to the injected
  /// fault's journey via the subject FRU. DiagnosticService binds the
  /// simulator's tracer automatically (and traces classifications itself).
  void bind_provenance(obs::ProvenanceTracer* prov) { prov_ = prov; }

  /// Attaches the fault-point registry (not owned; nullptr detaches): the
  /// heartbeat-receive and staleness-expiry edges become enumerable
  /// injection sites. DiagnosticService::bind_fault_points wires every
  /// assessor replica.
  void bind_fault_points(fault::FaultPointRegistry* fp) { fp_ = fp; }

  /// Max-staleness state merge from a fresher replica, used on failback:
  /// per FRU, whichever side heard that FRU's agent later contributes the
  /// trust level and channel state; violation instants take the earlier of
  /// the two sides. Both assessors subscribe to the same symptom
  /// multicast, so when `fresher` is ahead in rounds its evidence store
  /// and dedupe set are supersets of ours and are adopted wholesale — the
  /// adopted dedupe set then filters any backlog the revived assessor
  /// still re-ingests.
  void reconcile_from(const Assessor& fresher);

  /// Maintenance reset after an executed repair: the replacement FRU
  /// starts with fresh trust and no violation history. Accumulated
  /// evidence and channel state are deliberately kept — a mis-repair must
  /// stay classifiable from the full symptom history, and the agent
  /// channel belongs to the diagnostic path, not to the repaired FRU.
  /// In hierarchy mode the reset also drops the FRU's cached disseminated
  /// verdict and queues a clear delta, so a reconciling peer cannot
  /// resurrect suspicion of a unit that is no longer installed.
  void reset_component_trust(platform::ComponentId c);
  void reset_job_trust(platform::JobId j);

  // --- hierarchy mode ----------------------------------------------------
  /// Switches this assessor into the VCube overlay: it keeps per-FRU
  /// evidence only for its tester slice, filters everything else at the
  /// inbox, and exchanges verdict deltas with its cube neighbours on
  /// `dissem_port`. `topology` is this assessor's *local* view — each
  /// replica owns one and recomputes it from its own membership view.
  void enable_hierarchy(HierarchyTopology topology, std::uint32_t position,
                        platform::PortId dissem_port);
  [[nodiscard]] bool hierarchical() const { return topo_.has_value(); }
  [[nodiscard]] const HierarchyTopology& topology() const { return *topo_; }

  /// Declares a peer assessor job and its cube position (delta acceptance
  /// resolves senders through this map and checks the cube edge).
  void register_peer(platform::JobId assessor_job, std::uint32_t position);

  /// Feeds this assessor's membership view into its local topology.
  /// Recomputed only when the view changed; the tester-reassignment fault
  /// site defers one recompute by a round (the enumerable race between a
  /// membership change and the overlay catching up).
  void refresh_topology(const std::vector<bool>& alive);

  /// Cross-cluster dissemination counters (hierarchy mode only).
  struct HierarchyStats {
    std::uint64_t symptoms_accepted = 0;
    std::uint64_t symptoms_filtered = 0;
    std::uint64_t deltas_emitted = 0;
    std::uint64_t deltas_forwarded = 0;
    std::uint64_t deltas_accepted = 0;
    std::uint64_t deltas_duplicate = 0;
    std::uint64_t deltas_rejected = 0;
  };
  [[nodiscard]] const HierarchyStats& hierarchy_stats() const { return hier_; }

  /// Best disseminated verdict this assessor holds about a FRU outside
  /// its own evidence (latest emission round wins; ties to the lowest
  /// origin position). nullptr when nothing (non-cleared) is cached.
  [[nodiscard]] const VerdictDelta* cached_component_delta(
      platform::ComponentId c) const;
  [[nodiscard]] const VerdictDelta* cached_job_delta(platform::JobId j) const;

  /// Whether this assessor ever heard the FRU's agent at all — the
  /// composition fallback test: a responsible tester that never heard the
  /// agent (promoted after a multi-kill) serves the cached delta instead.
  [[nodiscard]] bool ever_heard(platform::ComponentId c) const {
    const AgentChannel& ch = channels_.at(c);
    return ch.seq_seen || ch.last_heard != 0;
  }

  /// The evidence summary every component feature is read from
  /// (tests/inspection).
  [[nodiscard]] const EvidenceSummary& summary() const { return summary_; }
  /// The resolved feature parameters of this assessor's cluster.
  [[nodiscard]] const FeatureParams& feature_params() const {
    return summary_.feature_params();
  }

  // --- results -----------------------------------------------------------
  /// Component `c`'s features at the current round: the one record its
  /// verdict and its Out-of-Norm Assertions are judged on.
  [[nodiscard]] ComponentFeatures component_features(
      platform::ComponentId c) const;
  [[nodiscard]] Diagnosis diagnose_component(platform::ComponentId c) const;
  /// Verdict on `c` from features already extracted for this round.
  [[nodiscard]] Diagnosis diagnose_component(
      platform::ComponentId c, const ComponentFeatures& f) const;
  [[nodiscard]] Diagnosis diagnose_job(platform::JobId j) const;
  /// Verdict on `j` given its host's verdict for this round.
  [[nodiscard]] Diagnosis diagnose_job(platform::JobId j,
                                       const Diagnosis& host_diagnosis) const;

  [[nodiscard]] double component_trust(platform::ComponentId c) const {
    return component_trust_.at(c);
  }
  [[nodiscard]] double job_trust(platform::JobId j) const {
    auto it = job_trust_.find(j);
    return it == job_trust_.end() ? 1.0 : it->second;
  }
  [[nodiscard]] const std::vector<TrustSample>& component_trajectory(
      platform::ComponentId c) const {
    return component_trajectories_.at(c);
  }

  /// Round at which the FRU's trust first fell below the violation
  /// threshold (the "detection instant"); nullopt while unsuspected.
  [[nodiscard]] std::optional<tta::RoundId> first_component_violation(
      platform::ComponentId c) const;
  [[nodiscard]] std::optional<tta::RoundId> first_job_violation(
      platform::JobId j) const;

  // --- diagnostic-channel health ----------------------------------------
  /// Rounds since the assessor last heard anything (symptom or heartbeat)
  /// from component `c`'s agent.
  [[nodiscard]] tta::RoundId evidence_age(platform::ComponentId c) const;
  /// Evidence quality in [0,1]: 1.0 while the agent is fresh, decaying
  /// linearly once its silence exceeds the staleness threshold. Always 1.0
  /// with hardening off (the pre-hardening blind spot, by construction).
  [[nodiscard]] double evidence_quality(platform::ComponentId c) const;
  /// Quality of the evidence about job `j` = quality of its host
  /// component's agent channel (job-level symptoms originate there).
  [[nodiscard]] double job_evidence_quality(platform::JobId j) const;
  /// Whether `c`'s agent was heard within the staleness threshold. Judged
  /// on the integer evidence age, not on the decayed quality double, so
  /// floating-point rounding can never flip a fresh channel to stale.
  /// Always fresh with hardening off (the ablated assessor is blind to
  /// silence by construction).
  [[nodiscard]] bool evidence_fresh(platform::ComponentId c) const;
  [[nodiscard]] bool channel_degraded(platform::ComponentId c) const {
    return !evidence_fresh(c);
  }
  [[nodiscard]] const AgentChannel& channel(platform::ComponentId c) const {
    return channels_.at(c);
  }

  /// Wire-sequence gaps observed across all agent channels (messages lost
  /// between an agent's multiplexer and this assessor's inbox).
  [[nodiscard]] std::uint64_t symptom_gaps() const { return gaps_; }
  /// Retransmitted symptoms filtered by the observation-key dedupe.
  [[nodiscard]] std::uint64_t duplicates_dropped() const { return duplicates_; }
  /// Source-side drops confessed by agents via their heartbeats.
  [[nodiscard]] std::uint64_t agent_drops_reported() const {
    return agent_drops_;
  }
  [[nodiscard]] std::uint64_t heartbeats_received() const {
    return heartbeats_;
  }

  [[nodiscard]] const EvidenceStore& evidence() const { return store_; }
  [[nodiscard]] const Classifier& classifier() const { return classifier_; }
  [[nodiscard]] tta::RoundId current_round() const { return round_; }
  [[nodiscard]] std::uint64_t symptoms_processed() const {
    return store_.symptoms_ingested();
  }

 private:
  Params p_;
  Classifier classifier_;
  EvidenceStore store_;
  std::uint32_t component_count_;
  std::map<platform::JobId, platform::ComponentId> agent_component_;
  std::map<platform::ComponentId, std::vector<platform::JobId>> jobs_by_host_;
  std::map<platform::JobId, platform::ComponentId> job_host_;

  std::vector<double> component_trust_;
  std::map<platform::JobId, double> job_trust_;
  std::vector<std::vector<TrustSample>> component_trajectories_;
  tta::RoundId round_ = 0;
  tta::RoundId last_sample_ = 0;
  DiagnosticLog* recorder_ = nullptr;

  [[nodiscard]] platform::ComponentId host_of(platform::JobId j) const;
  void note_component_trust(platform::ComponentId c);
  void note_job_trust(platform::JobId j);

  /// Journey owning the symptom's subject FRU (job first, else component);
  /// kNoJourney when tracing is off or the FRU has no active journey.
  [[nodiscard]] obs::ProvenanceId journey_for(const Symptom& s) const;
  obs::ProvenanceTracer* prov_ = nullptr;
  fault::FaultPointRegistry* fp_ = nullptr;
  /// Per-component staleness edge detector for the staleness-expiry fault
  /// site: hit() is reached only on a fresh->stale transition, keeping the
  /// site's occurrence space proportional to expiry *events*, not rounds.
  std::vector<bool> was_stale_;

  /// Updates the agent's channel state (liveness + wire-seq gap check)
  /// for one inbox message.
  void track_channel(platform::ComponentId agent, const vnet::Message& m);
  /// True if the symptom's observation key has not been seen within the
  /// dedupe window (and records it).
  bool dedupe_accept(const Symptom& s);

  /// Observation key: unique per symptom because agents coalesce to at
  /// most one symptom per (type, subject) per observation round.
  struct DedupKey {
    platform::ComponentId observer;
    SymptomType type;
    platform::ComponentId subj_c;
    platform::JobId subj_j;
    tta::RoundId round;
    auto operator<=>(const DedupKey&) const = default;
  };
  std::set<DedupKey> seen_;
  tta::RoundId last_dedupe_prune_ = 0;

  std::vector<AgentChannel> channels_;

  // Dispatch-local scratch, hoisted to members so the steady-state
  // process() pass allocates nothing: hit counters per FRU and one
  // bitmask of implicated subjects per transport observer (flattened,
  // `mask_words_` words per observer).
  std::vector<std::uint32_t> component_hits_;
  std::vector<std::uint32_t> job_hits_;  // indexed by JobId
  std::vector<std::uint64_t> transport_masks_;
  std::size_t mask_words_ = 1;

  std::uint64_t gaps_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t agent_drops_ = 0;
  std::uint64_t heartbeats_ = 0;

  // --- hierarchy state ---------------------------------------------------
  std::optional<HierarchyTopology> topo_;
  std::uint32_t position_ = 0;
  platform::PortId dissem_port_ = 0;
  std::map<platform::JobId, std::uint32_t> peer_position_;
  HierarchyStats hier_;
  /// Cached verdicts per FRU key {job_level, fru id}.
  using DeltaKey = std::pair<bool, std::uint32_t>;
  std::map<DeltaKey, VerdictDelta> delta_cache_;
  /// Latest emission round seen per (origin, job_level, fru) — the flood
  /// dedup: each emission is forwarded at most once per node.
  std::map<std::tuple<std::uint32_t, bool, std::uint32_t>, tta::RoundId>
      delta_seen_;
  struct PendingDelta {
    VerdictDelta d;
    bool forward = false;
  };
  std::deque<PendingDelta> dissem_out_;
  /// Per slice FRU: an emitted suspicion stands (not yet cleared).
  std::vector<bool> comp_delta_active_;
  std::map<platform::JobId, bool> job_delta_active_;
  tta::RoundId last_delta_refresh_ = 0;
  EvidenceSummary summary_;

  /// Accepts/dedupes/merges/forwards one incoming delta message.
  void handle_delta(const vnet::Message& m);
  /// Emits edge-triggered + periodic-refresh deltas for the tester slice
  /// and drains the dissemination queue within the per-round budget.
  void emit_deltas(platform::JobContext& ctx);
  void queue_clear_delta(bool job_level, std::uint32_t fru, double trust);

  obs::Counter hier_accepted_metric_;
  obs::Counter hier_filtered_metric_;
  obs::Counter hier_emitted_metric_;
  obs::Counter hier_forwarded_metric_;
  obs::Counter hier_delta_accepted_metric_;
  obs::Counter hier_duplicate_metric_;
  obs::Counter hier_rejected_metric_;

  obs::Counter symptoms_metric_;
  obs::Counter violations_metric_;
  obs::Counter gaps_metric_;
  obs::Counter duplicates_metric_;
  obs::Counter agent_drops_metric_;
  std::map<platform::ComponentId, tta::RoundId> component_violation_round_;
  std::map<platform::JobId, tta::RoundId> job_violation_round_;
};

}  // namespace decos::diag
