// DiagnosticService — facade wiring the complete integrated diagnostic
// architecture into a System: the encapsulated diagnostic DAS with one
// assessor job, one detection agent per component, and the symptom ports
// on the reserved virtual diagnostic network (Fig. 1's three-step model:
// detect -> disseminate -> analyse).
//
// Construct it after all application DASs/jobs/ports exist and before
// System::finalize(). The maintenance report it produces per FRU — trust
// level, fault class, recommended action — is what the paper hands to the
// service technician (Fig. 11).
//
// The diagnostic DAS is itself safety-relevant, so the service survives
// faults in its own path: when the primary assessor's host component dies
// the lowest-indexed replica on a live host is promoted deterministically,
// and when a higher-priority host reintegrates its assessor reconciles
// state from the one that stayed alive (max-staleness merge) before
// taking back over. Every report row carries an evidence-quality field so
// "verified healthy" and "no recent evidence" are never conflated.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "diag/agent.hpp"
#include "diag/assessor.hpp"
#include "diag/ona.hpp"
#include "diag/port_spec.hpp"
#include "diag/topology.hpp"
#include "fault/injector.hpp"
#include "platform/system.hpp"

namespace decos::diag {

/// One row of the maintenance report.
struct FruReport {
  std::string fru;  // "component 3" or "job brake1 (j5) on component 2"
  /// Structured FRU identity: the hardware FRU this row concerns, and the
  /// software FRU when the row describes a job (nullopt for component
  /// rows). Consumers that act on the report — foremost the maintenance
  /// executor — key off these instead of parsing the display label.
  platform::ComponentId component = 0;
  std::optional<platform::JobId> job;
  double trust = 1.0;
  Diagnosis diagnosis;
  fault::MaintenanceAction action = fault::MaintenanceAction::kNoAction;
  /// Names of the standard Out-of-Norm Assertions currently asserted for
  /// this FRU (component rows only; the declarative cross-check of the
  /// rule classifier's verdict).
  std::vector<std::string> asserted_onas;
  /// Confidence in this row's evidence, in [0,1]: 1.0 means the FRU's
  /// diagnostic agent is fresh; lower values mean the assessor has not
  /// heard the agent recently and the verdict rests on stale evidence.
  double evidence_quality = 1.0;
  /// Rounds since the FRU's agent was last heard by the active assessor.
  tta::RoundId evidence_age = 0;
  /// Whether the agent was heard within the assessor's staleness
  /// threshold. Derived from the integer evidence age, never from
  /// comparing the decayed quality double against 1.0 — a 0.9999…
  /// quality row from floating-point rounding stays "verified".
  bool evidence_fresh = true;
  /// Distinguishes "verified healthy" from "no recent evidence": a row
  /// with kNoAction and degraded evidence is NOT a clean bill of health.
  [[nodiscard]] const char* evidence_state() const {
    return evidence_fresh ? "verified" : "no-recent-evidence";
  }
};

/// A verdict transition found by the per-round verdict pass.
struct VerdictChange {
  std::string_view fru;  // the FRU's report-row label
  platform::ComponentId component = 0;
  std::optional<platform::JobId> job;
  /// The new verdict; kNone when the FRU is unreported or unclassified.
  fault::FaultClass cls = fault::FaultClass::kNone;
};

class DiagnosticService {
 public:
  using VerdictListener = std::function<void(const VerdictChange&)>;

  struct Params {
    /// Component hosting the (primary) assessor job.
    platform::ComponentId assessor_host = 0;
    /// Additional components hosting replica assessors. The diagnostic
    /// DAS is itself safety-relevant: replicated assessors keep the
    /// maintenance view alive when the primary's component dies. Agents
    /// multicast their symptom stream to every assessor.
    std::vector<platform::ComponentId> replica_hosts;
    Assessor::Params assessor{};
    /// Hierarchical diagnosis: the assessor hosts (primary + replicas)
    /// form a VCube overlay instead of an all-watch-all replica set. Each
    /// FRU is monitored by its logarithmic tester set, agents unicast
    /// symptoms to the subject's current testers only, and assessors
    /// exchange verdict deltas along cube edges. The active/failover
    /// machinery is bypassed: the overlay self-heals by local tester
    /// recomputation, and every query composes the per-slice partial
    /// views (use the service-level accessors, not assessor()).
    bool hierarchy = false;
  };

  DiagnosticService(platform::System& system, SpecTable specs,
                    fault::SpatialLayout layout, Params params);

  /// The ACTIVE assessor: the primary while its host lives, otherwise the
  /// promoted replica (failover is evaluated once per assessment round).
  [[nodiscard]] Assessor& assessor() { return *assessors_[active_]; }
  [[nodiscard]] const Assessor& assessor() const {
    return *assessors_[active_];
  }
  /// Replica access by fixed index (0 = primary), failover-independent.
  [[nodiscard]] Assessor& assessor(std::size_t i) { return *assessors_.at(i); }
  [[nodiscard]] std::size_t assessor_count() const { return assessors_.size(); }
  /// Index of the currently active assessor (0 = primary).
  [[nodiscard]] std::size_t active_assessor() const { return active_; }
  /// Promotions of a replica after the active assessor's host died.
  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }
  /// Reconciled hand-backs to a revived higher-priority host.
  [[nodiscard]] std::uint64_t failbacks() const { return failbacks_; }
  [[nodiscard]] platform::JobId assessor_job() const { return assessor_job_; }

  /// Is this job part of the diagnostic DAS (agents + assessor)?
  [[nodiscard]] bool is_diagnostic_job(platform::JobId j) const;

  /// The detection agent of component `c` and its job id (agents are
  /// created one per component, in component order).
  [[nodiscard]] const Agent& agent(platform::ComponentId c) const {
    return *agents_.at(c);
  }
  [[nodiscard]] platform::JobId agent_job(platform::ComponentId c) const {
    return agents_.at(c)->job_id();
  }

  /// Asserts an ONA on a component from outside the evidence-store rule
  /// base (e.g. the TMR gateway's redundancy-loss transition). The name
  /// appears in the component's report row, and each onset counts once in
  /// `diag.ona_assertions`; `retract_external_ona` clears it.
  void assert_external_ona(platform::ComponentId c, const std::string& name);
  void retract_external_ona(platform::ComponentId c, const std::string& name);

  /// Maintenance reset after an *executed* repair of the FRU: every
  /// assessor — active and replicas alike — restarts the FRU's trust at
  /// its initial value and forgets the violation instant, so a later
  /// failback reconciliation cannot resurrect pre-repair suspicion of a
  /// unit that is physically no longer installed.
  void reset_component_trust(platform::ComponentId c);
  void reset_job_trust(platform::JobId j);

  /// Attaches the fault-point registry (not owned; nullptr detaches) to
  /// the whole diagnostic path: every agent (heartbeat-send, resend-push),
  /// every assessor replica (heartbeat-receive, staleness-expiry) and the
  /// service's own failover/failback decision edges.
  void bind_fault_points(fault::FaultPointRegistry* fp);

  // --- composed per-DAS diagnoser contract --------------------------------
  // Service-level accessors that answer "what does the architecture
  // believe about this FRU" independently of *which* assessor holds the
  // evidence. In legacy mode they delegate to the active assessor; in
  // hierarchy mode they compose the responsible tester's partial view,
  // falling back to the disseminated verdict cache when the responsible
  // tester was reassigned and never heard the FRU's agent itself.
  /// The service's overlay view (hierarchy mode only), refreshed from the
  /// hosts' self-membership by every verdict pass.
  [[nodiscard]] const HierarchyTopology& topology() const {
    return *view_topo_;
  }
  [[nodiscard]] double component_trust(platform::ComponentId c) const;
  [[nodiscard]] double job_trust(platform::JobId j) const;
  [[nodiscard]] Diagnosis diagnose_component(platform::ComponentId c) const;
  [[nodiscard]] Diagnosis diagnose_job(platform::JobId j) const;
  /// Earliest trust-violation instant any tester recorded for the FRU.
  [[nodiscard]] std::optional<tta::RoundId> first_component_violation(
      platform::ComponentId c) const;
  [[nodiscard]] std::optional<tta::RoundId> first_job_violation(
      platform::JobId j) const;
  /// Summed dissemination counters across every assessor position.
  [[nodiscard]] Assessor::HierarchyStats hierarchy_stats() const;

  /// Maintenance report over all FRUs: components first, then application
  /// jobs. Only FRUs whose trust fell below the report threshold carry a
  /// non-kNone diagnosis request, but every FRU is listed. Rows whose
  /// agent channel is degraded carry the "diagnostic-channel-degraded"
  /// meta-ONA and a reduced evidence quality. Like every query above, a
  /// pure read: state changes only in the per-round verdict pass.
  [[nodiscard]] std::vector<FruReport> report() const;

  /// Installs the single subscriber (nullptr removes it). Once per
  /// assessment round the verdict pass classifies every reported FRU
  /// (trust below TrustParams::report_threshold; any other FRU's verdict
  /// is kNone) and hands each FRU whose verdict changed to it.
  void subscribe(VerdictListener listener) { listener_ = std::move(listener); }

  /// Correlates the injector's ground-truth ledger with the active
  /// assessor's first trust violations and records, for every injected
  /// fault whose FRU became suspected after the injection instant, the
  /// detection latency (injection -> first trust violation) into the
  /// simulator's metrics registry: histogram `diag.detection_latency_us`,
  /// both aggregate and labelled per FRU (`fru=component.N` /
  /// `fru=job.N`). Returns how many faults got a latency sample. Call
  /// after the run; idempotent only in the sense that calling twice
  /// records the samples twice.
  std::size_t record_detection_latency(const fault::FaultInjector& injector);

 private:
  /// Re-evaluates which assessor is active: the lowest-indexed one whose
  /// host component is alive (deterministic promotion order). On a
  /// transition the newly active assessor reconciles from the previously
  /// active one — a no-op on failover (the dead side is staler), the
  /// state-merge mechanism on failback.
  void check_failover();
  [[nodiscard]] bool host_alive(platform::ComponentId c) const;
  /// Feeds assessor `i`'s *own host's* membership view into its local
  /// topology (hierarchy mode; runs at the top of its assessment round).
  void refresh_local_view(Assessor& a, std::size_t i);
  /// Refreshes the service-level overlay view from per-host self-liveness.
  void refresh_view();
  /// The one place diagnosis state is published: verdicts of the reported
  /// FRUs, ONA onsets, the staleness and overlay gauges.
  void verdict_pass(tta::RoundId round);
  /// Stores the pass's verdict for one FRU; on a change counts it in
  /// diag.classifications, traces it and notifies the subscriber.
  void settle_verdict(fault::FaultClass& held, const VerdictChange& change,
                      tta::RoundId round);
  /// Resolves the assessor composing `c`'s verdict: the active one in
  /// legacy mode. When the verdict is served from the dissemination cache,
  /// `*delta` is set to it.
  [[nodiscard]] const Assessor* resolve_component(platform::ComponentId c,
                                                  const VerdictDelta** delta)
      const;
  /// Same for job `j`, whose evidence sits with its host's tester.
  [[nodiscard]] const Assessor* resolve_job(platform::JobId j,
                                            const VerdictDelta** delta) const;

  platform::System& system_;
  SpecTable specs_;
  platform::JobId assessor_job_ = platform::kInvalidJob;
  std::vector<platform::ComponentId> hosts_;
  std::vector<platform::JobId> assessor_jobs_;
  std::vector<std::unique_ptr<Assessor>> assessors_;
  std::vector<std::unique_ptr<Agent>> agents_;
  std::vector<platform::JobId> subject_jobs_;
  /// report() row labels, built once at construction: one per component,
  /// and one per subject job (parallel to subject_jobs_).
  std::vector<std::string> component_frus_;
  std::vector<std::string> job_frus_;
  std::map<platform::ComponentId, std::vector<std::string>> external_onas_;
  bool hardening_ = true;
  bool hierarchy_ = false;
  std::optional<HierarchyTopology> view_topo_;
  std::vector<bool> alive_scratch_;
  fault::FaultPointRegistry* fp_ = nullptr;
  std::size_t active_ = 0;
  std::size_t failback_candidate_ = SIZE_MAX;
  sim::SimTime failback_candidate_since_{};
  std::uint64_t failovers_ = 0;
  std::uint64_t failbacks_ = 0;

  // --- verdict pass ------------------------------------------------------
  VerdictListener listener_;
  tta::RoundId last_pass_ = ~tta::RoundId{0};
  /// The pass's verdict per component and per subject job (parallel to
  /// subject_jobs_); kNone while the FRU is not reported.
  std::vector<fault::FaultClass> component_verdicts_;
  std::vector<fault::FaultClass> job_verdicts_;
  /// Asserted ONAs per component, bit r = standard rule r, the bit past
  /// the last rule = the channel-degraded meta-ONA.
  std::vector<std::uint32_t> asserted_onas_;
  /// Pass scratch: each host's own classification, shared by its jobs.
  std::vector<std::optional<Diagnosis>> host_diag_;
  /// diag.evidence_staleness{fru=cN} (hardened only) and, in hierarchy
  /// mode, diag.hierarchy.recomputes: bound at construction.
  std::vector<obs::Gauge> staleness_metrics_;
  obs::Gauge recomputes_metric_;
};

}  // namespace decos::diag
