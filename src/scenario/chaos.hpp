// Chaos campaign: diagnosis accuracy while the diagnostic path itself is
// under attack.
//
// The standard campaign (scenario/campaign.hpp) scores the classifier
// against injected application faults over a healthy diagnostic path.
// This module re-runs the same archetype catalogue while a ChaosInjector
// degrades the diagnostic virtual network (drop/corrupt), kills the
// host of overlay position 0 mid-run and revives it later — exercising
// heartbeats, retransmission, dedupe, staleness tracking and tester
// reassignment end to end. The headline numbers: hardened accuracy stays
// close to the fault-free baseline, and a silenced agent is never
// reported as verified-healthy.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/confusion.hpp"
#include "fault/chaos.hpp"
#include "obs/metrics.hpp"
#include "scenario/campaign.hpp"

namespace decos::scenario {

struct ChaosOptions {
  /// Diagnostic-path hardening on/off (the ablation flag): agents'
  /// heartbeats/resends and the assessor's staleness/dedupe machinery.
  bool hardening = true;
  /// Diagnostic-channel degradation, active from t = 0: per-message drop
  /// and corruption probabilities on virtual network 0.
  double drop_prob = 0.10;
  double corrupt_prob = 0.05;
  /// Kill the assessor_host mid-run (after fault onset) and revive it
  /// before the end: the overlay reassigns its testers both ways.
  bool kill_primary = true;
  bool revive_primary = true;
  sim::SimTime kill_at = sim::SimTime::zero() + sim::milliseconds(800);
  sim::SimTime revive_at = sim::SimTime::zero() + sim::milliseconds(2200);
  /// Cluster geometry: two components beyond the Fig. 10 five host the
  /// two overlay positions, so archetype injections never touch an
  /// assessor host and the kill is attributable to chaos alone.
  std::uint32_t components = 7;
  platform::ComponentId assessor_host = 5;
  platform::ComponentId replica_host = 6;
  /// Arms provenance tracing on every rig: each run closes its ledger
  /// faults' journeys with a kClassified terminal after the final
  /// diagnosis, and the campaign result carries the merged NDJSON dump
  /// plus the journey-completeness audit totals.
  bool provenance = false;
};

struct ChaosCampaignResult {
  analysis::ConfusionMatrix confusion;
  std::vector<CampaignResult::PerArchetype> per_archetype;
  std::size_t runs = 0;
  std::size_t correct = 0;
  // Diagnostic-path health totals, summed over all runs.
  std::uint64_t symptom_gaps = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t agent_drops_reported = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t chaos_dropped = 0;
  std::uint64_t chaos_corrupted = 0;
  /// Union of every run's metrics registry (counters add across runs), so
  /// the native diagnostic-path metrics — `diag.agent.retransmissions`,
  /// `diag.assessor.symptom_gaps`, `diag.hierarchy.recomputes`,
  /// `diag.evidence_staleness{fru=...}` — survive into bench exports.
  obs::Snapshot metrics;
  // Journey-completeness audit totals (provenance option only). Orphans
  // are non-chaos journeys that never reached a terminal outcome — faults
  // the diagnostic/maintenance pipeline lost track of.
  std::uint64_t journeys = 0;
  std::uint64_t chaos_journeys = 0;
  std::uint64_t journeys_classified = 0;
  std::uint64_t orphaned_journeys = 0;
  std::uint64_t spans = 0;
  std::uint64_t spans_dropped = 0;
  /// Concatenated per-run NDJSON journey dumps, folded in submission
  /// order: bit-identical for every --jobs value (simulated time only).
  std::string provenance_ndjson;

  [[nodiscard]] double accuracy() const {
    return runs == 0 ? 0.0
                     : static_cast<double>(correct) / static_cast<double>(runs);
  }
};

/// Runs every archetype across the seeds with the chaos treatment applied
/// to each fresh rig. The diagnosis is taken from the composed service
/// view, whichever position serves the subject.
///
/// Like run_campaign, executes on the exec::ExperimentRunner: up to
/// `jobs` parallel workers (0 = hardware concurrency), results — the
/// confusion matrix, telemetry totals and the merged metrics snapshot —
/// folded in submission order so every job count produces identical
/// output.
[[nodiscard]] ChaosCampaignResult run_chaos_campaign(
    const std::vector<Archetype>& archetypes,
    const std::vector<std::uint64_t>& seeds, ChaosOptions chaos = {},
    Fig10Options base_options = {}, unsigned jobs = 0);

/// Closes a finished run's provenance record (E19): traces a non-kNone
/// `final_verdict` (the harness's last verdict on `subject`) on its
/// journey, then terminates kClassified every ledger journey that reached
/// the verdict stage (first terminal wins). The rest stay open and the
/// returned audit counts them as orphans: completeness is earned.
obs::JourneyAudit close_journeys(
    obs::ProvenanceTracer& tracer,
    const std::vector<fault::InjectedFault>& ledger, const Subject& subject,
    fault::FaultClass final_verdict, tta::RoundId round);

/// Outcome of the silent-agent scenario: the victim component stays
/// perfectly healthy, only its diagnostic agent is crashed. The
/// pre-hardening architecture reports it verified-healthy — the worst
/// failure mode of a maintenance system.
struct SilentAgentOutcome {
  double trust = 1.0;
  double evidence_quality = 1.0;
  tta::RoundId evidence_age = 0;
  bool action_is_none = true;
  /// Whether the component's report row carries the
  /// "diagnostic-channel-degraded" meta-ONA.
  bool channel_degraded_ona = false;

  /// The trap this PR exists to close: no action requested AND full
  /// evidence quality, i.e. the silence is indistinguishable from health.
  [[nodiscard]] bool false_healthy() const {
    return action_is_none && evidence_quality >= 1.0;
  }
};

/// Crashes the victim's agent job at 300 ms on an otherwise fault-free
/// Fig. 10 rig and reports how the maintenance view describes the victim
/// after `horizon`.
[[nodiscard]] SilentAgentOutcome run_silent_agent_scenario(
    bool hardening, std::uint64_t seed = 1, platform::ComponentId victim = 1,
    sim::Duration horizon = sim::seconds(3));

}  // namespace decos::scenario
