#include "scenario/chaos.hpp"

#include <algorithm>
#include <string>

#include "exec/runner.hpp"

namespace decos::scenario {
namespace {

sim::SimTime ms(std::int64_t v) { return sim::SimTime{0} + sim::milliseconds(v); }

/// Everything one chaos run hands back to the merge thread: the worker
/// tears the rig down after harvesting, so the merged ChaosCampaignResult
/// (confusion matrix, telemetry totals, snapshot union) is only ever
/// touched on the calling thread.
struct ChaosRun {
  fault::FaultClass predicted = fault::FaultClass::kNone;
  std::uint64_t failovers = 0;
  std::uint64_t failbacks = 0;
  std::uint64_t symptom_gaps = 0;
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t agent_drops_reported = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t heartbeats_received = 0;
  std::uint64_t chaos_dropped = 0;
  std::uint64_t chaos_corrupted = 0;
  obs::Snapshot metrics;
  obs::JourneyAudit audit;
  std::string ndjson;
};

ChaosRun run_one_chaos(const Archetype& arch, std::uint64_t seed,
                       const ChaosOptions& chaos,
                       const Fig10Options& base_options) {
  Fig10Options opts = base_options;
  opts.seed = seed;
  opts.components = chaos.components;
  opts.assessor_host = chaos.assessor_host;
  opts.assessor_replicas = {chaos.replica_host};
  opts.assessor.hardening = chaos.hardening;
  opts.provenance = opts.provenance || chaos.provenance;
  Fig10System rig(opts);
  arch.inject(rig);

  fault::ChaosInjector storm(rig.sim(), rig.system());
  if (chaos.drop_prob > 0.0 || chaos.corrupt_prob > 0.0) {
    storm.degrade_diagnostic_channel(chaos.drop_prob, chaos.corrupt_prob,
                                     ms(0));
  }
  if (chaos.kill_primary) {
    storm.kill_host(chaos.assessor_host, chaos.kill_at);
    if (chaos.revive_primary) {
      storm.revive_host(chaos.assessor_host, chaos.revive_at);
    }
  }

  rig.run(arch.horizon);
  ChaosRun out;
  out.predicted = arch.diagnose(rig).cls;

  auto& service = rig.diag();
  out.failovers = service.failovers();
  out.failbacks = service.failbacks();
  for (std::size_t i = 0; i < service.assessor_count(); ++i) {
    const auto& a = service.assessor(i);
    out.symptom_gaps += a.symptom_gaps();
    out.duplicates_dropped += a.duplicates_dropped();
    out.agent_drops_reported += a.agent_drops_reported();
    out.heartbeats_received += a.heartbeats_received();
  }
  for (platform::ComponentId c = 0; c < chaos.components; ++c) {
    const auto& agent = service.agent(c);
    out.retransmissions += agent.retransmissions();
    out.heartbeats_sent += agent.heartbeats_sent();
  }
  out.chaos_dropped = storm.messages_dropped();
  out.chaos_corrupted = storm.messages_corrupted();
  out.metrics = rig.sim().metrics().snapshot();

  auto& tracer = rig.sim().provenance();
  if (tracer.enabled()) {
    out.audit = close_journeys(tracer, rig.injector().ledger(),
                               arch.subject(rig), out.predicted,
                               service.assessor().current_round());
    out.ndjson = tracer.ndjson();
  }
  return out;
}

}  // namespace

obs::JourneyAudit close_journeys(
    obs::ProvenanceTracer& tracer,
    const std::vector<fault::InjectedFault>& ledger, const Subject& subject,
    fault::FaultClass final_verdict, tta::RoundId round) {
  if (final_verdict != fault::FaultClass::kNone) {
    tracer.event(subject.job ? tracer.journey_for_job(*subject.job)
                             : tracer.journey_for_component(subject.component),
                 obs::ProvStage::kVerdict, "assessor",
                 fault::to_string(final_verdict), round);
  }
  const auto verdict_reached = [&](obs::ProvenanceId id) {
    const obs::ProvJourney* jr = tracer.journey(id);
    return jr != nullptr &&
           jr->first_stage_ns[static_cast<int>(obs::ProvStage::kVerdict)] >=
               0;
  };
  for (const fault::InjectedFault& f : ledger) {
    bool discharged = verdict_reached(f.provenance);
    if (!discharged) {
      // Overlapping faults on one FRU: the latest injection takes over
      // the FRU map, so downstream stages land on the owning journey.
      // A verdict discharges the FRU as a whole — credit every ledger
      // journey that fed the same evidence stream.
      const obs::ProvenanceId owner =
          f.job.has_value() ? tracer.journey_for_job(*f.job)
                            : tracer.journey_for_component(f.component);
      discharged = owner != f.provenance && verdict_reached(owner);
    }
    if (discharged) {
      tracer.set_terminal(f.provenance, obs::ProvOutcome::kClassified);
    }
  }
  return tracer.audit();
}

ChaosCampaignResult run_chaos_campaign(const std::vector<Archetype>& archetypes,
                                       const std::vector<std::uint64_t>& seeds,
                                       ChaosOptions chaos,
                                       Fig10Options base_options,
                                       unsigned jobs) {
  ChaosCampaignResult result;
  result.per_archetype.reserve(archetypes.size());
  for (const Archetype& arch : archetypes) {
    result.per_archetype.push_back({arch.name, arch.truth, 0, 0});
  }
  if (seeds.empty()) return result;

  std::vector<std::function<ChaosRun()>> runs;
  runs.reserve(archetypes.size() * seeds.size());
  for (const Archetype& arch : archetypes) {
    for (const std::uint64_t seed : seeds) {
      runs.push_back([&arch, seed, &chaos, &base_options] {
        return run_one_chaos(arch, seed, chaos, base_options);
      });
    }
  }

  exec::ExperimentRunner runner(jobs);
  runner.run_and_merge<ChaosRun>(
      std::move(runs), [&](std::size_t i, ChaosRun& r) {
        const Archetype& arch = archetypes[i / seeds.size()];
        auto& row = result.per_archetype[i / seeds.size()];
        result.confusion.add(arch.truth, r.predicted);
        ++result.runs;
        ++row.runs;
        if (r.predicted == arch.truth) {
          ++result.correct;
          ++row.correct;
        }
        result.failovers += r.failovers;
        result.failbacks += r.failbacks;
        result.symptom_gaps += r.symptom_gaps;
        result.duplicates_dropped += r.duplicates_dropped;
        result.agent_drops_reported += r.agent_drops_reported;
        result.retransmissions += r.retransmissions;
        result.heartbeats_sent += r.heartbeats_sent;
        result.heartbeats_received += r.heartbeats_received;
        result.chaos_dropped += r.chaos_dropped;
        result.chaos_corrupted += r.chaos_corrupted;
        result.metrics.merge(r.metrics);
        result.journeys += r.audit.journeys;
        result.chaos_journeys += r.audit.chaos_journeys;
        result.journeys_classified += r.audit.classified;
        result.orphaned_journeys += r.audit.orphans;
        result.spans += r.audit.spans;
        result.spans_dropped += r.audit.spans_dropped;
        result.provenance_ndjson += r.ndjson;
      });
  return result;
}

SilentAgentOutcome run_silent_agent_scenario(bool hardening,
                                             std::uint64_t seed,
                                             platform::ComponentId victim,
                                             sim::Duration horizon) {
  // A single-descriptor sweep on the experiment engine, so the scenario
  // shares the campaign's isolation contract (fresh rig, worker-side
  // harvest) and its error reporting.
  exec::ExperimentRunner runner(1);
  SilentAgentOutcome out;
  runner.run_and_merge<SilentAgentOutcome>(
      {[&] {
        Fig10Options opts;
        opts.seed = seed;
        opts.assessor.hardening = hardening;
        Fig10System rig(opts);

        fault::ChaosInjector storm(rig.sim(), rig.system());
        storm.silence_job(rig.diag().agent_job(victim), ms(300));
        rig.run(horizon);

        SilentAgentOutcome o;
        o.trust = rig.diag().assessor().component_trust(victim);
        // Component rows come first, in component order.
        const diag::FruReport r = rig.diag().report().at(victim);
        o.evidence_quality = r.evidence_quality;
        o.evidence_age = r.evidence_age;
        o.action_is_none = r.action == fault::MaintenanceAction::kNoAction;
        o.channel_degraded_ona = std::ranges::count(
            r.asserted_onas, "diagnostic-channel-degraded") > 0;
        return o;
      }},
      [&](std::size_t, const SilentAgentOutcome& o) { out = o; });
  return out;
}

}  // namespace decos::scenario
