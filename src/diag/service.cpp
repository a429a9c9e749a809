#include "diag/service.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string_view>

namespace decos::diag {
namespace {

constexpr std::string_view kChannelDegraded = "diagnostic-channel-degraded";
/// Dissemination vnet budget (messages per round per node) and queue depth.
constexpr std::uint16_t kDissemMsgsPerRound = 16;
constexpr std::uint16_t kDissemQueueDepth = 128;

const OnaEngine& standard_onas() {
  static const OnaEngine kRules = OnaEngine::standard_rules();
  return kRules;
}

/// A verdict served from the dissemination cache: second-hand, with no
/// local evidence behind it.
Diagnosis disseminated(const VerdictDelta& d) {
  Diagnosis out;
  out.cls = d.cls;
  out.confidence = 0.5;
  out.rationale = "disseminated verdict (origin position " +
                  std::to_string(d.origin) + ", round " +
                  std::to_string(d.round) + ")";
  return out;
}

}  // namespace

DiagnosticService::DiagnosticService(platform::System& system, SpecTable specs,
                                     fault::SpatialLayout layout, Params params)
    : system_(system), specs_(std::move(specs)),
      hardening_(params.assessor.hardening),
      component_verdicts_(system.component_count(), fault::FaultClass::kNone),
      asserted_onas_(system.component_count(), 0),
      host_diag_(system.component_count()) {
  assert(standard_onas().rules().size() < 32);  // bits of asserted_onas_
  // Application jobs existing now are the diagnosis subjects; everything
  // created below belongs to the diagnostic DAS.
  for (platform::JobId j = 0; j < static_cast<platform::JobId>(system_.job_count());
       ++j) {
    subject_jobs_.push_back(j);
  }
  // report() rows name their FRU by these labels; subjects are fixed now.
  for (platform::ComponentId c = 0; c < system_.component_count(); ++c) {
    component_frus_.push_back("component " + std::to_string(c));
  }
  for (platform::JobId j : subject_jobs_) {
    const auto& job = system_.job(j);
    job_frus_.push_back("job " + job.name() + " (j" + std::to_string(j) +
                        ") on component " + std::to_string(job.host()));
  }
  job_verdicts_.assign(subject_jobs_.size(), fault::FaultClass::kNone);
  obs::Registry& metrics = system_.simulator().metrics();
  // Hardening exports each component's evidence staleness.
  const std::size_t stale_gauges = hardening_ ? component_frus_.size() : 0;
  for (std::size_t c = 0; c < stale_gauges; ++c) {
    staleness_metrics_.push_back(
        metrics.gauge("diag.evidence_staleness", "fru=c" + std::to_string(c)));
  }

  const platform::DasId das =
      system_.add_das("diagnostic", platform::Criticality::kSafetyCritical);

  hosts_.push_back(params.assessor_host);
  hosts_.insert(hosts_.end(), params.replica_hosts.begin(),
                params.replica_hosts.end());

  view_topo_ = HierarchyTopology(hosts_, system_.component_count());
  const std::uint32_t dim = view_topo_.dimension();
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    assessors_.push_back(std::make_unique<Assessor>(
        params.assessor, layout, system_.component_count(),
        static_cast<std::uint32_t>(system_.job_count()),
        HierarchyTopology(hosts_, system_.component_count()),
        static_cast<std::uint32_t>(i)));
    Assessor* assessor = assessors_.back().get();
    // Only position 0 feeds the ingest counters: with several positions a
    // symptom reaches every tester of its subject and would count once
    // per tester. The dissemination counters are per position by nature.
    if (i == 0) assessor->bind_metrics(metrics);
    assessor->bind_hierarchy_metrics(metrics);
    // Every position traces provenance: spans carry the journey id, so a
    // reassigned tester keeps the journey record seamless (the tracer
    // dedupes repeats by coalescing, not by source).
    assessor->bind_provenance(&system_.simulator().provenance());
    platform::Job& job = system_.add_job(
        das, i == 0 ? "diag.assessor" : "diag.assessor.r" + std::to_string(i),
        hosts_[i],
        [this, assessor, i](platform::JobContext& ctx) {
          // Each position re-derives its tester sets from its own host's
          // membership view, so a dead assessor's slice migrates by local
          // recomputation alone.
          refresh_local_view(*assessor, i);
          assessor->process(ctx);
          // One verdict pass per round, run by the first position to run.
          if (ctx.round() != last_pass_) verdict_pass(ctx.round());
        });
    assessor_jobs_.push_back(job.id());
    for (platform::JobId j : subject_jobs_) {
      assessor->register_subject_job(j, system_.job(j).host());
    }
  }
  assessor_job_ = assessor_jobs_.front();

  // Agents mirror the assessor's hardening switch so one Params flag
  // ablates the whole diagnostic-path hardening end to end.
  for (platform::ComponentId c = 0; c < system_.component_count(); ++c) {
    agents_.push_back(std::make_unique<Agent>(system_, das, c, specs_,
                                              hardening_));
    for (auto& assessor : assessors_) {
      assessor->register_agent(agents_.back()->job_id(), c);
    }
  }

  // The star coupler (bus guardian) reports blocked transmissions
  // directly: it is physically part of the interconnect, not of any
  // component, so its evidence does not travel over a component's agent.
  system_.cluster().bus().on_blocked = [this](tta::NodeId sender,
                                              sim::SimTime when) {
    Symptom s;
    s.type = SymptomType::kGuardianBlock;
    s.observer = sender;  // self-incriminating by construction
    s.subject_component = sender;
    s.round = system_.cluster().schedule().round_at(when);
    s.magnitude = 1.0;
    for (auto& assessor : assessors_) assessor->ingest_external(s);
  };

  // Verdict deltas travel on their own vnet: dissemination must compete
  // for bandwidth like everything else, but never with the symptom stream
  // it summarises. A one-position cube has no edges and gets no vnet.
  if (dim > 0) {
    const platform::VnetId dissem = system_.add_vnet(
        "vn.diag.dissem", kDissemMsgsPerRound, kDissemQueueDepth);
    for (std::size_t i = 0; i < assessors_.size(); ++i) {
      // Cube edges are fixed by position (p <-> p xor 2^s); only liveness
      // changes at runtime, so the port's receiver set never needs rewiring.
      std::vector<platform::JobId> cube_neighbors;
      for (std::uint32_t s = 0; s < dim; ++s) {
        const std::size_t q = i ^ (std::size_t{1} << s);
        if (q < assessor_jobs_.size()) {
          cube_neighbors.push_back(assessor_jobs_[q]);
        }
      }
      assessors_[i]->set_dissemination_port(system_.add_port(
          assessor_jobs_[i], "diag.dissem." + std::to_string(i), dissem,
          std::move(cube_neighbors)));
      for (std::size_t q = 0; q < assessor_jobs_.size(); ++q) {
        if (q != i) {
          assessors_[i]->register_peer(assessor_jobs_[q],
                                       static_cast<std::uint32_t>(q));
        }
      }
    }
  }
  // Agents route by subject over per-position unicast ports.
  for (platform::ComponentId c = 0; c < system_.component_count(); ++c) {
    std::vector<platform::PortId> tester_ports;
    tester_ports.reserve(assessor_jobs_.size());
    for (std::size_t i = 0; i < assessor_jobs_.size(); ++i) {
      tester_ports.push_back(system_.add_port(
          agents_[c]->job_id(),
          "symptoms." + std::to_string(c) + ".p" + std::to_string(i),
          platform::kDiagnosticVnet, {assessor_jobs_[i]}));
    }
    agents_[c]->route_over(&view_topo_, std::move(tester_ports));
  }
  metrics.gauge("diag.hierarchy.dimension").set(static_cast<double>(dim));
  metrics.gauge("diag.hierarchy.positions")
      .set(static_cast<double>(view_topo_.positions()));
  recomputes_metric_ = metrics.gauge("diag.hierarchy.recomputes");
}

void DiagnosticService::refresh_local_view(Assessor& a, std::size_t i) {
  const std::uint64_t membership =
      system_.cluster().node(hosts_[i]).membership();
  alive_scratch_.assign(hosts_.size(), false);
  for (std::size_t k = 0; k < hosts_.size(); ++k) {
    alive_scratch_[k] = ((membership >> hosts_[k]) & 1u) != 0;
  }
  a.refresh_topology(alive_scratch_);
}

void DiagnosticService::refresh_view() {
  // The engineer-facing view composes each host's *self*-liveness — the
  // same fail-silent self-exclusion rule every assessor applies locally.
  alive_scratch_.assign(hosts_.size(), false);
  for (std::size_t k = 0; k < hosts_.size(); ++k) {
    alive_scratch_[k] = host_alive(hosts_[k]);
  }
  view_topo_.update(alive_scratch_);
}

const Assessor* DiagnosticService::resolve_component(
    platform::ComponentId c, const VerdictDelta** delta) const {
  if (delta) *delta = nullptr;
  const auto& testers = view_topo_.testers(c);
  for (const HierarchyTopology::Position p : testers) {
    const Assessor& a = *assessors_[p];
    // First tester (in priority order) that actually heard the FRU's
    // agent composes the verdict from its local evidence.
    if (a.ever_heard(c)) return &a;
  }
  if (!testers.empty()) {
    // Responsible tester was (re)assigned after the agent went quiet —
    // serve the disseminated verdict it caches, if any.
    const Assessor& a = *assessors_[testers.front()];
    if (delta) *delta = a.cached_component_delta(c);
    return &a;
  }
  // Every position dead: the primary's frozen state is the best view left.
  return assessors_.front().get();
}

const Assessor* DiagnosticService::resolve_job(
    platform::JobId j, const VerdictDelta** delta) const {
  const platform::ComponentId host = system_.job(j).host();
  const Assessor* a = resolve_component(host, nullptr);
  // A tester that never heard the host's agent serves the job's
  // disseminated verdict, if it caches one.
  *delta = a->ever_heard(host) ? nullptr : a->cached_job_delta(j);
  return a;
}

double DiagnosticService::component_trust(platform::ComponentId c) const {
  const VerdictDelta* d = nullptr;
  const Assessor* a = resolve_component(c, &d);
  return d ? d->trust : a->component_trust(c);
}

double DiagnosticService::job_trust(platform::JobId j) const {
  const VerdictDelta* d = nullptr;
  const Assessor* a = resolve_job(j, &d);
  return d ? d->trust : a->job_trust(j);
}

Diagnosis DiagnosticService::diagnose_component(
    platform::ComponentId c) const {
  const VerdictDelta* d = nullptr;
  const Assessor* a = resolve_component(c, &d);
  return d ? disseminated(*d) : a->diagnose_component(c);
}

Diagnosis DiagnosticService::diagnose_job(platform::JobId j) const {
  const VerdictDelta* d = nullptr;
  const Assessor* a = resolve_job(j, &d);
  return d ? disseminated(*d) : a->diagnose_job(j);
}

std::optional<tta::RoundId> DiagnosticService::first_component_violation(
    platform::ComponentId c) const {
  // Composed minimum over every position: only `c`'s testers ever ingest
  // evidence about it, so this is the earliest detection instant any
  // (possibly since-reassigned) tester recorded.
  std::optional<tta::RoundId> best;
  for (const auto& a : assessors_) {
    const auto v = a->first_component_violation(c);
    if (v && (!best || *v < *best)) best = v;
  }
  return best;
}

std::optional<tta::RoundId> DiagnosticService::first_job_violation(
    platform::JobId j) const {
  std::optional<tta::RoundId> best;
  for (const auto& a : assessors_) {
    const auto v = a->first_job_violation(j);
    if (v && (!best || *v < *best)) best = v;
  }
  return best;
}

Assessor::HierarchyStats DiagnosticService::hierarchy_stats() const {
  Assessor::HierarchyStats total;
  for (const auto& a : assessors_) {
    const Assessor::HierarchyStats& s = a->hierarchy_stats();
    total.symptoms_accepted += s.symptoms_accepted;
    total.symptoms_filtered += s.symptoms_filtered;
    total.deltas_emitted += s.deltas_emitted;
    total.deltas_forwarded += s.deltas_forwarded;
    total.deltas_accepted += s.deltas_accepted;
    total.deltas_duplicate += s.deltas_duplicate;
    total.deltas_rejected += s.deltas_rejected;
  }
  return total;
}

bool DiagnosticService::is_diagnostic_job(platform::JobId j) const {
  if (std::find(assessor_jobs_.begin(), assessor_jobs_.end(), j) !=
      assessor_jobs_.end()) {
    return true;
  }
  return std::any_of(agents_.begin(), agents_.end(),
                     [j](const auto& a) { return a->job_id() == j; });
}

bool DiagnosticService::host_alive(platform::ComponentId c) const {
  // A fail-silent node drops its own bit from its membership vector, so
  // the node's self-view is a clean liveness test that needs no quorum.
  const auto& node = system_.cluster().node(c);
  return ((node.membership() >> c) & 1u) != 0;
}

void DiagnosticService::assert_external_ona(platform::ComponentId c,
                                            const std::string& name) {
  auto& onas = external_onas_[c];
  if (std::find(onas.begin(), onas.end(), name) != onas.end()) return;
  onas.push_back(name);
  system_.simulator().metrics().counter("diag.ona_assertions", "ona=" + name)
      .inc();
}

void DiagnosticService::retract_external_ona(platform::ComponentId c,
                                             const std::string& name) {
  auto it = external_onas_.find(c);
  if (it == external_onas_.end()) return;
  std::erase(it->second, name);
}

void DiagnosticService::reset_component_trust(platform::ComponentId c) {
  for (auto& assessor : assessors_) assessor->reset_component_trust(c);
}

void DiagnosticService::reset_job_trust(platform::JobId j) {
  for (auto& assessor : assessors_) assessor->reset_job_trust(j);
}

void DiagnosticService::bind_fault_points(fault::FaultPointRegistry* fp) {
  for (auto& assessor : assessors_) assessor->bind_fault_points(fp);
  for (auto& agent : agents_) agent->bind_fault_points(fp);
}

std::size_t DiagnosticService::record_detection_latency(
    const fault::FaultInjector& injector) {
  obs::Registry& metrics = system_.simulator().metrics();
  obs::Histogram aggregate = metrics.histogram("diag.detection_latency_us");
  const sim::Duration round_len = system_.cluster().schedule().round_length();

  std::size_t recorded = 0;
  for (const fault::InjectedFault& f : injector.ledger()) {
    // A job-level fault is detected when its software FRU is suspected; a
    // component-level fault when the hardware FRU is. The composed
    // accessors resolve to the earliest-recording tester.
    std::optional<tta::RoundId> violation =
        f.job ? first_job_violation(*f.job)
              : first_component_violation(f.component);
    std::string fru_label = f.job ? "fru=job." + std::to_string(*f.job)
                                  : "fru=component." + std::to_string(f.component);
    if (!violation) continue;
    // Rounds open at round * round_length on the reference base; the
    // violation instant is the end of the assessment round that tripped.
    const sim::SimTime detected = sim::SimTime::zero() +
                                  round_len * static_cast<std::int64_t>(*violation + 1);
    if (detected < f.start) continue;  // suspected before this injection
    const std::int64_t latency_us = (detected - f.start).ns() / 1000;
    aggregate.record(latency_us);
    metrics.histogram("diag.detection_latency_us", fru_label).record(latency_us);
    ++recorded;
  }
  return recorded;
}

std::vector<FruReport> DiagnosticService::report() const {
  // The report is composed from the per-slice partial views: each
  // component row is answered by its serving tester (local evidence first,
  // disseminated verdict as the fallback), so no single assessor ever
  // needs the whole cluster's evidence in memory.
  const OnaEngine& onas = standard_onas();
  std::vector<FruReport> rows;
  // Each component's own classification; its job rows reuse it.
  std::vector<Diagnosis> host_diag(system_.component_count());
  for (platform::ComponentId c = 0; c < system_.component_count(); ++c) {
    const VerdictDelta* delta = nullptr;
    const Assessor& a = *resolve_component(c, &delta);
    FruReport row;
    row.fru = component_frus_[c];
    row.component = c;
    row.trust = delta ? delta->trust : a.component_trust(c);
    // One feature record per row: the verdict and the assertions judge
    // the same state.
    const OnaContext ctx{c, a.component_features(c), a.current_round()};
    host_diag[c] = a.diagnose_component(c, ctx.features);
    row.diagnosis = delta ? disseminated(*delta) : host_diag[c];
    row.action = row.diagnosis.action();
    row.evidence_quality = delta ? 0.0 : a.evidence_quality(c);
    row.evidence_age = a.evidence_age(c);
    row.evidence_fresh = delta ? false : a.evidence_fresh(c);
    for (const auto* hit : onas.evaluate(ctx)) {
      row.asserted_onas.push_back(hit->name());
    }
    // Meta-ONA: the diagnostic channel itself is out of norm — the FRU's
    // agent has gone silent and this row's verdict rests on stale data.
    if (a.channel_degraded(c)) {
      row.asserted_onas.emplace_back(kChannelDegraded);
    }
    auto ext = external_onas_.find(c);
    if (ext != external_onas_.end()) {
      row.asserted_onas.insert(row.asserted_onas.end(), ext->second.begin(),
                               ext->second.end());
    }
    rows.push_back(std::move(row));
  }
  for (std::size_t i = 0; i < subject_jobs_.size(); ++i) {
    const platform::JobId j = subject_jobs_[i];
    const platform::ComponentId host = system_.job(j).host();
    const VerdictDelta* delta = nullptr;
    const Assessor& a = *resolve_job(j, &delta);
    FruReport row;
    row.fru = job_frus_[i];
    row.component = host;
    row.job = j;
    row.trust = delta ? delta->trust : a.job_trust(j);
    row.diagnosis =
        delta ? disseminated(*delta) : a.diagnose_job(j, host_diag[host]);
    row.action = row.diagnosis.action();
    row.evidence_quality = a.job_evidence_quality(j);
    row.evidence_age = a.evidence_age(host);
    row.evidence_fresh = a.evidence_fresh(host);
    rows.push_back(std::move(row));
  }
  return rows;
}

void DiagnosticService::verdict_pass(tta::RoundId round) {
  last_pass_ = round;
  refresh_view();
  recomputes_metric_.set(static_cast<double>(view_topo_.recomputes()));
  const OnaEngine& onas = standard_onas();
  const std::uint32_t channel_bit = 1u << onas.rules().size();
  for (platform::ComponentId c = 0; c < system_.component_count(); ++c) {
    const VerdictDelta* delta = nullptr;
    const Assessor& a = *resolve_component(c, &delta);
    if (hardening_) {
      staleness_metrics_[c].set(static_cast<double>(a.evidence_age(c)));
    }
    host_diag_[c].reset();
    std::uint32_t asserted = a.channel_degraded(c) ? channel_bit : 0;
    fault::FaultClass cls = fault::FaultClass::kNone;
    const double trust = delta ? delta->trust : a.component_trust(c);
    if (trust < TrustParams::report_threshold) {
      const OnaContext ctx{c, a.component_features(c), a.current_round()};
      host_diag_[c] = a.diagnose_component(c, ctx.features);
      cls = delta ? delta->cls : host_diag_[c]->cls;
      for (const auto* hit : onas.evaluate(ctx)) {
        asserted |= 1u << (hit - onas.rules().data());
      }
    }
    // Onsets only: an assertion that holds round after round counts once.
    for (std::uint32_t rise = asserted & ~asserted_onas_[c]; rise != 0;
         rise &= rise - 1) {
      const auto r = static_cast<std::size_t>(std::countr_zero(rise));
      system_.simulator().metrics().counter("diag.ona_assertions",
          "ona=" + (r < onas.rules().size() ? onas.rules()[r].name()
                                            : std::string(kChannelDegraded)))
          .inc();
    }
    asserted_onas_[c] = asserted;
    settle_verdict(component_verdicts_[c],
                   VerdictChange{component_frus_[c], c, std::nullopt, cls},
                   round);
  }
  for (std::size_t i = 0; i < subject_jobs_.size(); ++i) {
    const platform::JobId j = subject_jobs_[i];
    const platform::ComponentId host = system_.job(j).host();
    const VerdictDelta* delta = nullptr;
    const Assessor& a = *resolve_job(j, &delta);
    fault::FaultClass cls = fault::FaultClass::kNone;
    if (delta) {
      if (delta->trust < TrustParams::report_threshold) cls = delta->cls;
    } else if (a.job_trust(j) < TrustParams::report_threshold) {
      if (!host_diag_[host]) host_diag_[host] = a.diagnose_component(host);
      cls = a.diagnose_job(j, *host_diag_[host]).cls;
    }
    settle_verdict(job_verdicts_[i],
                   VerdictChange{job_frus_[i], host, j, cls}, round);
  }
}

void DiagnosticService::settle_verdict(fault::FaultClass& held,
                                       const VerdictChange& change,
                                       tta::RoundId round) {
  if (change.cls == held) return;
  held = change.cls;
  system_.simulator().metrics().counter("diag.classifications",
      std::string("cls=") + fault::to_string(change.cls)).inc();
  obs::ProvenanceTracer& prov = system_.simulator().provenance();
  if (prov.enabled() && change.cls != fault::FaultClass::kNone) {
    const obs::ProvenanceId journey =
        change.job ? prov.journey_for_job(*change.job)
                   : prov.journey_for_component(change.component);
    prov.event(journey, obs::ProvStage::kVerdict, "assessor",
               fault::to_string(change.cls), round);
  }
  if (listener_) listener_(change);
}

}  // namespace decos::diag
