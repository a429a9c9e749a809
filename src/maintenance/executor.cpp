#include "maintenance/executor.hpp"

#include <cmath>
#include <string>

#include "sim/trace.hpp"
#include "tta/node.hpp"

namespace decos::maintenance {
namespace {

/// Retry delay multiplier: attempt k waits latency * factor^(k-1).
constexpr double kBackoffFactor = 2.0;
/// Attempts before the FRU is quarantined as unrepairable.
constexpr std::uint32_t kMaxAttempts = 4;
/// Crystal drift of replacement hardware, ppm (well inside spec).
constexpr double kReplacementDriftPpm = 5.0;

}  // namespace

const char* to_string(WorkOrderState s) {
  switch (s) {
    case WorkOrderState::kScheduled: return "scheduled";
    case WorkOrderState::kVerifying: return "verifying";
    case WorkOrderState::kVerified: return "verified";
    case WorkOrderState::kQuarantined: return "quarantined";
  }
  return "?";
}

MaintenanceExecutor::MaintenanceExecutor(platform::System& system,
                                         diag::DiagnosticService& service,
                                         fault::FaultInjector& injector,
                                         Params params)
    : system_(system), service_(service), injector_(injector),
      p_(params), sim_(system.simulator()),
      pristine_vnets_(system.plan().vnets()), spares_(params.spares) {}

MaintenanceExecutor::~MaintenanceExecutor() {
  if (started_) service_.subscribe(nullptr);
}

void MaintenanceExecutor::start() {
  if (started_) return;
  started_ = true;
  sim_.metrics().gauge("maint.spare_pool").set(static_cast<double>(spares_));
  service_.subscribe(
      [this](const diag::VerdictChange& v) { on_verdict(v); });
}

bool MaintenanceExecutor::has_open_order(
    platform::ComponentId c, std::optional<platform::JobId> j) const {
  for (const WorkOrder& o : orders_) {
    if (o.is_open() && o.component == c && o.job == j) return true;
  }
  return false;
}

void MaintenanceExecutor::on_verdict(const diag::VerdictChange& v) {
  // Quarantined hardware is retired: neither the component nor the jobs
  // stranded on it can be serviced any more.
  if (quarantined_components_.contains(v.component)) return;
  if (v.job && quarantined_jobs_.contains(*v.job)) return;
  if (has_open_order(v.component, v.job)) return;
  if (analysis::decide(p_.strategy, v.cls) ==
      fault::MaintenanceAction::kNoAction) {
    return;
  }
  WorkOrder o;
  o.fru = v.fru;
  o.component = v.component;
  o.job = v.job;
  o.first_diagnosis = v.cls;
  o.opened = sim_.now();
  auto& prov = sim_.provenance();
  if (prov.enabled()) {
    if (o.job) o.provenance = prov.journey_for_job(*o.job);
    if (o.provenance == obs::kNoJourney) {
      o.provenance = prov.journey_for_component(o.component);
    }
    prov.event(o.provenance, obs::ProvStage::kAction, o.fru,
               "work order opened");
  }
  const std::size_t idx = orders_.size();
  orders_.push_back(std::move(o));
  sim_.metrics().counter("maint.work_orders").inc();
  sim_.log(sim::TraceCategory::kMaintenance, orders_[idx].fru,
           std::string("work order opened: ") + fault::to_string(v.cls));
  sim_.schedule_after(p_.technician_latency, [this, idx] { execute(idx); });
}

void MaintenanceExecutor::execute(std::size_t idx) {
  WorkOrder& o = orders_[idx];
  if (o.state == WorkOrderState::kQuarantined) return;

  // First attempt: the configured garage strategy applied to the opening
  // diagnosis. Retries: a fresh second opinion over the accumulated
  // evidence, always mapped through Fig. 11 — by the time a repair has
  // visibly failed, the recurring symptom pattern is richer than what the
  // first visit saw. A retry whose re-diagnosis comes back clean falls
  // back to Fig. 11 on the opening class (repeat the prescribed action).
  fault::MaintenanceAction action;
  if (o.attempts == 0) {
    action = analysis::decide(p_.strategy, o.first_diagnosis);
  } else {
    fault::FaultClass cls = (o.job ? service_.diagnose_job(*o.job)
                                   : service_.diagnose_component(o.component))
                                .cls;
    if (cls == fault::FaultClass::kNone) cls = o.first_diagnosis;
    action = fault::action_for(cls);
  }
  ++o.attempts;
  if (o.attempts > 1) {
    ++retries_;
    sim_.metrics().counter("maint.retries").inc();
  }

  if (action == fault::MaintenanceAction::kReplaceComponent) {
    // Spare-allocation fault site: reached once per real allocation.
    // Firing means the pulled unit is dead on arrival — it is discarded
    // (consumed without being installed) and the technician pulls again,
    // so a DOA on the last spare turns into a quarantine below.
    if (spares_ > 0 && fp_ && fp_->hit(fault::FaultSite::kSpareAlloc)) {
      --spares_;
      ++spares_consumed_;
      sim_.metrics().gauge("maint.spare_pool").set(static_cast<double>(spares_));
      sim_.log(sim::TraceCategory::kMaintenance, o.fru,
               "spare dead on arrival, pulling another");
    }
    if (spares_ == 0) {
      sim_.metrics().counter("maint.spares_exhausted").inc();
      sim_.log(sim::TraceCategory::kMaintenance, o.fru,
               "replacement needed but spare pool is empty");
      quarantine(o);
      return;
    }
    --spares_;
    ++spares_consumed_;
    sim_.metrics().gauge("maint.spare_pool").set(static_cast<double>(spares_));
  }

  o.open_span = sim_.provenance().begin_span(
      o.provenance, obs::ProvStage::kAction, o.fru, fault::to_string(action));
  o.actions.push_back(action);
  ++attempted_;
  sim_.metrics()
      .counter("maint.repairs",
               std::string("action=") + fault::to_string(action))
      .inc();

  // Score the executed action against the ground truth *now* — the truth
  // the bench test would see when the pulled unit arrives at the OEM.
  const fault::FaultClass truth = o.job
                                      ? injector_.truth_for_job(*o.job)
                                      : injector_.truth_for_component(o.component);
  nff_.record(truth, action);
  if (fault::evaluate_action(truth, action).unnecessary_removal) {
    o.nff = true;
    ++nff_removals_;
    sim_.metrics().counter("maint.nff_removals").inc();
    sim_.log(sim::TraceCategory::kMaintenance, o.fru,
             "removed hardware retests OK (NFF removal)");
    sim_.provenance().event(o.provenance, obs::ProvStage::kAction, o.fru,
                            "nff removal");
  }

  perform(o, action);
  o.state = WorkOrderState::kVerifying;
  sim_.log(sim::TraceCategory::kMaintenance, o.fru,
           std::string("executed ") + fault::to_string(action) +
               " (attempt " + std::to_string(o.attempts) + ")");

  // The replacement re-integrates (clock snap + listen-only rounds) before
  // the verification clock starts: reset trust after the settle, then the
  // reset trust must hold through the verification window.
  sim_.schedule_after(p_.settle, [this, idx] {
    WorkOrder& order = orders_[idx];
    if (order.state != WorkOrderState::kVerifying) return;
    // Repair-settle fault site: firing loses the post-settle trust reset,
    // so the verification window judges the repair on the FRU's
    // pre-repair trust trajectory (it recovers the slow way or fails and
    // retries).
    if (fp_ && fp_->hit(fault::FaultSite::kRepairSettle)) return;
    if (order.job) {
      service_.reset_job_trust(*order.job);
    } else {
      service_.reset_component_trust(order.component);
    }
  });
  sim_.schedule_after(p_.settle + p_.verify_window,
                      [this, idx] { verify(idx); });
}

void MaintenanceExecutor::perform(WorkOrder& o,
                                  fault::MaintenanceAction action) {
  switch (action) {
    case fault::MaintenanceAction::kReplaceComponent: {
      // New board: persistent component faults leave with the old unit,
      // the replacement's controls are pristine, its crystal is in spec,
      // and the node re-integrates with state synchronisation.
      injector_.apply_action(o.component, std::nullopt, action);
      tta::TtaNode& node = system_.cluster().node(o.component);
      node.faults() = tta::FaultControls{};
      node.clock().set_drift_ppm(kReplacementDriftPpm);
      node.restart();
      break;
    }
    case fault::MaintenanceAction::kInspectConnector: {
      // Re-seating the connector ends any in-flight episode; whether the
      // intermittent process itself stops is judged by the ground truth
      // (inspection cures a borderline fault, nothing else).
      injector_.apply_action(o.component, std::nullopt, action);
      tta::FaultControls& fc = system_.cluster().node(o.component).faults();
      fc.rx_corrupt_prob = 0.0;
      fc.rx_drop_prob = 0.0;
      break;
    }
    case fault::MaintenanceAction::kSoftwareUpdate: {
      if (!o.job) break;
      injector_.apply_action(o.component, o.job, action);
      platform::Job& job = system_.job(*o.job);
      platform::SoftwareFaultControls& sw = job.sw_faults();
      sw.crashed = false;
      sw.heisenbug_prob = 0.0;
      sw.bohrbug_trigger = nullptr;
      break;
    }
    case fault::MaintenanceAction::kInspectTransducer: {
      if (!o.job) break;
      injector_.apply_action(o.component, o.job, action);
      platform::Job& job = system_.job(*o.job);
      for (std::size_t s = 0; s < job.sensor_count(); ++s) {
        job.sensor(s).set_fault(platform::SensorFaultMode::kHealthy,
                                sim_.now());
      }
      for (std::size_t a = 0; a < job.actuator_count(); ++a) {
        job.actuator(a).set_fault(platform::ActuatorFaultMode::kHealthy);
      }
      break;
    }
    case fault::MaintenanceAction::kUpdateConfiguration: {
      if (!o.job) break;
      injector_.apply_action(o.component, o.job, action);
      // Restore the as-designed resource records of every vnet the job
      // sends on (the misconfigured queue/budget sizing).
      for (const vnet::PortConfig& pc : system_.plan().ports()) {
        if (pc.owner != *o.job) continue;
        system_.plan().mutable_vnet(pc.vnet) = pristine_vnets_.at(pc.vnet);
      }
      break;
    }
    case fault::MaintenanceAction::kNoAction:
      break;
  }
}

void MaintenanceExecutor::verify(std::size_t idx) {
  WorkOrder& o = orders_[idx];
  if (o.state != WorkOrderState::kVerifying) return;
  // Repair-verify fault site: firing defers the verdict by one more full
  // verification window (the technician's conformance check is postponed,
  // the repair stays in kVerifying meanwhile).
  if (fp_ && fp_->hit(fault::FaultSite::kRepairVerify)) {
    sim_.schedule_after(p_.verify_window, [this, idx] { verify(idx); });
    return;
  }
  // Composed service accessors: the active assessor in legacy mode, the
  // FRU's serving tester (or its disseminated verdict) in hierarchy mode.
  const double trust = o.job ? service_.job_trust(*o.job)
                             : service_.component_trust(o.component);
  if (trust >= Params::verify_trust) {
    o.state = WorkOrderState::kVerified;
    o.closed = sim_.now();
    sim_.provenance().end_span(o.open_span, obs::ProvOutcome::kRepaired);
    sim_.provenance().set_terminal(o.provenance, obs::ProvOutcome::kRepaired);
    ++verified_;
    sim_.metrics().counter("maint.repairs_verified").inc();
    sim_.metrics().histogram("maint.ttr_us").record((o.closed - o.opened).ns() /
                                                    1000);
    sim_.log(sim::TraceCategory::kMaintenance, o.fru,
             "repair verified, trust reconverged");
    return;
  }
  ++failed_;
  sim_.provenance().end_span(o.open_span, o.nff ? obs::ProvOutcome::kNff
                                                : obs::ProvOutcome::kRetried);
  sim_.metrics().counter("maint.repair_failures").inc();
  sim_.log(sim::TraceCategory::kMaintenance, o.fru,
           "repair did not take (trust " + std::to_string(trust) + ")");
  if (o.attempts >= kMaxAttempts) {
    quarantine(o);
    return;
  }
  // Exponential backoff: the garage escalates, it does not hammer.
  const double scale = std::pow(kBackoffFactor,
                                static_cast<double>(o.attempts - 1));
  const sim::Duration delay{static_cast<std::int64_t>(
      static_cast<double>(p_.technician_latency.ns()) * scale)};
  o.state = WorkOrderState::kScheduled;
  sim_.schedule_after(delay, [this, idx] { execute(idx); });
}

void MaintenanceExecutor::quarantine(WorkOrder& o) {
  o.state = WorkOrderState::kQuarantined;
  o.closed = sim_.now();
  sim_.provenance().end_span(o.open_span, obs::ProvOutcome::kQuarantined);
  sim_.provenance().set_terminal(o.provenance, obs::ProvOutcome::kQuarantined);
  ++quarantines_;
  sim_.metrics().counter("maint.quarantined").inc();
  service_.assert_external_ona(o.component, "maintenance-degraded");
  sim_.log(sim::TraceCategory::kMaintenance, o.fru,
           "quarantined unrepaired (maintenance-degraded)");
  if (o.job) {
    quarantined_jobs_.insert(*o.job);
    degraded_jobs_.push_back(*o.job);
  } else {
    quarantined_components_.insert(o.component);
    // Every application job stranded on the unrepairable hardware is
    // degraded with it.
    for (platform::JobId j = 0;
         j < static_cast<platform::JobId>(system_.job_count()); ++j) {
      if (system_.job(j).host() != o.component) continue;
      if (service_.is_diagnostic_job(j)) continue;
      degraded_jobs_.push_back(j);
    }
  }
  sim_.metrics().gauge("maint.degraded_jobs")
      .set(static_cast<double>(degraded_jobs_.size()));
}

}  // namespace decos::maintenance
