// Closed-loop maintenance: execute the Fig. 11 actions inside the
// simulation.
//
// The paper stops where the maintenance report is handed to the service
// technician; this module *is* the technician. The MaintenanceExecutor
// subscribes to the DiagnosticService's verdict transitions, opens a work
// order in the round a FRU below the report threshold gets an actionable
// verdict, and performs the chosen action on the simulated system after a
// technician latency: software update (job reset), hardware replacement
// from a bounded spare pool (with TtaNode re-integration), transducer
// swap, connector re-seating, or configuration restore.
//
// Every repair is verified: the FRU's trust is maintenance-reset once the
// replaced node has settled, and must hold above the conformance
// threshold for a verification window. A repair that fails to take is
// retried with exponential backoff, re-diagnosing from the — by then
// richer — evidence, so a wrong first action (the mis-classification
// cost) is recorded as an observable action trajectory. Executed hardware
// removals are scored against the injector's ground truth, turning NFF
// removals into a *measured* quantity. When the spare pool runs dry the
// FRU is quarantined, the `maintenance-degraded` meta-ONA is raised on
// its report row, and the DAS jobs depending on the unrepairable
// hardware are marked degraded.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/nff.hpp"
#include "diag/service.hpp"
#include "fault/injector.hpp"
#include "fault/taxonomy.hpp"
#include "platform/system.hpp"
#include "sim/simulator.hpp"
#include "vnet/network_plan.hpp"

namespace decos::maintenance {

enum class WorkOrderState : std::uint8_t {
  kScheduled,    // technician dispatched, action not yet performed
  kVerifying,    // action performed, trust under observation
  kVerified,     // trust held above the conformance threshold
  kQuarantined,  // spares or attempts exhausted; FRU retired unrepaired
};

[[nodiscard]] const char* to_string(WorkOrderState s);

/// One maintenance case, from the report row that opened it to the
/// verified repair (or quarantine) that closed it.
struct WorkOrder {
  std::string fru;
  platform::ComponentId component = 0;
  /// Set when the order targets a software FRU.
  std::optional<platform::JobId> job;
  /// Classification at opening time (drives the first attempt's action).
  fault::FaultClass first_diagnosis = fault::FaultClass::kNone;
  /// Every action actually executed, in order. A mis-classified fault
  /// reads directly off this as wrong-action-then-retry.
  std::vector<fault::MaintenanceAction> actions;
  std::uint32_t attempts = 0;
  /// Some attempt pulled hardware that was not internally faulty — the
  /// unit retests OK at the bench (a measured NFF removal).
  bool nff = false;
  sim::SimTime opened{};
  sim::SimTime closed{};
  WorkOrderState state = WorkOrderState::kScheduled;
  /// Journey of the injected fault this order discharges (kNoJourney when
  /// tracing is off or no ledger fault owns the FRU).
  obs::ProvenanceId provenance = obs::kNoJourney;
  /// Action span of the attempt currently executing/verifying.
  obs::SpanId open_span = obs::kNoSpan;

  [[nodiscard]] bool is_open() const {
    return state == WorkOrderState::kScheduled ||
           state == WorkOrderState::kVerifying;
  }
};

class MaintenanceExecutor {
 public:
  struct Params {
    /// Delay between opening a work order and the technician performing
    /// the action (travel + bench time, compressed to simulation scale).
    sim::Duration technician_latency = sim::milliseconds(40);
    /// Settle time after the action before the trust reset: a replaced
    /// node re-integrates listen-only and its omissions must not poison
    /// the fresh trust of the new unit.
    sim::Duration settle = sim::milliseconds(60);
    /// How long the reset trust must hold for the repair to count.
    sim::Duration verify_window = sim::milliseconds(600);
    /// Hardware spare pool shared by all component replacements.
    std::uint32_t spares = 2;
    /// How the first attempt chooses its action; retries always re-
    /// diagnose and follow Fig. 11 (the second opinion is model-guided).
    analysis::Strategy strategy = analysis::Strategy::kModelGuided;
    /// Conformance threshold the repaired FRU must hold (Fig. 9's
    /// healthy band).
    static constexpr double verify_trust = 0.9;
  };

  MaintenanceExecutor(platform::System& system, diag::DiagnosticService& service,
                      fault::FaultInjector& injector, Params params);
  /// Unsubscribes: the service must not call into a destroyed executor.
  ~MaintenanceExecutor();
  MaintenanceExecutor(const MaintenanceExecutor&) = delete;
  MaintenanceExecutor& operator=(const MaintenanceExecutor&) = delete;

  /// Subscribes to the service's verdict transitions. Call it before the
  /// run: a verdict standing at subscription is not replayed.
  void start();

  // --- results -----------------------------------------------------------
  [[nodiscard]] const std::vector<WorkOrder>& work_orders() const {
    return orders_;
  }
  [[nodiscard]] std::uint64_t repairs_attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t repairs_verified() const { return verified_; }
  [[nodiscard]] std::uint64_t repairs_failed() const { return failed_; }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  /// Executed removals of hardware that retests OK (measured NFF).
  [[nodiscard]] std::uint64_t nff_removals() const { return nff_removals_; }
  [[nodiscard]] std::uint64_t spares_consumed() const {
    return spares_consumed_;
  }
  [[nodiscard]] std::uint64_t quarantines() const { return quarantines_; }
  [[nodiscard]] bool quarantined_component(platform::ComponentId c) const {
    return quarantined_components_.contains(c);
  }
  /// Application jobs marked degraded because their FRU (or its host
  /// hardware) was quarantined unrepaired.
  [[nodiscard]] const std::vector<platform::JobId>& degraded_jobs() const {
    return degraded_jobs_;
  }
  /// Garage-visit ledger of every executed action, scored against the
  /// injector's ground truth at execution time.
  [[nodiscard]] const analysis::NffAccounting& nff() const { return nff_; }

  /// Attaches the fault-point registry (not owned; nullptr detaches): the
  /// spare-allocation, repair-settle and repair-verify edges become
  /// enumerable injection sites.
  void bind_fault_points(fault::FaultPointRegistry* fp) { fp_ = fp; }

 private:
  /// Opens a work order on an actionable verdict, unless the FRU is
  /// quarantined or already has an open order.
  void on_verdict(const diag::VerdictChange& v);
  /// Performs attempt `attempts_+1` of order `idx` (technician arrives).
  void execute(std::size_t idx);
  /// Judges order `idx` at the end of its verification window.
  void verify(std::size_t idx);
  /// Applies the physical repair to the simulated system.
  void perform(WorkOrder& o, fault::MaintenanceAction action);
  void quarantine(WorkOrder& o);
  [[nodiscard]] bool has_open_order(platform::ComponentId c,
                                    std::optional<platform::JobId> j) const;

  platform::System& system_;
  diag::DiagnosticService& service_;
  fault::FaultInjector& injector_;
  Params p_;
  sim::Simulator& sim_;
  fault::FaultPointRegistry* fp_ = nullptr;
  /// Network-plan state as configured (before any configuration fault);
  /// kUpdateConfiguration restores from here.
  std::vector<vnet::VnetConfig> pristine_vnets_;

  std::vector<WorkOrder> orders_;
  std::set<platform::ComponentId> quarantined_components_;
  std::set<platform::JobId> quarantined_jobs_;
  std::vector<platform::JobId> degraded_jobs_;
  analysis::NffAccounting nff_;

  std::uint32_t spares_;
  std::uint64_t attempted_ = 0;
  std::uint64_t verified_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t nff_removals_ = 0;
  std::uint64_t spares_consumed_ = 0;
  std::uint64_t quarantines_ = 0;
  bool started_ = false;
};

}  // namespace decos::maintenance
