// Fault-injection campaigns (Section V-B).
//
// "In order to derive the fault patterns for prevalent fault types ... a
// thorough analysis of field data and fault injection techniques is
// necessary." This module is that loop as a library: a standard catalogue
// of injectable archetypes (one per taxonomy leaf, several per hardware
// class), and a campaign runner that sweeps archetypes x seeds on the
// Fig. 10 system, diagnoses the affected FRU, and accumulates the
// confusion matrix against the injector's ground truth.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/confusion.hpp"
#include "scenario/fig10.hpp"

namespace decos::scenario {

/// The FRU an archetype's verdict is read from: a component, or a job
/// (with its host component).
struct Subject {
  platform::ComponentId component = 0;
  std::optional<platform::JobId> job;
};

struct Archetype {
  std::string name;
  fault::FaultClass truth;
  /// Simulated horizon needed for the pattern to become classifiable.
  sim::Duration horizon;
  /// Injects the fault into a fresh rig.
  std::function<void(Fig10System&)> inject;
  /// The affected FRU, resolved on the injected rig.
  std::function<Subject(Fig10System&)> subject;
  /// The composed service verdict on the affected FRU after the run.
  [[nodiscard]] diag::Diagnosis diagnose(Fig10System& rig) const;
};

/// The standard catalogue: EMI (repeated bursts), SEU, connector, wearout,
/// permanent failure, quartz defect, brownout, babbling idiot, vnet
/// misconfiguration, Heisenbug, Bohrbug, software crash, sensor drift.
[[nodiscard]] std::vector<Archetype> standard_archetypes();

struct CampaignResult {
  analysis::ConfusionMatrix confusion;
  struct PerArchetype {
    std::string name;
    fault::FaultClass truth;
    std::size_t correct = 0;
    std::size_t runs = 0;
  };
  std::vector<PerArchetype> per_archetype;
};

/// Runs every archetype across the seeds (one fresh Fig10System per run).
///
/// Runs execute on the exec::ExperimentRunner: each (archetype, seed)
/// pair is an isolated rig with its own Simulator/RNG/Registry, executed
/// on up to `jobs` workers (0 = hardware concurrency, 1 = the historical
/// serial loop) and merged in submission order — the result is
/// bit-identical for every job count.
[[nodiscard]] CampaignResult run_campaign(
    const std::vector<Archetype>& archetypes,
    const std::vector<std::uint64_t>& seeds, Fig10Options base_options = {},
    unsigned jobs = 0);

}  // namespace decos::scenario
