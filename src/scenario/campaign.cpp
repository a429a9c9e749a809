#include "scenario/campaign.hpp"

#include "exec/runner.hpp"

namespace decos::scenario {
namespace {

sim::SimTime ms(std::int64_t v) { return sim::SimTime{0} + sim::milliseconds(v); }

Archetype component_archetype(std::string name, fault::FaultClass truth,
                              sim::Duration horizon,
                              std::function<void(Fig10System&)> inject,
                              platform::ComponentId subject) {
  return Archetype{std::move(name), truth, horizon, std::move(inject),
                   [subject](Fig10System&) { return Subject{subject, {}}; }};
}

Subject job_subject(Fig10System& rig, platform::JobId j) {
  return Subject{rig.system().job(j).host(), j};
}

}  // namespace

diag::Diagnosis Archetype::diagnose(Fig10System& rig) const {
  const Subject s = subject(rig);
  const diag::DiagnosticService& service = rig.diag();
  return s.job ? service.diagnose_job(*s.job)
               : service.diagnose_component(s.component);
}

std::vector<Archetype> standard_archetypes() {
  std::vector<Archetype> out;

  out.push_back(component_archetype(
      "emi-bursts", fault::FaultClass::kComponentExternal, sim::seconds(4),
      [](Fig10System& rig) {
        rig.injector().inject_emi_burst(1.0, 1.1, ms(600), sim::milliseconds(12));
        rig.injector().inject_emi_burst(1.0, 1.1, ms(1500), sim::milliseconds(12));
        rig.injector().inject_emi_burst(1.0, 1.1, ms(2700), sim::milliseconds(12));
      },
      1));
  out.push_back(component_archetype(
      "seu", fault::FaultClass::kComponentExternal, sim::seconds(3),
      [](Fig10System& rig) { rig.injector().inject_seu(3, ms(500)); }, 3));
  out.push_back(component_archetype(
      "connector", fault::FaultClass::kComponentBorderline, sim::seconds(5),
      [](Fig10System& rig) {
        rig.injector().inject_connector_fault(3, ms(300), sim::milliseconds(250),
                                              sim::milliseconds(10), 0.8);
      },
      3));
  out.push_back(component_archetype(
      "wearout", fault::FaultClass::kComponentInternal, sim::seconds(5),
      [](Fig10System& rig) {
        rig.injector().inject_wearout(1, ms(300), sim::milliseconds(600), 0.7,
                                      sim::milliseconds(10));
      },
      1));
  out.push_back(component_archetype(
      "permanent", fault::FaultClass::kComponentInternal, sim::seconds(4),
      [](Fig10System& rig) {
        rig.injector().inject_permanent_failure(2, ms(500));
      },
      2));
  out.push_back(component_archetype(
      "quartz", fault::FaultClass::kComponentInternal, sim::seconds(5),
      [](Fig10System& rig) {
        rig.injector().inject_quartz_fault(4, ms(500), 20'000.0);
      },
      4));
  out.push_back(component_archetype(
      "brownout", fault::FaultClass::kComponentInternal, sim::seconds(6),
      [](Fig10System& rig) { rig.injector().inject_brownout(4, ms(400)); },
      4));
  out.push_back(component_archetype(
      "babbling", fault::FaultClass::kComponentInternal, sim::seconds(5),
      [](Fig10System& rig) {
        rig.injector().inject_babbling(1, ms(500), sim::seconds(3),
                                       sim::milliseconds(2));
      },
      1));

  out.push_back(Archetype{
      "misconfiguration", fault::FaultClass::kJobBorderline, sim::seconds(3),
      [](Fig10System& rig) {
        rig.injector().inject_config_fault(2, ms(300), 0, 2);
      },
      [](Fig10System& rig) {
        return job_subject(rig, *rig.injector().ledger().front().job);
      }});
  out.push_back(Archetype{
      "heisenbug", fault::FaultClass::kJobInherentSoftware, sim::seconds(4),
      [](Fig10System& rig) {
        rig.injector().inject_heisenbug(rig.a(1), ms(300), 0.08);
      },
      [](Fig10System& rig) { return job_subject(rig, rig.a(1)); }});
  out.push_back(Archetype{
      "bohrbug", fault::FaultClass::kJobInherentSoftware, sim::seconds(4),
      [](Fig10System& rig) {
        rig.injector().inject_bohrbug(rig.b(0), ms(300), 40, 3);
      },
      [](Fig10System& rig) { return job_subject(rig, rig.b(0)); }});
  out.push_back(Archetype{
      "sw-crash", fault::FaultClass::kJobInherentSoftware, sim::seconds(3),
      [](Fig10System& rig) {
        rig.injector().inject_software_crash(rig.b(2), ms(500));
      },
      [](Fig10System& rig) { return job_subject(rig, rig.b(2)); }});
  out.push_back(Archetype{
      "sensor-drift", fault::FaultClass::kJobInherentTransducer,
      sim::seconds(10),
      [](Fig10System& rig) {
        rig.injector().inject_sensor_fault(rig.c(0), 0,
                                           platform::SensorFaultMode::kDrift,
                                           ms(300));
      },
      [](Fig10System& rig) { return job_subject(rig, rig.c(0)); }});
  return out;
}

CampaignResult run_campaign(const std::vector<Archetype>& archetypes,
                            const std::vector<std::uint64_t>& seeds,
                            Fig10Options base_options, unsigned jobs) {
  CampaignResult result;
  result.per_archetype.reserve(archetypes.size());
  for (const Archetype& arch : archetypes) {
    result.per_archetype.push_back({arch.name, arch.truth, 0, 0});
  }
  if (seeds.empty()) return result;

  // One descriptor per (archetype, seed), archetype-major — the order of
  // the historical serial loop, which the ordered merge below replays.
  std::vector<std::function<fault::FaultClass()>> runs;
  runs.reserve(archetypes.size() * seeds.size());
  for (const Archetype& arch : archetypes) {
    for (const std::uint64_t seed : seeds) {
      runs.push_back([&arch, seed, &base_options] {
        Fig10Options opts = base_options;
        opts.seed = seed;
        Fig10System rig(opts);
        arch.inject(rig);
        rig.run(arch.horizon);
        return arch.diagnose(rig).cls;
      });
    }
  }

  exec::ExperimentRunner runner(jobs);
  runner.run_and_merge<fault::FaultClass>(
      std::move(runs), [&](std::size_t i, fault::FaultClass predicted) {
        const Archetype& arch = archetypes[i / seeds.size()];
        auto& row = result.per_archetype[i / seeds.size()];
        result.confusion.add(arch.truth, predicted);
        ++row.runs;
        if (predicted == arch.truth) ++row.correct;
      });
  return result;
}

}  // namespace decos::scenario
