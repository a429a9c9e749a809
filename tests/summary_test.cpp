// The evidence summary is the only extractor of component features, so
// folding must be invisible: a summary folded every round and one over the
// same store that never folded read identical features at every `now` —
// including after a late observation behind the fold horizon (rebuild)
// and a prune past it. The live checks run the same oracle on assessors
// in a long closed-loop Fig. 10 run and across a chaos assessor outage.
#include <gtest/gtest.h>

#include <vector>

#include "diag/classifier.hpp"
#include "diag/summary.hpp"
#include "fault/chaos.hpp"
#include "feature_oracle.hpp"
#include "maintenance/executor.hpp"
#include "scenario/campaign.hpp"
#include "scenario/fig10.hpp"
#include "sim/rng.hpp"

namespace decos::diag {
namespace {

constexpr std::uint32_t kComponents = 6;

FeatureParams resolved_params() {
  FeatureParams p;
  p.sender_spread = 3;  // what the summary resolves the auto bar to at N = 6
  return p;
}

struct Delivery {
  tta::RoundId at;
  Symptom symptom;
};

/// A seeded symptom stream over a 6-component cluster: a recurring sender
/// fault on component 1, a connector-like receive path on component 4,
/// EMI bursts hitting the receive paths of neighbours 2 and 3 together,
/// and sparse background noise. Observations reach the store up to 300
/// rounds late — inside the fold lag, as the wire format guarantees.
class SymptomStream {
 public:
  explicit SymptomStream(std::uint64_t seed) : rng_(seed) {}

  /// Symptoms observed in round `r`, each paired with the round the store
  /// receives it.
  void emit(tta::RoundId r, std::vector<Delivery>& out) {
    sender_on_ = flip(sender_on_, 0.01, 0.15);
    receiver_on_ = flip(receiver_on_, 0.02, 0.2);
    emi_on_ = flip(emi_on_, 0.01, 0.3);
    if (sender_on_) {
      const SymptomType t = pick_type();
      for (platform::ComponentId o : {0u, 2u, 3u, 5u}) {
        if (rng_.bernoulli(0.8)) add(out, r, t, o, 1);
      }
    }
    if (receiver_on_) {
      for (platform::ComponentId s = 0; s < kComponents; ++s) {
        if (s != 4 && rng_.bernoulli(0.7)) add(out, r, pick_type(), 4, s);
      }
    }
    if (emi_on_) {
      for (platform::ComponentId o : {2u, 3u}) {
        for (platform::ComponentId s = 0; s < kComponents; ++s) {
          if (s != o && rng_.bernoulli(0.8)) {
            add(out, r, SymptomType::kSlotCrcError, o, s);
          }
        }
      }
    }
    if (rng_.bernoulli(0.03)) {
      const auto o = static_cast<platform::ComponentId>(
          rng_.uniform_int(0, kComponents - 1));
      const auto s = static_cast<platform::ComponentId>(
          rng_.uniform_int(0, kComponents - 1));
      if (o != s) add(out, r, pick_type(), o, s);
    }
  }

 private:
  bool flip(bool on, double p_on, double p_off) {
    return on ? !rng_.bernoulli(p_off) : rng_.bernoulli(p_on);
  }
  SymptomType pick_type() {
    switch (rng_.uniform_int(0, 2)) {
      case 0: return SymptomType::kSlotCrcError;
      case 1: return SymptomType::kSlotTimingError;
      default: return SymptomType::kSlotOmission;
    }
  }
  void add(std::vector<Delivery>& out, tta::RoundId r, SymptomType t,
           platform::ComponentId observer, platform::ComponentId subject) {
    Symptom s;
    s.type = t;
    s.observer = observer;
    s.subject_component = subject;
    // Most observations arrive in their own round; some wait.
    const tta::RoundId delay =
        rng_.bernoulli(0.9)
            ? 0
            : static_cast<tta::RoundId>(rng_.uniform_int(1, 300));
    s.round = r;
    s.magnitude = 1.0;
    out.push_back({r + delay, s});
  }

  sim::Rng rng_;
  bool sender_on_ = false;
  bool receiver_on_ = false;
  bool emi_on_ = false;
};

/// Drives one store through `rounds` rounds, folding `folded` every round
/// and comparing it with a never-folded summary every `check_every`
/// rounds. `perturb(now, store, folded)` runs before each round's fold.
template <typename Perturb>
void run_oracle(std::uint64_t seed, tta::RoundId rounds,
                tta::RoundId check_every, EvidenceStore& ev,
                EvidenceSummary& folded, Perturb perturb) {
  const auto layout = fault::SpatialLayout::linear(kComponents);
  const EvidenceSummary unfolded(resolved_params(), kComponents, layout);
  const Classifier classifier({}, layout);
  SymptomStream stream(seed);
  std::vector<Delivery> pending;
  ComponentFeatures a, b;
  for (tta::RoundId now = 1; now <= rounds; ++now) {
    stream.emit(now, pending);
    std::erase_if(pending, [&](const Delivery& d) {
      if (d.at > now) return false;
      ev.ingest(d.symptom);
      folded.note_ingest(d.symptom);
      return true;
    });
    perturb(now, ev, folded);
    folded.fold(ev, now);
    if (now % check_every != 0) continue;
    for (platform::ComponentId c = 0; c < kComponents; ++c) {
      folded.component_features(ev, c, now, a);
      unfolded.component_features(ev, c, now, b);
      oracle::expect_same_features(a, b, c, now);
      EXPECT_EQ(classifier.classify_component(ev, c, now, a).rationale,
                classifier.classify_component(ev, c, now, kComponents)
                    .rationale);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

EvidenceSummary make_summary() {
  return EvidenceSummary(resolved_params(), kComponents,
                         fault::SpatialLayout::linear(kComponents));
}

TEST(EvidenceSummary, FoldedMatchesUnfoldedOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    EvidenceStore ev;
    EvidenceSummary folded = make_summary();
    run_oracle(seed, 4000, 7, ev, folded,
               [](tta::RoundId, EvidenceStore&, EvidenceSummary&) {});
    EXPECT_EQ(folded.horizon(), 4000 - EvidenceSummary::kFoldLag + 1);
    EXPECT_EQ(folded.rebuilds(), 0u);
    // The streams exercised every feature the summary folds.
    ComponentFeatures f;
    folded.component_features(ev, 1, 4000, f);
    EXPECT_GE(f.sender_eps.size(), 8u);
    EXPECT_GT(f.alpha, 0.0);
    folded.component_features(ev, 4, 4000, f);
    EXPECT_GE(f.observer_eps.size(), 3u);
    folded.component_features(ev, 2, 4000, f);
    EXPECT_GE(f.observer_eps.size(), 3u);
  }
}

TEST(EvidenceSummary, LateIngestBehindHorizonForcesRebuild) {
  EvidenceStore ev;
  EvidenceSummary folded = make_summary();
  run_oracle(11, 3000, 5, ev, folded,
             [](tta::RoundId now, EvidenceStore& store, EvidenceSummary& s) {
               if (now != 2000 && now != 2600) return;
               // An observation far older than the wire format allows:
               // both observers credible, so it lands in a folded episode
               // region of component 1's sender history.
               const tta::RoundId late = s.horizon() - 50;
               for (platform::ComponentId o : {0u, 5u}) {
                 Symptom sym;
                 sym.type = SymptomType::kSlotOmission;
                 sym.observer = o;
                 sym.subject_component = 1;
                 sym.round = late;
                 sym.magnitude = 1.0;
                 store.ingest(sym);
                 s.note_ingest(sym);
               }
             });
  EXPECT_EQ(folded.rebuilds(), 2u);
  EXPECT_EQ(folded.horizon(), 3000 - EvidenceSummary::kFoldLag + 1);
}

TEST(EvidenceSummary, PrunePastHorizonForcesRebuild) {
  EvidenceStore ev(EvidenceStore::Params{.window_rounds = 100});
  EvidenceSummary folded = make_summary();
  run_oracle(12, 3000, 5, ev, folded,
             [](tta::RoundId now, EvidenceStore& store, EvidenceSummary& s) {
               if (now != 2500) return;
               // Drops everything before round 2400 — past the horizon
               // (2181), so the tail walk lost rounds it needs.
               store.prune(now);
               s.note_prune(now - 100);
             });
  EXPECT_EQ(folded.rebuilds(), 1u);
}

TEST(EvidenceSummary, ReadsWhileDirtyWalkTheWholeStore) {
  EvidenceStore ev;
  EvidenceSummary folded = make_summary();
  run_oracle(13, 1500, 50, ev, folded,
             [](tta::RoundId, EvidenceStore&, EvidenceSummary&) {});
  // Two credible observers: a new sender round deep in folded history.
  for (platform::ComponentId o : {0u, 5u}) {
    Symptom sym;
    sym.type = SymptomType::kSlotCrcError;
    sym.observer = o;
    sym.subject_component = 1;
    sym.round = 10;
    ev.ingest(sym);
    folded.note_ingest(sym);
  }
  // Not yet rebuilt: the read must still see the late observation.
  const EvidenceSummary unfolded = make_summary();
  for (platform::ComponentId c = 0; c < kComponents; ++c) {
    ComponentFeatures a, b;
    folded.component_features(ev, c, 1500, a);
    unfolded.component_features(ev, c, 1500, b);
    oracle::expect_same_features(a, b, c, 1500);
  }
  EXPECT_EQ(folded.rebuilds(), 0u);
}

// --- live assessors -----------------------------------------------------

TEST(SummaryLive, ClosedLoopArchetypeRunMatchesUnfolded) {
  // The longest component-level standard archetype, with the maintenance
  // executor closing the loop (repairs reset trust and re-verify),
  // queried like an operator.
  const auto archetypes = scenario::standard_archetypes();
  const scenario::Archetype* longest = nullptr;
  for (const auto& a : archetypes) {
    if (a.truth != fault::FaultClass::kComponentExternal &&
        a.truth != fault::FaultClass::kComponentBorderline &&
        a.truth != fault::FaultClass::kComponentInternal) {
      continue;
    }
    if (!longest || a.horizon.ns() > longest->horizon.ns()) longest = &a;
  }
  ASSERT_NE(longest, nullptr);
  scenario::Fig10System rig({.seed = 7});
  maintenance::MaintenanceExecutor executor(rig.system(), rig.diag(),
                                            rig.injector(), {});
  executor.start();
  longest->inject(rig);
  const sim::Duration total = longest->horizon + sim::seconds(4);
  for (sim::Duration done{}; done.ns() < total.ns();
       done = done + sim::milliseconds(500)) {
    rig.run(sim::milliseconds(500));
    (void)rig.diag().report();
    oracle::expect_folded_matches_unfolded(rig.diag().assessor(),
                                           rig.options().components);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(oracle::expect_folded_matches_unfolded(rig.diag().assessor(),
                                                   rig.options().components),
            0u);
  EXPECT_GT(rig.diag().assessor().summary().horizon(), 0u);
  EXPECT_GT(executor.work_orders().size(), 0u);
}

TEST(SummaryLive, ChaosOutageAndRevivalMatchUnfolded) {
  // Lossy diagnostic channel, position 0's host killed and revived: each
  // position folds its own evidence across the outage.
  scenario::Fig10Options opts;
  opts.seed = 21;
  opts.components = 7;
  opts.assessor_host = 5;
  opts.assessor_replicas = {6};
  scenario::Fig10System rig(opts);
  fault::ChaosInjector storm(rig.sim(), rig.system());
  storm.degrade_diagnostic_channel(0.10, 0.05,
                                   sim::SimTime{0} + sim::milliseconds(0));
  storm.kill_host(5, sim::SimTime{0} + sim::milliseconds(800));
  storm.revive_host(5, sim::SimTime{0} + sim::milliseconds(2600));
  rig.injector().inject_wearout(2, sim::SimTime{0} + sim::milliseconds(300),
                                sim::milliseconds(600), 0.7,
                                sim::milliseconds(10));
  rig.run(sim::seconds(5));

  // Death and revival, plus any flap while the revived clock reintegrates.
  EXPECT_GE(rig.diag().topology().recomputes(), 2u);
  EXPECT_GT(rig.diag().assessor().summary().horizon(), 0u);
  EXPECT_GT(oracle::expect_folded_matches_unfolded(rig.diag().assessor(),
                                                   opts.components),
            0u);
  oracle::expect_folded_matches_unfolded(rig.diag().assessor(1),
                                         opts.components);
  EXPECT_EQ(rig.diag().diagnose_component(2).cls,
            fault::FaultClass::kComponentInternal);
}

}  // namespace
}  // namespace decos::diag
