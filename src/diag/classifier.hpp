// The classification engine — reverses the fault-error-failure chain down
// to a FRU-level fault class (Section III-B), by evaluating the fault
// patterns of Fig. 8 over the distributed state in the three dimensions:
//
//   time   — single episode vs recurring vs *increasing* rate (wearout) vs
//            continuous (permanent);
//   space  — one component vs multiple components in spatial proximity
//            (massive transient), sender-side vs receiver-side asymmetry
//            (connector), one job vs all jobs of a component (Fig. 10);
//   value  — CRC corruption vs timing deviation vs semantic out-of-range
//            vs slow drift (transducer wearout).
//
// Feature extraction lives in diag/summary.hpp (shared with the
// declarative ONA library); this class applies the decision rules. Each
// rule produces the class plus a human-readable rationale — what a service
// technician's display shows next to the trust level.
#pragma once

#include <string>
#include <vector>

#include "diag/evidence.hpp"
#include "diag/features.hpp"
#include "fault/injector.hpp"
#include "fault/taxonomy.hpp"
#include "platform/types.hpp"

namespace decos::diag {

struct Diagnosis {
  fault::FaultClass cls = fault::FaultClass::kNone;
  fault::Persistence persistence = fault::Persistence::kTransient;
  double confidence = 0.0;  // 0..1
  std::string rationale;
  [[nodiscard]] fault::MaintenanceAction action() const {
    return fault::action_for(cls);
  }
};

class Classifier {
 public:
  /// `p` are the feature thresholds of the one-off classification path
  /// (the 4-argument classify_component); the decision thresholds are
  /// constants in classifier.cpp.
  Classifier(FeatureParams p, fault::SpatialLayout layout)
      : p_(p), layout_(std::move(layout)) {}

  /// Classifies one component FRU from its features (see
  /// EvidenceSummary::component_features) and the store's guardian blocks.
  [[nodiscard]] Diagnosis classify_component(const EvidenceStore& ev,
                                             platform::ComponentId c,
                                             tta::RoundId now,
                                             const ComponentFeatures& f) const;

  /// One-off classification of any store, e.g. an off-board replay:
  /// extracts the features with a summary that has folded nothing.
  [[nodiscard]] Diagnosis classify_component(
      const EvidenceStore& ev, platform::ComponentId c, tta::RoundId now,
      std::uint32_t component_count) const;

  /// Classifies one job FRU. Needs the host component's diagnosis (a
  /// component-internal fault explains away job symptoms as job-external)
  /// and the sibling jobs on the same component (Fig. 10).
  [[nodiscard]] Diagnosis classify_job(
      const EvidenceStore& ev, platform::JobId j,
      const Diagnosis& host_diagnosis,
      const std::vector<platform::JobId>& siblings, tta::RoundId now) const;

  [[nodiscard]] const fault::SpatialLayout& layout() const { return layout_; }

 private:
  FeatureParams p_;
  fault::SpatialLayout layout_;
};

}  // namespace decos::diag
