// The per-layer probes of the traced run. Each probe times one src/
// module from outside, through its public API, on inputs derived from the
// benchmark seed; the probes are identical for every workload, so a layer
// metric means the same thing whichever workload's traced run reports it.
#pragma once

#include <cstdint>
#include <vector>

#include "support.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Runs every probe under `tracer` and returns the per-layer metrics.
[[nodiscard]] std::vector<Metric> run_ladder(std::uint64_t seed, Scale scale,
                                             Tracer& tracer);

}  // namespace perfbench
