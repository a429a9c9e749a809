// The benchmark's three workloads, each a fixed, seed-derived sequence of
// operations (a "pass") over the real stack's public APIs. main.cpp
// repeats the pass until the measured window is over, so the outcome of
// op i must repeat exactly in every pass: that is the sim_digest check.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "diag/log.hpp"
#include "scenario/campaign.hpp"
#include "support.hpp"

namespace perfbench {

/// Sizes of everything the benchmark runs. `tiny` is the smoke-test shape:
/// every code path and metric, seconds instead of minutes.
struct Scale {
  bool tiny = false;
};

/// What one op hands back to the measuring loop.
struct OpOutcome {
  std::uint64_t digest = 0;
  /// The op's own correctness check held.
  bool ok = true;
  /// Units of work the throughput counts, and the host seconds they took.
  double work = 0.0;
  double work_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// What `throughput` and `latency_*` mean on this workload.
  [[nodiscard]] virtual const char* work_unit() const = 0;
  [[nodiscard]] virtual const char* latency_unit() const = 0;

  /// Everything that precedes the first timed op. Idempotent, so the
  /// benchmark can repeat it to take a median. Returns "" when the set-up's
  /// own correctness checks hold, else what failed.
  [[nodiscard]] virtual std::string setup() = 0;

  [[nodiscard]] virtual std::size_t pass_size() const = 0;

  /// Runs op `i` (0 <= i < pass_size()). Pushes the op's latency samples
  /// (ms) onto `latency_ms`.
  [[nodiscard]] virtual OpOutcome run_op(std::size_t i, Tracer& tracer,
                                         std::vector<double>& latency_ms) = 0;

  /// Workload-specific summary lines for the human-readable report.
  [[nodiscard]] virtual std::vector<std::string> summary() const { return {}; }
};

[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      Scale scale);

[[nodiscard]] const std::vector<std::string>& workload_names();

/// One closed-loop maintenance run (E17's shape) with an operator that
/// queries DiagnosticService::report() between run() slices.
struct ClosedLoopRun {
  std::uint64_t digest = 0;
  bool recovered = false;
  std::uint64_t rounds = 0;
  /// Host seconds inside Fig10System::run() only.
  double run_s = 0.0;
  std::uint64_t work_orders = 0;
  std::uint64_t repairs_attempted = 0;
  std::uint64_t repairs_verified = 0;
  std::uint64_t retries = 0;
  std::uint64_t nff_removals = 0;
  /// Final round, for classifying a replayed evidence store "now".
  std::uint64_t final_round = 0;
};

/// Runs `arch` with `seed`. Each report() call's host time (us) goes to
/// `report_us` when given; `recorder` is attached to the active assessor
/// as its flight recorder when given; `diagnose_us` collects the host time
/// of diagnose_component over every component at the end of the run.
[[nodiscard]] ClosedLoopRun run_closed_loop(
    const decos::scenario::Archetype& arch, std::uint64_t seed, Tracer& tracer,
    std::vector<double>* report_us, decos::diag::DiagnosticLog* recorder,
    std::vector<double>* diagnose_us);

}  // namespace perfbench
