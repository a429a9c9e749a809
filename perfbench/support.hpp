// Measurement plumbing shared by the whole-stack benchmark: the
// allocation-counting hook, the span recorder and its per-layer ledger,
// sample statistics, the outcome digest and the host/build fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Allocation counting

/// True when the counting operator-new hook is linked in. Sanitizer
/// runtimes interpose the allocator, so there the hook is left out and
/// every allocation metric reads "not measured" instead of a false 0.
[[nodiscard]] bool allocs_measured();

/// Allocations made by the calling thread since it started.
[[nodiscard]] std::uint64_t thread_allocs();

// ---------------------------------------------------------------------------
// Time

/// Every host time the benchmark reports is the driving thread's CPU time.
/// The benchmark is single-threaded and CPU-bound; on a shared host, wall
/// time also counts the intervals in which other processes held the core,
/// which moves a run's figures by tens of percent for reasons outside the
/// program. Only the length of the measured window is wall time.
struct Clock {
  using rep = std::int64_t;
  using period = std::nano;
  using duration = std::chrono::nanoseconds;
  using time_point = std::chrono::time_point<Clock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept;
};

using WallClock = std::chrono::steady_clock;

template <class C>
[[nodiscard]] double seconds_since(std::chrono::time_point<C> t0) {
  return std::chrono::duration<double>(C::now() - t0).count();
}

/// CPU time of the whole process, all threads, in seconds.
[[nodiscard]] double process_cpu_seconds();

// ---------------------------------------------------------------------------
// Spans and the per-layer ledger

/// One timed call into a layer. The layer is the name's prefix up to the
/// first '.', which is the src/ module the called function belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

/// Records spans in memory while enabled; a disabled recorder costs one
/// branch per scope. Single-threaded: the benchmark drives the stack from
/// one thread.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_ = nullptr;
    std::int32_t id_ = -1;
  };

  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool enabled() const { return on_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer, in ms, of the spans recorded so far: each span's
  /// duration minus the part its child spans cover.
  [[nodiscard]] std::vector<std::pair<std::string, double>> ledger() const;

  /// Writes every span as a Chrome trace-event file. Returns success.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  bool on_ = false;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
  Clock::time_point epoch_ = Clock::now();
};

/// The layers the ledger reports, in report order.
[[nodiscard]] const std::vector<std::string>& ledger_layers();

// ---------------------------------------------------------------------------
// Statistics

/// Linear-interpolated quantile, q in [0,1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// ---------------------------------------------------------------------------
// Outcome digest

/// FNV-1a over the simulated outcomes of a run: every field that defines
/// what happened in the simulation, never a host time.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(bool v) { add(static_cast<std::uint64_t>(v ? 1 : 0)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------------------
// Host and build fingerprint

struct Fingerprint {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  bool optimized = false;
  bool sanitized = false;
  std::string git_commit;

  /// Timings count only from an optimized, unsanitized build.
  [[nodiscard]] bool timings_valid() const { return optimized && !sanitized; }
  [[nodiscard]] std::string json() const;
};

[[nodiscard]] Fingerprint fingerprint(std::string git_commit);

/// Peak resident set size of the process, MiB.
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------------------
// Result line

/// One reported metric. A metric with no value is "not measured" and
/// prints as JSON null.
struct Metric {
  std::string name;
  std::optional<double> value;
  std::string unit;
};

[[nodiscard]] std::string json_escape(const std::string& s);
[[nodiscard]] std::string format_number(double v);

}  // namespace perfbench
