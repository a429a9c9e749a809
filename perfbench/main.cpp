// Whole-stack benchmark: command line, measured phases and the result line.
//
//   perfbench --workload fault_space|closed_loop|fleet --seed N
//             --seconds S --trace 0|1 [--tiny] [--git-commit SHA]
//             [--trace-out PATH]
//
// --trace 0 measures the end-to-end metrics over an S-second window.
// --trace 1 runs the same ops untraced for S/2 seconds, then S/2 seconds
// in which every other op is traced (spans around every call into a
// layer), then the per-layer probes, and reports the per-layer metrics and
// the self-time ledger; the spans are written to PATH at exit. Either way the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is
// nonzero when any correctness check failed.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ladder.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale;
  std::string git_commit;
  std::string trace_out;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "fault_space|closed_loop|fleet --seed N --seconds S "
               "--trace 0|1 [--tiny] [--git-commit SHA] [--trace-out PATH]\n",
               why);
  return 2;
}

std::optional<Args> parse(int argc, char** argv, const char** why) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k(argv[i]);
    if (k == "--tiny") {
      a.scale.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      *why = "flag without a value";
      return std::nullopt;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') {
        *why = "--seed needs a whole number";
        return std::nullopt;
      }
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
        *why = "--seconds needs a number in (0, 600]";
        return std::nullopt;
      }
    } else if (k == "--trace") {
      if (std::string_view(v) != "0" && std::string_view(v) != "1") {
        *why = "--trace takes 0 or 1";
        return std::nullopt;
      }
      a.trace = std::string_view(v) == "1";
    } else if (k == "--git-commit") {
      a.git_commit = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      *why = "unknown flag";
      return std::nullopt;
    }
  }
  if (!have_workload) {
    *why = "--workload is required";
    return std::nullopt;
  }
  return a;
}

/// What one measured phase (a time window of ops) observed.
struct Phase {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest_mismatches = 0;
  double work = 0.0;
  double work_s = 0.0;
  std::vector<double> latency_ms;
  /// Host time of the phase's traced ops, and of the same op indices'
  /// latest untraced runs: their ratio is the tracing overhead.
  double traced_op_s = 0.0;
  double reference_op_s = 0.0;
};

/// Per op index: the digest of its first run and the host time of its
/// latest untraced run.
struct Reference {
  std::vector<std::optional<std::uint64_t>> digest;
  std::vector<double> op_s;
};

/// Runs ops in pass order until `seconds` are over. Untraced, it runs at
/// least one whole pass; `traced`, it traces every other op, flipping the
/// parity each pass so that every op index alternates between traced and
/// untraced runs and host-speed drift hits both alike. Every op's digest
/// must equal the first run of the same op index.
Phase run_phase(Workload& wl, Tracer& tracer, double seconds, bool traced,
                Reference& ref) {
  Phase ph;
  const std::size_t pass = wl.pass_size();
  const auto t0 = WallClock::now();
  for (std::size_t i = 0;; ++i) {
    const bool window_over = ph.ops > 0 && seconds_since(t0) >= seconds;
    if (window_over && (traced || ph.ops >= pass)) break;
    const std::size_t idx = i % pass;
    tracer.enable(traced && (idx + i / pass) % 2 == 0);
    const auto op0 = Clock::now();
    OpOutcome o;
    {
      Tracer::Scope span(tracer, "bench.op");
      o = wl.run_op(idx, tracer, ph.latency_ms);
    }
    const double op_s = seconds_since(op0);
    bool same = true;
    if (!ref.digest[idx]) {
      ref.digest[idx] = o.digest;
    } else {
      same = *ref.digest[idx] == o.digest;
    }
    if (tracer.enabled()) {
      ph.traced_op_s += op_s;
      ph.reference_op_s += ref.op_s[idx];
    } else {
      ref.op_s[idx] = op_s;
    }
    ++ph.ops;
    if (!same) ++ph.digest_mismatches;
    if (!o.ok || !same) ++ph.failed;
    ph.work += o.work;
    ph.work_s += o.work_s;
  }
  return ph;
}

void print_metric(const Metric& m) {
  if (m.value) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), *m.value,
                m.unit.c_str());
  } else {
    std::printf("  %-36s %16s %s\n", m.name.c_str(), "not measured",
                m.unit.c_str());
  }
}

/// Names the end-to-end figures after what they are on each workload.
std::vector<Metric> native_metrics(const std::string& workload, double rate,
                                   double p50_ms, double p95_ms) {
  if (workload == "fault_space") {
    return {{"armed_runs_per_s", rate, "1/s"},
            {"armed_run_ms_p50", p50_ms, "ms"},
            {"armed_run_ms_p95", p95_ms, "ms"}};
  }
  if (workload == "closed_loop") {
    return {{"sim_rounds_per_s", rate, "1/s"},
            {"report_us_p50", p50_ms * 1e3, "us"},
            {"report_us_p95", p95_ms * 1e3, "us"}};
  }
  return {{"vehicles_per_s", rate, "1/s"},
          {"campaign_pass_ms_p50", p50_ms, "ms"},
          {"campaign_pass_ms_p95", p95_ms, "ms"}};
}

}  // namespace

int main(int argc, char** argv) {
  const char* why = "";
  const std::optional<Args> parsed = parse(argc, argv, &why);
  if (!parsed) return usage(why);
  const Args& args = *parsed;
  std::unique_ptr<Workload> wl =
      make_workload(args.workload, args.seed, args.scale);
  if (!wl) return usage("unknown workload");

  const Fingerprint fp = fingerprint(args.git_commit);
  std::printf("== perfbench %s seed=%llu seconds=%g trace=%d%s ==\n",
              wl->name(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.scale.tiny ? " tiny" : "");
  std::printf("fingerprint %s\n", fp.json().c_str());
  if (!fp.timings_valid()) {
    std::printf("WARNING: sanitized or unoptimised build, timings invalid\n");
  }

  // Set-up, repeated so its median is steady; the first repetition also
  // pays for the process's cold caches.
  std::vector<std::string> problems;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (args.scale.tiny ? 2 : 11); ++rep) {
    // Process CPU time: the fleet oracle runs on two worker threads.
    const double t0 = process_cpu_seconds();
    std::string err = wl->setup();
    setup_s.push_back(process_cpu_seconds() - t0);
    if (!err.empty()) problems.push_back("set-up: " + err);
  }

  Tracer tracer;
  Reference ref;
  ref.digest.resize(wl->pass_size());
  ref.op_s.resize(wl->pass_size());
  const double window = args.trace ? args.seconds / 2.0 : args.seconds;
  const Phase plain = run_phase(*wl, tracer, window, false, ref);

  Digest pass_digest;
  for (const auto& d : ref.digest) pass_digest.add(*d);
  const std::string sim_digest = hex64(pass_digest.value());

  std::optional<Phase> traced;
  std::vector<Metric> layer;
  std::vector<std::pair<std::string, double>> loop_ledger, ledger;
  if (args.trace) {
    traced = run_phase(*wl, tracer, window, true, ref);
    tracer.enable(true);
    loop_ledger = tracer.ledger();
    const std::size_t loop_spans = tracer.spans().size();
    layer = run_ladder(args.seed, args.scale, tracer);
    ledger = tracer.ledger();
    std::printf("spans: %zu in the traced ops, %zu in the layer probes\n",
                loop_spans, tracer.spans().size() - loop_spans);
    if (!args.trace_out.empty() && !tracer.write_chrome_trace(args.trace_out)) {
      problems.push_back("cannot write " + args.trace_out);
    }
  }

  const std::uint64_t attempted = plain.ops + (traced ? traced->ops : 0);
  const std::uint64_t failed = plain.failed + (traced ? traced->failed : 0);
  const std::uint64_t mismatches =
      plain.digest_mismatches + (traced ? traced->digest_mismatches : 0);
  if (mismatches > 0) {
    problems.push_back(std::to_string(mismatches) +
                       " op(s) did not repeat their sim_digest");
  }
  if (failed > 0) problems.push_back(std::to_string(failed) + " failed op(s)");

  const double rate = plain.work / plain.work_s;
  const double p50 = quantile(plain.latency_ms, 0.50);
  const double p95 = quantile(plain.latency_ms, 0.95);

  std::printf("\nworkload %s: throughput counts %s; latency is %s\n",
              wl->name(), wl->work_unit(), wl->latency_unit());
  for (const std::string& line : wl->summary()) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("ops %llu failed_ops %llu (pass of %zu ops, %zu latency "
              "samples)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), wl->pass_size(),
              plain.latency_ms.size());
  std::printf("sim_digest %s %s\n", wl->name(), sim_digest.c_str());
  std::printf("latency quantiles (ms): p10 %.6g p25 %.6g p50 %.6g p75 %.6g "
              "p90 %.6g p95 %.6g p99 %.6g\n",
              quantile(plain.latency_ms, 0.10), quantile(plain.latency_ms, 0.25),
              quantile(plain.latency_ms, 0.50), quantile(plain.latency_ms, 0.75),
              quantile(plain.latency_ms, 0.90), quantile(plain.latency_ms, 0.95),
              quantile(plain.latency_ms, 0.99));

  std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s"},
      {"throughput", rate, "1/s"},
      {"latency_p50_ms", p50, "ms"},
      {"latency_p95_ms", p95, "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  std::printf("end-to-end (untraced window of %.3g s):\n", window);
  for (const Metric& m : e2e) print_metric(m);
  for (const Metric& m : native_metrics(wl->name(), rate, p50, p95)) {
    print_metric(m);
  }

  std::vector<Metric> reported = e2e;
  if (traced) {
    std::printf("self time per layer, traced ops only (ms):\n");
    for (const auto& [name, ms] : loop_ledger) {
      std::printf("  %-14s %12.3f\n", name.c_str(), ms);
    }
    for (const auto& [name, ms] : ledger) {
      layer.push_back(Metric{"self_ms." + name, ms, "ms"});
    }
    layer.push_back(Metric{"bench.trace_overhead",
                           traced->traced_op_s / traced->reference_op_s,
                           "ratio"});
    std::printf("per-layer (traced ops + layer probes):\n");
    for (const Metric& m : layer) print_metric(m);
    double bare = 0.0, idle = 0.0, maint = 0.0, top = 0.0;
    for (const Metric& m : layer) {
      if (m.name == "tta.ns_per_round") bare = *m.value;
      if (m.name == "diag.idle_ns_per_round") idle = *m.value;
      if (m.name == "maintenance.ns_per_round") maint = *m.value;
      if (m.name == "ladder.full_ns_per_round") top = *m.value;
      if (m.name == "tta.crc_ok_ns" && !(*m.value > 0.0)) {
        problems.push_back("Frame::crc_ok rejected a sealed frame");
      }
    }
    std::printf("ladder: tta %.1f + diag idle %.1f + maintenance %.1f = %.1f "
                "ns/round (full rig %.1f)\n",
                bare, idle, maint, bare + idle + maint, top);
    reported = layer;
  }

  for (const std::string& p : problems) std::printf("FAIL: %s\n", p.c_str());
  const bool correct = problems.empty();

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": ";
    json += m.value ? format_number(*m.value) : "null";
    json += ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
