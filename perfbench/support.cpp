#include "support.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ctime>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace {
// Per-thread so a measurement on the driving thread is not polluted by the
// worker threads of a jobs > 1 oracle campaign.
thread_local std::uint64_t t_allocs = 0;
}  // namespace

#if !defined(PERFBENCH_SANITIZED)
// Counting global allocator: every variant funnels through malloc so the
// count covers array, nothrow and over-aligned forms alike.
void* operator new(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
void* operator new(std::size_t n, std::align_val_t a) {
  ++t_allocs;
  const auto align = static_cast<std::size_t>(a);
  const std::size_t size = n == 0 ? align : (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace perfbench {

bool allocs_measured() {
#if defined(PERFBENCH_SANITIZED)
  return false;
#else
  return true;
#endif
}

std::uint64_t thread_allocs() { return t_allocs; }

Clock::time_point Clock::now() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return time_point(duration(static_cast<rep>(ts.tv_sec) * 1'000'000'000 +
                             ts.tv_nsec));
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// --- spans -----------------------------------------------------------------

Tracer::Scope::Scope(Tracer& t, const char* name) {
  if (!t.on_) return;
  t_ = &t;
  id_ = static_cast<std::int32_t>(t.spans_.size());
  t.spans_.push_back(Span{name, t.now_ns(), 0, t.open_});
  t.open_ = id_;
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  Span& s = t_->spans_[static_cast<std::size_t>(id_)];
  s.end_ns = t_->now_ns();
  t_->open_ = s.parent;
}

const std::vector<std::string>& ledger_layers() {
  static const std::vector<std::string> layers = {
      "bench", "scenario", "fault", "platform", "sim",      "tta",
      "vnet",  "diag",     "maintenance",       "fleet",    "analysis"};
  return layers;
}

std::vector<std::pair<std::string, double>> Tracer::ledger() const {
  const auto& layers = ledger_layers();
  std::vector<double> self_ns(layers.size(), 0.0);
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name(s.name);
    const std::string layer = name.substr(0, name.find('.'));
    const auto it = std::find(layers.begin(), layers.end(), layer);
    if (it == layers.end()) continue;
    self_ns[static_cast<std::size_t>(it - layers.begin())] +=
        static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
  }
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    out.emplace_back(layers[l], self_ns[l] / 1e6);
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
      << format_number(static_cast<double>(s.start_ns) / 1e3)
      << ",\"dur\":" << format_number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
      << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// --- statistics ------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- fingerprint -----------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Fingerprint::json() const {
  std::string j = "{";
  j += "\"cpu_model\":\"" + json_escape(cpu_model) + "\"";
  j += ",\"nproc\":" + std::to_string(nproc);
  j += ",\"compiler\":\"" + json_escape(compiler) + "\"";
  j += ",\"build_type\":\"" + json_escape(build_type) + "\"";
  j += ",\"cxx_flags\":\"" + json_escape(cxx_flags) + "\"";
  j += std::string(",\"optimized\":") + (optimized ? "true" : "false");
  j += std::string(",\"sanitized\":") + (sanitized ? "true" : "false");
  j += ",\"git_commit\":\"" + json_escape(git_commit) + "\"";
  j += std::string(",\"timings_valid\":") + (timings_valid() ? "true" : "false");
  j += "}";
  return j;
}

Fingerprint fingerprint(std::string git_commit) {
  Fingerprint fp;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) fp.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (fp.cpu_model.empty()) fp.cpu_model = "unknown";
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  fp.nproc = n > 0 ? static_cast<unsigned>(n) : 0;
#if defined(__clang__)
  fp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = std::string("gcc ") + __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.cxx_flags = PERFBENCH_CXX_FLAGS;
#if defined(__OPTIMIZE__)
  fp.optimized = true;
#endif
#if defined(PERFBENCH_SANITIZED)
  fp.sanitized = true;
#endif
  fp.git_commit = git_commit.empty() ? "unknown" : std::move(git_commit);
  return fp;
}

double peak_rss_mb() {
  // VmHWM first: getrusage's ru_maxrss survives exec, so it can report the
  // peak of whatever process forked the benchmark.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench
