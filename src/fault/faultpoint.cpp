#include "fault/faultpoint.hpp"

#include <cerrno>
#include <cstdlib>

namespace decos::fault {
namespace {

/// Token names, indexed by FaultSite. Part of the replay-token format —
/// renaming one invalidates recorded counterexamples.
constexpr const char* kSiteNames[kFaultSiteCount] = {
    "heartbeat-send",  "heartbeat-receive",    "resend-push",
    "staleness-expiry", "repair-settle",       "repair-verify",
    "spare-alloc",     "diag-deliver",         "dissem-forward",
    "stale-verdict",   "tester-reassign",      "bit-sampler-spurious",
    "copy-on-corrupt-skip", "frame-pool-exhausted",
};

}  // namespace

const char* to_string(FaultSite s) {
  const auto i = static_cast<std::size_t>(s);
  return i < kFaultSiteCount ? kSiteNames[i] : "?";
}

std::optional<FaultSite> site_from_string(std::string_view name) {
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    if (name == kSiteNames[i]) return static_cast<FaultSite>(i);
  }
  return std::nullopt;
}

std::string FaultPoint::token() const {
  return std::string(to_string(site)) + ":" + std::to_string(occurrence);
}

std::optional<FaultPoint> parse_fault_point(std::string_view token) {
  const std::size_t colon = token.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto site = site_from_string(token.substr(0, colon));
  if (!site) return std::nullopt;
  const std::string digits(token.substr(colon + 1));
  if (digits.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
  if (end == digits.c_str() || *end != '\0' || errno == ERANGE) {
    return std::nullopt;
  }
  return FaultPoint{*site, static_cast<std::uint64_t>(v)};
}

}  // namespace decos::fault
