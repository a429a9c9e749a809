// Tests for the fault-point registry (src/fault/faultpoint.hpp) and the
// systematic fault-space sweep (src/scenario/sweep.hpp): arming
// precision (exactly one firing per armed run, counting never fires),
// replay-token round-trips, discovery determinism, and the headline
// contract — the sweep's verdict list is bit-identical for every worker
// count.
#include <gtest/gtest.h>

#include <vector>

#include "fault/faultpoint.hpp"
#include "scenario/sweep.hpp"

namespace decos {
namespace {

// --- registry semantics ----------------------------------------------------

TEST(FaultPointRegistry, OffModeCountsNothingAndNeverFires) {
  fault::FaultPointRegistry reg;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(reg.hit(fault::FaultSite::kHeartbeatSend));
  }
  EXPECT_EQ(reg.reached(fault::FaultSite::kHeartbeatSend), 0u);
  EXPECT_EQ(reg.total_reached(), 0u);
  EXPECT_FALSE(reg.fired());
}

TEST(FaultPointRegistry, CountingModeTalliesButNeverFires) {
  fault::FaultPointRegistry reg;
  reg.count();
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(reg.hit(fault::FaultSite::kResendPush));
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(reg.hit(fault::FaultSite::kDiagDeliver));
  }
  EXPECT_EQ(reg.reached(fault::FaultSite::kResendPush), 7u);
  EXPECT_EQ(reg.reached(fault::FaultSite::kDiagDeliver), 3u);
  EXPECT_EQ(reg.total_reached(), 10u);
  EXPECT_FALSE(reg.fired());
}

TEST(FaultPointRegistry, ArmedPointFiresExactlyOnceAtItsOccurrence) {
  fault::FaultPointRegistry reg;
  reg.arm({fault::FaultSite::kHeartbeatSend, 2});
  // Occurrences 0 and 1 pass untouched; 2 fires; later reaches of the
  // same site (and the already-fired state) never fire again.
  EXPECT_FALSE(reg.hit(fault::FaultSite::kHeartbeatSend));
  EXPECT_FALSE(reg.hit(fault::FaultSite::kHeartbeatSend));
  EXPECT_TRUE(reg.hit(fault::FaultSite::kHeartbeatSend));
  EXPECT_TRUE(reg.fired());
  EXPECT_FALSE(reg.hit(fault::FaultSite::kHeartbeatSend));
  EXPECT_FALSE(reg.hit(fault::FaultSite::kHeartbeatSend));
  EXPECT_EQ(reg.reached(fault::FaultSite::kHeartbeatSend), 5u);
}

TEST(FaultPointRegistry, ArmedRegistryIgnoresOtherSites) {
  fault::FaultPointRegistry reg;
  reg.arm({fault::FaultSite::kRepairVerify, 0});
  // The armed occurrence count is per site: reaching other sites first
  // must not consume the armed site's occurrence budget.
  EXPECT_FALSE(reg.hit(fault::FaultSite::kHeartbeatSend));
  EXPECT_FALSE(reg.hit(fault::FaultSite::kSpareAlloc));
  EXPECT_TRUE(reg.hit(fault::FaultSite::kRepairVerify));
  EXPECT_EQ(reg.reached(fault::FaultSite::kHeartbeatSend), 1u);
  EXPECT_EQ(reg.reached(fault::FaultSite::kSpareAlloc), 1u);
}

// --- replay tokens ---------------------------------------------------------

TEST(FaultPoint, TokenRoundTripsForEverySite) {
  for (int s = 0; s < fault::kFaultSiteCount; ++s) {
    const fault::FaultPoint p{static_cast<fault::FaultSite>(s), 17};
    const auto parsed = fault::parse_fault_point(p.token());
    ASSERT_TRUE(parsed.has_value()) << p.token();
    EXPECT_EQ(*parsed, p) << p.token();
  }
}

TEST(FaultPoint, ParseRejectsMalformedTokens) {
  EXPECT_FALSE(fault::parse_fault_point("no-such-site:0"));
  EXPECT_FALSE(fault::parse_fault_point("heartbeat-send"));   // no colon
  EXPECT_FALSE(fault::parse_fault_point("heartbeat-send:"));  // no occurrence
  EXPECT_FALSE(fault::parse_fault_point(":3"));               // no site
  EXPECT_FALSE(fault::parse_fault_point("heartbeat-send:x"));
  EXPECT_FALSE(fault::parse_fault_point("heartbeat-send:1:2"));
  EXPECT_FALSE(fault::parse_fault_point(""));
}

// --- sweep determinism -----------------------------------------------------

TEST(FaultSpaceSweep, DiscoveryIsDeterministic) {
  scenario::SweepOptions opts;
  const auto a = scenario::discover_fault_space(opts);
  const auto b = scenario::discover_fault_space(opts);
  EXPECT_EQ(a.manifest, b.manifest);
  EXPECT_EQ(a.baseline, b.baseline);
  EXPECT_GT(a.manifest.total(), 0u);
  // The unperturbed run must pass the oracle — it is the sweep's premise.
  EXPECT_TRUE(a.baseline.converged());
}

TEST(FaultSpaceSweep, ManifestEnumeratesSiteMajor) {
  scenario::FaultPointManifest m;
  m.counts[0] = 2;  // heartbeat-send
  m.counts[2] = 1;  // resend-push
  const auto all = m.points();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], (fault::FaultPoint{fault::FaultSite::kHeartbeatSend, 0}));
  EXPECT_EQ(all[1], (fault::FaultPoint{fault::FaultSite::kHeartbeatSend, 1}));
  EXPECT_EQ(all[2], (fault::FaultPoint{fault::FaultSite::kResendPush, 0}));
  const auto capped = m.points(2);
  ASSERT_EQ(capped.size(), 2u);
  EXPECT_EQ(capped[1], all[1]);
}

TEST(FaultSpaceSweep, ParallelSweepIsBitIdenticalToSerial) {
  scenario::SweepOptions opts;
  const auto serial = scenario::run_fault_space_sweep(opts, 12, 1);
  const auto parallel = scenario::run_fault_space_sweep(opts, 12, 4);
  EXPECT_EQ(serial.manifest, parallel.manifest);
  EXPECT_EQ(serial.space_size, parallel.space_size);
  EXPECT_EQ(serial.executed, parallel.executed);
  ASSERT_EQ(serial.verdicts.size(), parallel.verdicts.size());
  for (std::size_t i = 0; i < serial.verdicts.size(); ++i) {
    EXPECT_EQ(serial.verdicts[i], parallel.verdicts[i])
        << serial.verdicts[i].replay_token();
  }
  EXPECT_EQ(serial.counterexamples.size(), parallel.counterexamples.size());
}

TEST(FaultSpaceSweep, EveryArmedRunFiresItsPoint) {
  // Prefix determinism: every point the discovery run counted must be
  // reached — and fire — when armed. Checked on a bounded slice.
  scenario::SweepOptions opts;
  const auto r = scenario::run_fault_space_sweep(opts, 10, 2);
  ASSERT_EQ(r.executed, 10u);
  EXPECT_TRUE(r.truncated);
  for (const auto& v : r.verdicts) {
    EXPECT_TRUE(v.fired) << v.replay_token();
  }
}

TEST(FaultSpaceSweep, ReplayMatchesTheSweptVerdict) {
  scenario::SweepOptions opts;
  const auto r = scenario::run_fault_space_sweep(opts, 3, 1);
  ASSERT_GE(r.verdicts.size(), 1u);
  const auto& swept = r.verdicts.front();
  const auto replayed = scenario::replay_fault_point(
      opts, fault::FaultPoint{swept.site, swept.occurrence});
  EXPECT_EQ(replayed, swept) << swept.replay_token();
}

TEST(FaultSpaceSweep, ChaosRigReachesDisseminationSites) {
  // The chaos rig's victim hosts overlay position 0 of a two-position
  // cube, so the verdict-dissemination and tester-reassignment sites must
  // appear in its discovered space.
  scenario::SweepOptions opts;
  opts.rig = scenario::SweepOptions::Rig::kChaosRig;
  const auto d = scenario::discover_fault_space(opts);
  for (const fault::FaultSite site :
       {fault::FaultSite::kDissemForward, fault::FaultSite::kStaleVerdict,
        fault::FaultSite::kTesterReassign}) {
    EXPECT_GT(d.manifest.counts[static_cast<std::size_t>(site)], 0u)
        << fault::to_string(site);
  }
  EXPECT_TRUE(d.baseline.converged());
}

TEST(FaultSpaceSweep, BitFaultPathSitesAreReachable) {
  // run_body programs a short rx-BER window on a bystander, so the three
  // bit-path sites must appear in every rig's discovered space — and the
  // un-ledgered flips must not cost the baseline its no-orphans leg.
  scenario::SweepOptions opts;
  const auto d = scenario::discover_fault_space(opts);
  for (const fault::FaultSite site :
       {fault::FaultSite::kBitSamplerSpurious,
        fault::FaultSite::kCopyOnCorruptSkip,
        fault::FaultSite::kFramePoolExhausted}) {
    EXPECT_GT(d.manifest.counts[static_cast<std::size_t>(site)], 0u)
        << fault::to_string(site);
  }
  EXPECT_TRUE(d.baseline.no_orphans);
  EXPECT_TRUE(d.baseline.converged());
}

}  // namespace
}  // namespace decos
