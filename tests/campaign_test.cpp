// Tests for the fault-injection campaign library: catalogue integrity
// (every taxonomy leaf covered), runner bookkeeping, and a small live
// campaign reaching full accuracy on a couple of archetypes.
#include <gtest/gtest.h>

#include <set>

#include "scenario/campaign.hpp"

namespace decos::scenario {
namespace {

TEST(Campaign, CatalogueCoversEveryTaxonomyLeaf) {
  const auto archetypes = standard_archetypes();
  EXPECT_GE(archetypes.size(), 12u);
  std::set<fault::FaultClass> covered;
  for (const auto& a : archetypes) covered.insert(a.truth);
  EXPECT_TRUE(covered.contains(fault::FaultClass::kComponentExternal));
  EXPECT_TRUE(covered.contains(fault::FaultClass::kComponentBorderline));
  EXPECT_TRUE(covered.contains(fault::FaultClass::kComponentInternal));
  EXPECT_TRUE(covered.contains(fault::FaultClass::kJobBorderline));
  EXPECT_TRUE(covered.contains(fault::FaultClass::kJobInherentSoftware));
  EXPECT_TRUE(covered.contains(fault::FaultClass::kJobInherentTransducer));
}

TEST(Campaign, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (const auto& a : standard_archetypes()) {
    EXPECT_FALSE(a.name.empty());
    EXPECT_TRUE(names.insert(a.name).second) << "duplicate: " << a.name;
    EXPECT_GT(a.horizon.ns(), 0);
    EXPECT_TRUE(static_cast<bool>(a.inject));
    EXPECT_TRUE(static_cast<bool>(a.subject));
  }
}

TEST(Campaign, RunnerAccumulatesConfusionAndCounts) {
  // Two cheap archetypes, two seeds: 4 runs total.
  auto all = standard_archetypes();
  std::vector<Archetype> subset;
  for (auto& a : all) {
    if (a.name == "seu" || a.name == "permanent") subset.push_back(a);
  }
  ASSERT_EQ(subset.size(), 2u);
  const auto result = run_campaign(subset, {601, 602});
  EXPECT_EQ(result.confusion.total(), 4u);
  ASSERT_EQ(result.per_archetype.size(), 2u);
  for (const auto& row : result.per_archetype) {
    EXPECT_EQ(row.runs, 2u);
    EXPECT_EQ(row.correct, 2u) << row.name;
  }
  EXPECT_DOUBLE_EQ(result.confusion.accuracy(), 1.0);
}


TEST(Campaign, FullCatalogueClassifiesPerfectlyAcrossSeeds) {
  // The headline invariant of the reproduction: every archetype of the
  // maintenance-oriented fault model is classified correctly, for every
  // seed. (Bench E5 sweeps five seeds; two keep the test fast.)
  const auto result = run_campaign(standard_archetypes(), {701, 702});
  EXPECT_DOUBLE_EQ(result.confusion.accuracy(), 1.0)
      << result.confusion.to_table();
  for (const auto& row : result.per_archetype) {
    EXPECT_EQ(row.correct, row.runs) << row.name;
  }
}

}  // namespace
}  // namespace decos::scenario
