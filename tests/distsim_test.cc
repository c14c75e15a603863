#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "distsim/site_db.h"
#include "eval/engine.h"

namespace ccpi {
namespace {

TEST(SiteDatabaseTest, PartitionsReads) {
  SiteDatabase site({"l"});
  EXPECT_TRUE(site.IsLocal("l"));
  EXPECT_FALSE(site.IsLocal("r"));
  EXPECT_TRUE(site.OnRead("l", 10).ok());
  EXPECT_TRUE(site.OnRead("r", 5).ok());
  // Moving r's version makes the next read cold: a second physical trip.
  ASSERT_TRUE(site.db().Insert("r", {V(1)}).ok());
  EXPECT_TRUE(site.OnRead("r", 7).ok());
  EXPECT_EQ(site.stats().local_tuples, 10u);
  EXPECT_EQ(site.stats().remote_tuples, 12u);
  EXPECT_EQ(site.stats().remote_trips, 2u);
  // Unchanged since that fetch: served by the cache, no trip.
  EXPECT_TRUE(site.OnRead("r", 7).ok());
  EXPECT_EQ(site.stats().remote_trips, 2u);
  EXPECT_EQ(site.stats().cache_hits, 1u);
  EXPECT_EQ(site.stats().cached_tuples, 7u);
}

TEST(SiteDatabaseTest, CostModel) {
  CostModel costs;
  costs.local_tuple_cost = 1;
  costs.remote_tuple_cost = 10;
  costs.remote_round_trip_cost = 100;
  AccessStats stats;
  stats.local_tuples = 3;
  stats.remote_tuples = 2;
  stats.remote_trips = 1;
  EXPECT_DOUBLE_EQ(stats.Cost(costs), 3 + 20 + 100);
}

TEST(SiteDatabaseTest, StatsAccumulateAndReset) {
  SiteDatabase site({"l"});
  EXPECT_TRUE(site.OnRead("r", 4).ok());
  AccessStats more;
  more.local_tuples = 1;
  AccessStats total = site.stats();
  total += more;
  EXPECT_EQ(total.local_tuples, 1u);
  EXPECT_EQ(total.remote_tuples, 4u);
  site.ResetStats();
  EXPECT_EQ(site.stats().remote_tuples, 0u);
}

TEST(SiteDatabaseTest, PluggedIntoEvaluation) {
  SiteDatabase site({"l"});
  ASSERT_TRUE(site.db().Insert("l", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("r", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("r", {V(2)}).ok());
  auto constraint = ParseProgram("panic :- l(X) & r(X)");
  ASSERT_TRUE(constraint.ok());
  EvalOptions options;
  options.observer = &site;
  auto v = IsViolated(*constraint, site.db(), options);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);
  EXPECT_GT(site.stats().local_tuples, 0u);
  EXPECT_GT(site.stats().remote_tuples, 0u);
}

}  // namespace
}  // namespace ccpi
