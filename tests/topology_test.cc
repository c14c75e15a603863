// Tests for the N-site topology layer: predicate->site placement, the
// per-site resources of SiteDatabase (injectors, caches, budgets, stats),
// batched concurrent prefetch, and poisoned-entry recovery.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>

#include "distsim/fault_injector.h"
#include "distsim/site_db.h"
#include "distsim/topology.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace ccpi {
namespace {

TEST(TopologyTest, SingleSiteMapsEverythingToSiteZero) {
  Topology topology;
  EXPECT_EQ(topology.sites(), 1u);
  EXPECT_EQ(topology.SiteOf("anything"), 0u);
  EXPECT_EQ(topology.SiteOf(""), 0u);
}

TEST(TopologyTest, ExplicitPlacementWinsOverHash) {
  TopologyConfig config;
  config.sites = 3;
  config.placement["orders"] = 2;
  Topology topology(config);
  EXPECT_EQ(topology.SiteOf("orders"), 2u);
  // Unpinned predicates hash into range.
  EXPECT_LT(topology.SiteOf("misc"), 3u);
}

TEST(TopologyTest, HashPlacementIsDeterministicAndStable) {
  TopologyConfig config;
  config.sites = 4;
  Topology a(config);
  Topology b(config);
  for (const char* pred : {"p", "q", "orders", "emp", "assign", "x1"}) {
    EXPECT_EQ(a.SiteOf(pred), b.SiteOf(pred)) << pred;
  }
  // FNV-1a is part of the format: reports and placements must not change
  // across runs or platforms, so pin one known value.
  EXPECT_EQ(Topology::HashPred("orders") % 4, a.SiteOf("orders"));
}

TEST(TopologyTest, HashSpreadsPredicatesAcrossSites) {
  TopologyConfig config;
  config.sites = 4;
  Topology topology(config);
  std::set<size_t> used;
  for (int i = 0; i < 64; ++i) {
    used.insert(topology.SiteOf("pred" + std::to_string(i)));
  }
  EXPECT_EQ(used.size(), 4u);  // 64 draws hit all 4 sites
}

TEST(SiteTopologyTest, PerSiteStatsAttributeTrips) {
  TopologyConfig config;
  config.sites = 2;
  config.placement["a"] = 0;
  config.placement["b"] = 1;
  SiteDatabase site({"l"}, config);
  ASSERT_TRUE(site.db().Insert("a", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("b", {V(2)}).ok());
  ASSERT_TRUE(site.ReadRemote("a", 1).ok());
  ASSERT_TRUE(site.db().Insert("a", {V(3)}).ok());  // a's next read is cold
  ASSERT_TRUE(site.ReadRemote("a", 1).ok());
  ASSERT_TRUE(site.ReadRemote("b", 1).ok());
  ASSERT_TRUE(site.ReadRemote("b", 1).ok());  // unchanged: a cache hit
  // Each physical trip and each hit is attributed to its owner site; the
  // aggregate is their sum.
  EXPECT_EQ(site.site_stats(0).remote_trips, 2u);
  EXPECT_EQ(site.site_stats(1).remote_trips, 1u);
  EXPECT_EQ(site.site_stats(0).cache_hits, 0u);
  EXPECT_EQ(site.site_stats(1).cache_hits, 1u);
  EXPECT_EQ(site.stats().remote_trips, 3u);
  EXPECT_EQ(site.stats().cache_hits, 1u);
}

TEST(SiteTopologyTest, PerSiteInjectorFailsOnlyItsOwnSite) {
  TopologyConfig config;
  config.sites = 2;
  config.placement["a"] = 0;
  config.placement["b"] = 1;
  SiteDatabase site({"l"}, config);
  ASSERT_TRUE(site.db().Insert("a", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("b", {V(2)}).ok());
  FaultInjector dark{FaultConfig{}};
  dark.ForceOutage(true);
  site.set_site_fault_injector(1, &dark);
  EXPECT_TRUE(site.ReadRemote("a", 1).ok());   // site 0 healthy
  EXPECT_FALSE(site.ReadRemote("b", 1).ok());  // site 1 dark
  EXPECT_EQ(site.site_stats(0).remote_failures, 0u);
  EXPECT_EQ(site.site_stats(1).remote_failures, 1u);
}

TEST(SiteTopologyTest, BatchedPrefetchPaysOneTripPerSite) {
  TopologyConfig config;
  config.sites = 2;
  config.placement["a"] = 0;
  config.placement["b"] = 0;
  config.placement["c"] = 1;
  SiteDatabase site({"l"}, config);
  ASSERT_TRUE(site.db().Insert("a", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("b", {V(2)}).ok());
  ASSERT_TRUE(site.db().Insert("c", {V(3)}).ok());
  ThreadPool pool(4);
  site.PrefetchRemoteBatched({"a", "b", "c"}, &pool);
  // Three relations, two sites: site 0's two relations coalesce into one
  // round trip; site 1 pays one.
  EXPECT_EQ(site.site_stats(0).remote_trips, 1u);
  EXPECT_EQ(site.site_stats(1).remote_trips, 1u);
  EXPECT_EQ(site.stats().remote_trips, 2u);
  // Everything is now cached: reads are hits, no further trips.
  ASSERT_TRUE(site.ReadRemote("a", 1).ok());
  ASSERT_TRUE(site.ReadRemote("b", 1).ok());
  ASSERT_TRUE(site.ReadRemote("c", 1).ok());
  EXPECT_EQ(site.stats().remote_trips, 2u);
  EXPECT_EQ(site.stats().cache_hits, 3u);
  // A warm batch refetches nothing.
  site.PrefetchRemoteBatched({"a", "b", "c"}, &pool);
  EXPECT_EQ(site.stats().remote_trips, 2u);
}

TEST(SiteTopologyTest, BatchedPrefetchSequentialAndParallelAgree) {
  for (size_t threads : {size_t{1}, size_t{4}}) {
    TopologyConfig config;
    config.sites = 3;
    SiteDatabase site({"l"}, config);
    std::set<std::string> preds;
    for (int i = 0; i < 9; ++i) {
      std::string pred = "r" + std::to_string(i);
      ASSERT_TRUE(site.db().Insert(pred, {V(i)}).ok());
      preds.insert(pred);
    }
    ThreadPool pool(threads);
    site.PrefetchRemoteBatched(preds, &pool);
    size_t populated_sites = 0;
    for (size_t s = 0; s < site.sites(); ++s) {
      populated_sites += site.site_stats(s).remote_trips > 0 ? 1 : 0;
    }
    // One trip per site that owns at least one predicate, at any width.
    EXPECT_EQ(site.stats().remote_trips, populated_sites);
    EXPECT_EQ(site.stats().remote_tuples, 9u);
  }
}

TEST(SiteTopologyTest, BatchedPrefetchBillsInvalidationsAndFillLatency) {
  // A batch bills the same cache observability as per-relation misses:
  // one miss per relation, one invalidation per stale relation, and one
  // fill-latency sample per batch trip.
  obs::SetTimingEnabled(true);
  TopologyConfig config;
  config.sites = 2;
  config.placement["a"] = 0;
  config.placement["b"] = 0;
  config.placement["c"] = 1;
  SiteDatabase site({"l"}, config);
  obs::MetricsRegistry& registry = site.metrics();
  ASSERT_TRUE(site.db().Insert("a", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("b", {V(2)}).ok());
  ASSERT_TRUE(site.db().Insert("c", {V(3)}).ok());
  ThreadPool pool(2);
  obs::Counter* misses = registry.GetCounter("distsim.cache_misses");
  obs::Counter* invalidations =
      registry.GetCounter("distsim.cache_invalidations");
  obs::Histogram* fills =
      registry.GetHistogram("distsim.cache_fill_latency_ns");

  site.PrefetchRemoteBatched({"a", "b", "c"}, &pool);
  EXPECT_EQ(misses->value(), 3u);  // cold fills
  EXPECT_EQ(invalidations->value(), 0u);
  EXPECT_EQ(fills->count(), 2u);  // two batches

  // Moving a and c leaves their entries stale: the refetch invalidates.
  ASSERT_TRUE(site.db().Insert("a", {V(4)}).ok());
  ASSERT_TRUE(site.db().Insert("c", {V(5)}).ok());
  site.PrefetchRemoteBatched({"a", "b", "c"}, &pool);
  EXPECT_EQ(misses->value(), 5u);
  EXPECT_EQ(invalidations->value(), 2u);
  EXPECT_EQ(fills->count(), 4u);
  EXPECT_EQ(site.stats().remote_trips, 4u);
  obs::SetTimingEnabled(false);
}

TEST(SiteTopologyTest, RecoverSiteCacheRevalidatesOnlyPoisonedEntries) {
  TopologyConfig config;
  config.sites = 2;
  config.placement["a"] = 0;
  config.placement["b"] = 0;
  config.placement["cold"] = 0;
  SiteDatabase site({"l"}, config);
  ASSERT_TRUE(site.db().Insert("a", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("b", {V(2)}).ok());
  ASSERT_TRUE(site.db().Insert("cold", {V(3)}).ok());
  // Fill a and b, then poison a via a faulted read during an outage.
  ASSERT_TRUE(site.ReadRemote("a", 1).ok());
  ASSERT_TRUE(site.ReadRemote("b", 1).ok());
  FaultInjector dark{FaultConfig{}};
  dark.ForceOutage(true);
  site.set_site_fault_injector(0, &dark);
  EXPECT_FALSE(site.ReadRemote("a", 1).ok());
  dark.ForceOutage(false);
  size_t trips_before = site.stats().remote_trips;
  size_t revalidated = site.RecoverSiteCache(0, {"a", "b", "cold"});
  // Only the poisoned entry is refetched: b is still a valid snapshot and
  // `cold` was never read (recovery must not grow the cached footprint).
  EXPECT_EQ(revalidated, 1u);
  EXPECT_EQ(site.stats().remote_trips, trips_before + 1);
  ASSERT_TRUE(site.ReadRemote("a", 1).ok());  // served by the cache again
  EXPECT_EQ(site.stats().remote_trips, trips_before + 1);
}

TEST(SiteTopologyTest, ResetStatsClearsPerSiteCounters) {
  TopologyConfig config;
  config.sites = 2;
  config.placement["a"] = 1;
  SiteDatabase site({"l"}, config);
  ASSERT_TRUE(site.db().Insert("a", {V(1)}).ok());
  ASSERT_TRUE(site.ReadRemote("a", 1).ok());
  EXPECT_EQ(site.site_stats(1).remote_trips, 1u);
  site.ResetStats();
  EXPECT_EQ(site.site_stats(1).remote_trips, 0u);
  EXPECT_EQ(site.stats().remote_trips, 0u);
}

// The registry is the only copy of the access counts: the `distsim.*`
// counters read exactly what stats() reports, field by field, the
// per-site series sum to the aggregates, and ResetStats zeroes both
// views together — at one site as at three.
TEST(SiteTopologyTest, RegistryCountersAreStatsAcrossResetAtAnySiteCount) {
  for (size_t sites : {1u, 3u}) {
    SCOPED_TRACE("sites=" + std::to_string(sites));
    TopologyConfig config;
    config.sites = sites;
    config.placement["a"] = 0;
    config.placement["b"] = sites - 1;
    SiteDatabase site({"l"}, config);
    ASSERT_TRUE(site.db().Insert("a", {V(1)}).ok());
    ASSERT_TRUE(site.db().Insert("b", {V(2)}).ok());
    FaultInjector dark{FaultConfig{}};
    int64_t fresh = 10;
    auto read_round = [&]() {
      // Moving a's version makes every round fill it cold.
      EXPECT_TRUE(site.db().Insert("a", {V(fresh++)}).ok());
      EXPECT_TRUE(site.OnRead("l", 2).ok());
      EXPECT_TRUE(site.ReadRemote("a", 1).ok());  // cold fill
      EXPECT_TRUE(site.ReadRemote("a", 1).ok());  // cache hit
      dark.ForceOutage(true);
      site.set_site_fault_injector(sites - 1, &dark);
      EXPECT_FALSE(site.ReadRemote("b", 1).ok());  // failed trip
      site.set_site_fault_injector(sites - 1, nullptr);
      dark.ForceOutage(false);
    };
    auto expect_registry_is_stats = [&]() {
      obs::MetricsRegistry& m = site.metrics();
      auto counter = [&](const std::string& name) {
        return m.GetCounter(name)->value();
      };
      const AccessStats total = site.stats();
      EXPECT_EQ(counter("distsim.local_tuples"), total.local_tuples);
      const std::pair<const char*, size_t AccessStats::*> fields[] = {
          {"remote_tuples", &AccessStats::remote_tuples},
          {"remote_trips", &AccessStats::remote_trips},
          {"remote_failures", &AccessStats::remote_failures},
          {"cache_hits", &AccessStats::cache_hits},
          {"cached_tuples", &AccessStats::cached_tuples}};
      for (const auto& [name, field] : fields) {
        SCOPED_TRACE(name);
        EXPECT_EQ(counter(std::string("distsim.") + name), total.*field);
        uint64_t per_site_sum = 0;
        for (size_t k = 0; k < sites; ++k) {
          const uint64_t v = counter("distsim.site" + std::to_string(k) +
                                     "." + name);
          EXPECT_EQ(v, site.site_stats(k).*field);
          per_site_sum += v;
        }
        EXPECT_EQ(per_site_sum, total.*field);
      }
    };
    read_round();
    EXPECT_EQ(site.stats().remote_trips, 2u);
    EXPECT_EQ(site.stats().cache_hits, 1u);
    expect_registry_is_stats();
    site.ResetStats();
    EXPECT_EQ(site.stats().remote_trips, 0u);
    expect_registry_is_stats();
    read_round();
    EXPECT_EQ(site.stats().remote_failures, 1u);
    expect_registry_is_stats();
  }
}

}  // namespace
}  // namespace ccpi
