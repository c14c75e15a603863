// The accounting half of the distributed-site simulator: AccessStats
// arithmetic and cost pricing, CostModel defaults, SiteDatabase stat
// accumulation/reset, and the determinism contract of the FaultInjector
// (the failure schedule is a pure function of the seed).

#include <gtest/gtest.h>

#include "distsim/fault_injector.h"
#include "distsim/site_db.h"

namespace ccpi {
namespace {

TEST(AccessStatsTest, CostPricesEachComponent) {
  AccessStats stats;
  stats.local_tuples = 1000;
  stats.remote_tuples = 20;
  stats.remote_trips = 3;
  CostModel model;
  model.local_tuple_cost = 0.5;
  model.remote_tuple_cost = 2.0;
  model.remote_round_trip_cost = 100.0;
  EXPECT_DOUBLE_EQ(stats.Cost(model), 1000 * 0.5 + 20 * 2.0 + 3 * 100.0);
}

TEST(AccessStatsTest, FailedTripsPayTheRoundTripButFetchNothing) {
  // A failed trip is included in remote_trips (the latency was spent) but
  // adds no remote tuples; remote_failures itself carries no extra cost.
  AccessStats ok_trip{0, 50, 1, 0};
  AccessStats failed_trip{0, 0, 1, 1};
  CostModel model;
  EXPECT_DOUBLE_EQ(failed_trip.Cost(model), model.remote_round_trip_cost);
  EXPECT_GT(ok_trip.Cost(model), failed_trip.Cost(model));
}

TEST(AccessStatsTest, AccumulateSumsAllFields) {
  AccessStats a{10, 20, 3, 1};
  AccessStats b{1, 2, 4, 2};
  a += b;
  EXPECT_EQ(a.local_tuples, 11u);
  EXPECT_EQ(a.remote_tuples, 22u);
  EXPECT_EQ(a.remote_trips, 7u);
  EXPECT_EQ(a.remote_failures, 3u);
}

TEST(CostModelTest, DefaultsKeepTheLocalRemoteGap) {
  // The defaults encode the paper's motivation: a remote round trip is
  // orders of magnitude above a local tuple read.
  CostModel model;
  EXPECT_DOUBLE_EQ(model.local_tuple_cost, 0.001);
  EXPECT_DOUBLE_EQ(model.remote_tuple_cost, 0.1);
  EXPECT_DOUBLE_EQ(model.remote_round_trip_cost, 10.0);
  EXPECT_GT(model.remote_tuple_cost, model.local_tuple_cost);
  EXPECT_GT(model.remote_round_trip_cost, 1000 * model.local_tuple_cost);
}

TEST(SiteDatabaseTest, StatsAccumulateAndReset) {
  SiteDatabase site({"l"});
  ASSERT_TRUE(site.OnRead("l", 5).ok());
  ASSERT_TRUE(site.OnRead("r", 7).ok());
  ASSERT_TRUE(site.db().Insert("r", {V(1)}).ok());  // the next read is cold
  ASSERT_TRUE(site.OnRead("r", 2).ok());
  EXPECT_EQ(site.stats().local_tuples, 5u);
  EXPECT_EQ(site.stats().remote_tuples, 9u);
  EXPECT_EQ(site.stats().remote_trips, 2u);
  EXPECT_EQ(site.stats().remote_failures, 0u);
  site.ResetStats();
  EXPECT_EQ(site.stats().local_tuples, 0u);
  EXPECT_EQ(site.stats().remote_tuples, 0u);
  EXPECT_EQ(site.stats().remote_trips, 0u);
}

TEST(SiteDatabaseTest, FailedRemoteReadChargesTheTrip) {
  FaultInjector injector(FaultConfig{});
  injector.ForceOutage(true);
  SiteDatabase site({"l"});
  site.set_site_fault_injector(0, &injector);
  // Local reads never fail, even under a hard outage.
  EXPECT_TRUE(site.OnRead("l", 3).ok());
  Status s = site.OnRead("r", 10);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(site.stats().remote_trips, 1u);
  EXPECT_EQ(site.stats().remote_failures, 1u);
  EXPECT_EQ(site.stats().remote_tuples, 0u);  // nothing came back
}

// ---- RemoteReadCache + the SiteDatabase cached read path ----------------

TEST(RemoteReadCacheTest, LookupStates) {
  RemoteReadCache cache;
  EXPECT_EQ(cache.Find("r", 5), RemoteReadCache::Lookup::kMissCold);
  cache.NoteFill("r", 5);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Find("r", 5), RemoteReadCache::Lookup::kHit);
  EXPECT_EQ(cache.Find("r", 6), RemoteReadCache::Lookup::kMissStale);
  // A failed fetch poisons the entry: even the filled version misses.
  cache.NoteFailure("r");
  EXPECT_EQ(cache.Find("r", 5), RemoteReadCache::Lookup::kMissStale);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SiteDatabaseTest, CachedReadSkipsTheTripUntilInvalidated) {
  SiteDatabase site({"l"});
  ASSERT_TRUE(site.db().Insert("r", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("r", {V(2)}).ok());

  ASSERT_TRUE(site.OnRead("r", 2).ok());  // cold: physical fetch + fill
  ASSERT_TRUE(site.OnRead("r", 2).ok());  // unchanged: served locally
  AccessStats stats = site.stats();
  EXPECT_EQ(stats.remote_trips, 1u);
  EXPECT_EQ(stats.remote_tuples, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cached_tuples, 2u);

  // Mutating the relation bumps its version: the entry is stale and the
  // next read pays a real trip again.
  ASSERT_TRUE(site.db().Insert("r", {V(3)}).ok());
  ASSERT_TRUE(site.OnRead("r", 3).ok());
  stats = site.stats();
  EXPECT_EQ(stats.remote_trips, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);

  // A no-op write (duplicate insert) does not invalidate.
  Status dup = site.db().Insert("r", {V(3)});
  ASSERT_TRUE(site.OnRead("r", 3).ok());
  EXPECT_EQ(site.stats().remote_trips, 2u);
  EXPECT_EQ(site.stats().cache_hits, 2u);
  (void)dup;
}

TEST(SiteDatabaseTest, FailedFillLeavesEntryUnusable) {
  FaultInjector injector(FaultConfig{});
  SiteDatabase site({"l"});
  site.set_site_fault_injector(0, &injector);
  ASSERT_TRUE(site.db().Insert("r", {V(1)}).ok());

  injector.ForceOutage(true);
  EXPECT_EQ(site.ReadRemote("r", 1).code(), StatusCode::kUnavailable);
  injector.ForceOutage(false);
  // The failed fill must not be served as a hit: this read goes physical.
  ASSERT_TRUE(site.ReadRemote("r", 1).ok());
  AccessStats stats = site.stats();
  EXPECT_EQ(stats.remote_trips, 2u);
  EXPECT_EQ(stats.remote_failures, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  // Now the fill succeeded, so the next read hits — but it still consumes
  // one draw of the failure schedule (one draw per logical read).
  uint64_t draws_before = injector.stats().trips;
  ASSERT_TRUE(site.ReadRemote("r", 1).ok());
  EXPECT_EQ(site.stats().cache_hits, 1u);
  EXPECT_EQ(injector.stats().trips, draws_before + 1);
}

TEST(SiteDatabaseTest, FaultedCacheHitPoisonsTheEntry) {
  FaultInjector injector(FaultConfig{});
  SiteDatabase site({"l"});
  site.set_site_fault_injector(0, &injector);
  ASSERT_TRUE(site.db().Insert("r", {V(1)}).ok());
  ASSERT_TRUE(site.ReadRemote("r", 1).ok());  // fill

  // The revalidation draw faults: billed as a failed physical trip, and
  // the entry is no longer trusted.
  injector.ForceOutage(true);
  EXPECT_EQ(site.ReadRemote("r", 1).code(), StatusCode::kUnavailable);
  injector.ForceOutage(false);
  ASSERT_TRUE(site.ReadRemote("r", 1).ok());
  AccessStats stats = site.stats();
  EXPECT_EQ(stats.remote_trips, 3u);  // fill + faulted hit + refill
  EXPECT_EQ(stats.remote_failures, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(SiteDatabaseTest, PrefetchFetchesEachRelationAtMostOnce) {
  SiteDatabase site({"l"});
  ASSERT_TRUE(site.db().Insert("r", {V(1)}).ok());
  ASSERT_TRUE(site.db().Insert("r", {V(2)}).ok());
  ASSERT_TRUE(site.db().Insert("dept", {V("cs")}).ok());
  ASSERT_TRUE(site.db().Insert("l", {V(1), V(2)}).ok());

  site.PrefetchRemoteBatched({"r", "dept", "l"}, nullptr);
  AccessStats stats = site.stats();
  EXPECT_EQ(stats.remote_trips, 1u);   // r and dept share one batch trip
  EXPECT_EQ(stats.remote_tuples, 3u);  // whole relations fetched
  EXPECT_EQ(stats.local_tuples, 0u);   // prefetch never bills local reads

  // Already valid: a second prefetch is free, and the fan-out's own
  // reads are hits.
  site.PrefetchRemoteBatched({"r", "dept"}, nullptr);
  EXPECT_EQ(site.stats().remote_trips, 1u);
  ASSERT_TRUE(site.OnRead("r", 2).ok());
  ASSERT_TRUE(site.OnRead("dept", 1).ok());
  EXPECT_EQ(site.stats().remote_trips, 1u);
  EXPECT_EQ(site.stats().cache_hits, 2u);
}

TEST(AccessStatsTest, CachedTuplesArePricedBelowRemote) {
  AccessStats cached;
  cached.cache_hits = 1;
  cached.cached_tuples = 100;
  AccessStats fetched;
  fetched.remote_trips = 1;
  fetched.remote_tuples = 100;
  CostModel model;
  EXPECT_DOUBLE_EQ(cached.Cost(model), 100 * model.cached_tuple_cost);
  EXPECT_LT(cached.Cost(model), fetched.Cost(model));
  // Cached reads are priced like local ones: the data is already here.
  EXPECT_DOUBLE_EQ(model.cached_tuple_cost, model.local_tuple_cost);
}

TEST(AccessStatsTest, AccumulateSumsCacheFields) {
  AccessStats a;
  a.cache_hits = 2;
  a.cached_tuples = 10;
  AccessStats b;
  b.cache_hits = 3;
  b.cached_tuples = 5;
  a += b;
  EXPECT_EQ(a.cache_hits, 5u);
  EXPECT_EQ(a.cached_tuples, 15u);
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultConfig config;
  config.seed = 42;
  config.transient_rate = 0.3;
  config.timeout_rate = 0.2;
  FaultInjector a(config);
  FaultInjector b(config);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(a.NextTrip(), b.NextTrip()) << "trip " << i;
  }
  EXPECT_EQ(a.stats().transient_faults, b.stats().transient_faults);
  EXPECT_EQ(a.stats().timeouts, b.stats().timeouts);
  // The rates actually materialize.
  EXPECT_GT(a.stats().transient_faults, 0u);
  EXPECT_GT(a.stats().timeouts, 0u);
  EXPECT_LT(a.stats().injected(), 500u);
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  FaultConfig config;
  config.transient_rate = 0.5;
  config.seed = 1;
  FaultInjector a(config);
  config.seed = 2;
  FaultInjector b(config);
  bool diverged = false;
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = a.NextTrip() != b.NextTrip();
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjectorTest, OutageWindowsOverrideTheRandomSchedule) {
  FaultConfig config;
  config.transient_rate = 0.5;
  config.outages.push_back(OutageWindow{3, 6});
  FaultInjector injector(config);
  for (uint64_t i = 0; i < 10; ++i) {
    FaultKind kind = injector.NextTrip();
    if (i >= 3 && i < 6) {
      EXPECT_EQ(kind, FaultKind::kOutage) << "trip " << i;
    } else {
      EXPECT_NE(kind, FaultKind::kOutage) << "trip " << i;
    }
  }
  EXPECT_EQ(injector.stats().outage_faults, 3u);
  EXPECT_EQ(injector.stats().trips, 10u);
}

TEST(FaultInjectorTest, OutageWindowConsumesTheTripsDraw) {
  // Determinism requires exactly one RNG draw per trip, including trips
  // decided by an outage window: the post-window schedule must not depend
  // on whether a window was configured.
  FaultConfig with;
  with.seed = 9;
  with.transient_rate = 0.4;
  with.outages.push_back(OutageWindow{0, 50});
  FaultConfig without = with;
  without.outages.clear();
  FaultInjector a(with);
  FaultInjector b(without);
  for (int i = 0; i < 50; ++i) {
    a.NextTrip();
    b.NextTrip();
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextTrip(), b.NextTrip()) << "post-window trip " << i;
  }
}

TEST(FaultInjectorTest, StatusMappingMatchesTheFaultTaxonomy) {
  FaultConfig config;
  config.timeout_rate = 1.0;  // every trip times out
  FaultInjector timeouts(config);
  Status s = timeouts.InjectOnRead("r");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(IsRetriable(s.code()));

  FaultInjector down(FaultConfig{});
  down.ForceOutage(true);
  s = down.InjectOnRead("r");
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(IsRetriable(s.code()));
  down.ForceOutage(false);
  EXPECT_TRUE(down.InjectOnRead("r").ok());
}

}  // namespace
}  // namespace ccpi
