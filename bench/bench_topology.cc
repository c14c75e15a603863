// Experiment TOPOLOGY: N-site sharded distsim. Two sweeps reproduce the
// headline properties of the per-site fault-domain design:
//
//  * BATCH — a healthy run whose tier-3 worklist needs four remote
//    relations. At every site count the prefetch coalesces the cold
//    relations into one batched round trip per site, so the trip count
//    follows the number of sites the relations spread over: one trip at
//    one site, two at two, four at four.
//
//  * OUTAGE — a scripted outage-then-return per site, either aligned
//    across sites (correlation 1: every site dark in the same trip
//    window) or staggered (correlation 0). Checks touching only healthy
//    sites keep completing (partial degradation), deferred entries drain
//    once their site returns, the recovery pass revalidates poisoned
//    cache entries, and nothing stays pending.
//
// The timed benchmarks compare per-update latency of the single-site
// baseline against a 4-site topology with batched concurrent prefetch.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "datalog/parser.h"
#include "distsim/fault_injector.h"
#include "distsim/topology.h"
#include "manager/constraint_manager.h"
#include "util/check.h"
#include "util/rng.h"

namespace ccpi {
namespace {

constexpr size_t kRemoteRelations = 4;

TopologyConfig MakeTopology(size_t sites) {
  TopologyConfig topology;
  topology.sites = sites;
  for (size_t k = 0; k < kRemoteRelations; ++k) {
    topology.placement["order" + std::to_string(k)] = k % sites;
  }
  return topology;
}

std::unique_ptr<ConstraintManager> MakeManager(size_t sites,
                                               ResilienceConfig resilience,
                                               size_t threads = 1,
                                               bool with_audit = false) {
  ParallelConfig parallel;
  parallel.threads = threads;
  TopologyConfig topology = MakeTopology(sites);
  if (with_audit) topology.placement["audit"] = 0;
  auto mgr = std::make_unique<ConstraintManager>(
      ManagerConfig{.local_preds = {"reserved", "logged"},
                    .resilience = resilience,
                    .parallel = parallel,
                    .topology = std::move(topology)});
  for (size_t k = 0; k < kRemoteRelations; ++k) {
    std::string rel = "order" + std::to_string(k);
    CCPI_CHECK(mgr->AddConstraint(
                      "no-order" + std::to_string(k),
                      *ParseProgram("panic :- reserved(P,Lo,Hi) & " + rel +
                                    "(P,Q) & Lo <= Q & Q <= Hi"))
                   .ok());
  }
  if (with_audit) {
    // Checked only on `logged` updates, which the outage stream stops
    // issuing early: its cache entry is poisoned during site 0's outage
    // and nothing refetches it organically, so only the recovery pass's
    // reconciliation can revalidate it.
    CCPI_CHECK(
        mgr->AddConstraint("no-flagged-audit",
                           *ParseProgram("panic :- logged(X) & audit(X)"))
            .ok());
  }
  return mgr;
}

void Seed(ConstraintManager* mgr) {
  Rng rng(17);
  for (size_t k = 0; k < kRemoteRelations; ++k) {
    std::string rel = "order" + std::to_string(k);
    for (int i = 0; i < 50; ++i) {
      CCPI_CHECK(mgr->site()
                     .db()
                     .Insert(rel, {V("p" + std::to_string(rng.Below(3))),
                                   V(rng.Range(500, 1000))})
                     .ok());
    }
  }
}

/// Risky reservations only: every update needs all four remote relations,
/// so every tier-3 episode touches every site of the topology.
std::vector<Update> MakeStream(size_t count, Rng* rng) {
  std::vector<Update> stream;
  for (size_t i = 0; i < count; ++i) {
    int64_t lo = rng->Range(0, 300);
    stream.push_back(Update::Insert(
        "reserved", {V("p" + std::to_string(rng->Below(3))), V(lo),
                     V(lo + rng->Range(0, 50))}));
  }
  return stream;
}

void PrintBatchTable(bench::Harness* harness) {
  std::printf(
      "=== TOPOLOGY-BATCH: 40 updates, 4 remote relations, healthy ===\n");
  std::printf("%-8s %6s %7s %7s %9s\n", "sites", "trips", "hits",
              "tuples", "cost");
  for (size_t sites : {size_t{1}, size_t{2}, size_t{4}}) {
    auto mgr = MakeManager(sites, ResilienceConfig{});
    Seed(mgr.get());
    Rng rng(99);
    for (const Update& u : MakeStream(40, &rng)) {
      CCPI_CHECK(mgr->ApplyUpdate(u).ok());
    }
    const AccessStats stats = mgr->site().stats();
    std::printf("%-8zu %6zu %7zu %7zu %9.1f\n", sites, stats.remote_trips,
                stats.cache_hits, stats.remote_tuples,
                stats.Cost(CostModel{}));
    harness->Sweep("topology/batch/s" + std::to_string(sites),
                   {{"sites", static_cast<double>(sites)},
                    {"remote_trips", static_cast<double>(stats.remote_trips)},
                    {"cache_hits", static_cast<double>(stats.cache_hits)},
                    {"remote_tuples",
                     static_cast<double>(stats.remote_tuples)},
                    {"cost", stats.Cost(CostModel{})}});
  }
  std::printf("\n");
}

struct OutageRow {
  size_t sites = 0;
  int correlation = 0;
  size_t deferred = 0;
  size_t fast_fails = 0;
  size_t recovered = 0;
  size_t late_violations = 0;
  size_t sites_recovered = 0;
  size_t revalidated = 0;
  size_t pending = 0;
  /// Updates where some tier-3 checks completed while others deferred —
  /// the partial-degradation signature of per-site fault domains. (A
  /// 1-site run can show a few too, at outage edges where one episode
  /// succeeds before a later one trips the breaker.)
  size_t partial_updates = 0;
  /// Updates where every tier-3 check deferred.
  size_t blocked_updates = 0;
};

OutageRow RunOutage(size_t sites, int correlation) {
  ResilienceConfig resilience;
  resilience.retry.max_attempts = 2;
  resilience.breaker.failure_threshold = 2;
  resilience.breaker.cooldown_ticks = 2;
  auto mgr = MakeManager(sites, resilience, /*threads=*/1,
                         /*with_audit=*/true);
  Seed(mgr.get());
  for (int i = 0; i < 5; ++i) {
    CCPI_CHECK(mgr->site()
                   .db()
                   .Insert("audit", {V("x" + std::to_string(i))})
                   .ok());
  }

  // One injector per site. Correlated: every site is dark for its trips
  // [4, 10). Staggered: site s is dark for its trips [4+6s, 10+6s), so at
  // most one fault domain is down at a time and checks pinned to the
  // others keep completing.
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  for (size_t s = 0; s < sites; ++s) {
    FaultConfig faults;
    faults.seed = 11 + s;
    uint64_t begin = correlation == 1 ? 4 : 4 + 6 * s;
    faults.outages.push_back(OutageWindow{begin, begin + 6});
    injectors.push_back(std::make_unique<FaultInjector>(faults));
    mgr->site().set_site_fault_injector(s, injectors.back().get());
  }

  OutageRow row;
  Rng rng(99);
  std::vector<Update> stream = MakeStream(60, &rng);
  // A scripted poison orphan: the first `logged` insert fills the audit
  // cache entry; the second reads it while audit alone is forced down
  // (ForcePredOutage below), fails, poisons the entry, and defers; the
  // immediate inverse delete then supersedes the deferred check (the
  // queue drops it as moot), so no drain ever refetches audit — only the
  // recovery pass's reconciliation can revalidate the poisoned entry.
  stream[0] = Update::Insert("logged", {V("seed")});
  stream[2] = Update::Insert("logged", {V("probe")});
  stream[3] = Update::Delete("logged", {V("probe")});
  for (size_t i = 0; i < stream.size(); ++i) {
    const Update& u = stream[i];
    injectors[0]->ForcePredOutage("audit", i == 2);
    auto reports = mgr->ApplyUpdate(u);
    CCPI_CHECK(reports.ok());
    size_t full = 0, deferred = 0;
    for (const CheckReport& c : *reports) {
      if (c.outcome == Outcome::kDeferred) ++deferred;
      if (c.tier == Tier::kFullCheck && c.outcome != Outcome::kDeferred &&
          c.outcome != Outcome::kUnknown) {
        ++full;
      }
    }
    if (deferred > 0 && full > 0) ++row.partial_updates;
    if (deferred > 0 && full == 0) ++row.blocked_updates;
  }

  // Shutdown drain with the injectors still attached: the outage windows
  // are finite, so the drain's own trips walk each site past its window
  // and the queue empties on the healed schedule.
  for (int idle = 0; !mgr->deferred_queue().empty() && idle < 10;) {
    mgr->TickBreaker(resilience.breaker.cooldown_ticks + 1);
    auto late = mgr->RecheckDeferred();
    CCPI_CHECK(late.ok());
    idle = late->empty() ? idle + 1 : 0;
  }

  const ManagerStats stats = mgr->stats();
  row.sites = sites;
  row.correlation = correlation;
  row.deferred = stats.deferred;
  row.fast_fails = stats.breaker_fast_fails;
  row.recovered = stats.deferred_recovered;
  row.late_violations = stats.deferred_violations;
  row.sites_recovered = stats.sites_recovered;
  row.revalidated = stats.cache_revalidated;
  row.pending = mgr->deferred_queue().size();
  return row;
}

void PrintOutageTable(bench::Harness* harness) {
  std::printf(
      "=== TOPOLOGY-OUTAGE: 60 updates, scripted outage-then-return ===\n");
  std::printf("%-6s %5s %6s %9s %6s %5s %6s %7s %7s %8s %8s\n", "sites",
              "corr", "defer", "fastfail", "recov", "late", "sitesR",
              "revalid", "pending", "partial", "blocked");
  std::vector<OutageRow> rows;
  for (size_t sites : {size_t{1}, size_t{2}, size_t{4}}) {
    for (int correlation : {0, 1}) {
      rows.push_back(RunOutage(sites, correlation));
    }
  }
  for (const OutageRow& r : rows) {
    std::printf("%-6zu %5d %6zu %9zu %6zu %5zu %6zu %7zu %7zu %8zu %8zu\n",
                r.sites, r.correlation, r.deferred, r.fast_fails,
                r.recovered, r.late_violations, r.sites_recovered,
                r.revalidated, r.pending, r.partial_updates,
                r.blocked_updates);
    harness->Sweep(
        "topology/outage/s" + std::to_string(r.sites) + "/c" +
            std::to_string(r.correlation),
        {{"sites", static_cast<double>(r.sites)},
         {"correlation", static_cast<double>(r.correlation)},
         {"deferred", static_cast<double>(r.deferred)},
         {"fast_fails", static_cast<double>(r.fast_fails)},
         {"recovered", static_cast<double>(r.recovered)},
         {"late_violations", static_cast<double>(r.late_violations)},
         {"sites_recovered", static_cast<double>(r.sites_recovered)},
         {"revalidated", static_cast<double>(r.revalidated)},
         {"pending", static_cast<double>(r.pending)},
         {"partial_updates", static_cast<double>(r.partial_updates)},
         {"blocked_updates", static_cast<double>(r.blocked_updates)}});
  }
  for (const OutageRow& r : rows) {
    // The recovery protocol's contract: every deferred check resolves by
    // shutdown, and with N sites each outage ends in an observed
    // site-recovery event (the 1-site breaker reports none — recovery
    // metrics are a multi-site concept). Staggered multi-site outages
    // must show partial degradation: updates where the checks of healthy
    // sites completed while the dark site's deferred.
    CCPI_CHECK(r.pending == 0);
    // <= not ==: the scripted inverse delete supersedes one deferred
    // check, which is then dropped as moot rather than resolved.
    CCPI_CHECK(r.recovered + r.late_violations <= r.deferred);
    if (r.sites > 1) {
      CCPI_CHECK(r.sites_recovered > 0);
      // The orphaned poisoned entry is reconciled by the recovery pass.
      CCPI_CHECK(r.revalidated > 0);
    }
    if (r.sites == 1) CCPI_CHECK(r.sites_recovered == 0);
    if (r.sites > 1 && r.correlation == 0) {
      CCPI_CHECK(r.partial_updates > 0);
    }
  }
  std::printf("\n");
}

// ---- LATENCY: per-site latency skew and hedged batched reads -------------
//
// Four sites, all cheap-and-steady except site 0, whose two-point latency
// distribution has a heavy slow tail. The stream churns site 0's relation
// before every reservation so each episode pays a fresh batched trip to
// it (the other sites stay cache-warm and contribute no latency). With
// hedging off the per-episode p99 tracks the slow tail; with
// --hedge-after=3 a backup trip is issued whenever the primary draw
// overshoots 3x the site's EWMA, and the episode completes at
// threshold + backup instead — the p99 collapses while every issued
// hedge is billed exactly one extra trip.

struct LatencyRow {
  std::string name;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
  size_t trips = 0;
  size_t issued = 0;
  size_t won = 0;
  size_t wasted = 0;
};

uint64_t Percentile(std::vector<uint64_t>* sorted_us, double p) {
  std::sort(sorted_us->begin(), sorted_us->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted_us->size()));
  if (idx >= sorted_us->size()) idx = sorted_us->size() - 1;
  return (*sorted_us)[idx];
}

LatencyRow RunLatency(const std::string& name, bool skew,
                      uint64_t hedge_after) {
  constexpr size_t kSites = 4;
  constexpr size_t kEpisodes = 120;
  ParallelConfig parallel;
  parallel.threads = 4;
  RemoteCacheConfig remote_cache;
  remote_cache.hedge_after = hedge_after;
  TopologyConfig topology = MakeTopology(kSites);
  for (size_t s = 0; s < kSites; ++s) {
    SiteLatencyOverride o;
    if (skew && s == 0) {
      // Mostly 200us, but 10% of trips take 20ms — the hedgeable tail.
      o.model = LatencyModel::kTwoPoint;
      o.lo_us = 200;
      o.hi_us = 20000;
      o.slow_share = 0.1;
    } else {
      o.model = LatencyModel::kFixed;
      o.fixed_us = skew ? 200 : 0;
    }
    topology.site_latency[s] = o;
  }
  auto mgr = std::make_unique<ConstraintManager>(
      ManagerConfig{.local_preds = {"reserved", "logged"},
                    .parallel = parallel,
                    .remote_cache = remote_cache,
                    .topology = std::move(topology)});
  for (size_t k = 0; k < kRemoteRelations; ++k) {
    std::string rel = "order" + std::to_string(k);
    CCPI_CHECK(mgr->AddConstraint(
                      "no-order" + std::to_string(k),
                      *ParseProgram("panic :- reserved(P,Lo,Hi) & " + rel +
                                    "(P,Q) & Lo <= Q & Q <= Hi"))
                   .ok());
  }
  Seed(mgr.get());

  Rng rng(99);
  std::vector<Update> stream = MakeStream(kEpisodes, &rng);
  std::vector<uint64_t> episode_us;
  episode_us.reserve(stream.size());
  int64_t churn = 10000;
  for (const Update& u : stream) {
    // Invalidate site 0's cache entry so the next episode's batched
    // prefetch pays a fresh (possibly slow-tailed) trip to it.
    CCPI_CHECK(
        mgr->site().db().Insert("order0", {V("px"), V(churn++)}).ok());
    auto start = std::chrono::steady_clock::now();
    auto reports = mgr->ApplyUpdate(u);
    auto stop = std::chrono::steady_clock::now();
    CCPI_CHECK(reports.ok());
    episode_us.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(stop - start)
            .count()));
  }

  LatencyRow row;
  row.name = name;
  row.p50_us = Percentile(&episode_us, 0.50);
  row.p99_us = Percentile(&episode_us, 0.99);
  row.trips = mgr->site().stats().remote_trips;
  const ManagerStats stats = mgr->stats();
  row.issued = stats.hedges_issued;
  row.won = stats.hedges_won;
  row.wasted = stats.hedges_wasted;
  return row;
}

void PrintLatencyTable(bench::Harness* harness) {
  std::printf(
      "=== TOPOLOGY-LATENCY: 120 updates, 4 sites, site 0 slow-tailed "
      "===\n");
  std::printf("%-22s %8s %8s %6s %7s %5s %7s\n", "config", "p50us",
              "p99us", "trips", "hedges", "won", "wasted");
  std::vector<LatencyRow> rows;
  rows.push_back(RunLatency("neutral", /*skew=*/false, /*hedge_after=*/0));
  rows.push_back(RunLatency("skew/unhedged", /*skew=*/true,
                            /*hedge_after=*/0));
  rows.push_back(RunLatency("skew/hedged", /*skew=*/true,
                            /*hedge_after=*/3));
  for (const LatencyRow& r : rows) {
    std::printf("%-22s %8zu %8zu %6zu %7zu %5zu %7zu\n", r.name.c_str(),
                static_cast<size_t>(r.p50_us), static_cast<size_t>(r.p99_us),
                r.trips, r.issued, r.won, r.wasted);
    harness->Sweep("topology/latency/s4/" + r.name,
                   {{"p50_us", static_cast<double>(r.p50_us)},
                    {"p99_us", static_cast<double>(r.p99_us)},
                    {"remote_trips", static_cast<double>(r.trips)},
                    {"hedges_issued", static_cast<double>(r.issued)},
                    {"hedges_won", static_cast<double>(r.won)},
                    {"hedges_wasted", static_cast<double>(r.wasted)}});
  }
  // The contract the committed JSON is checked against: hedging must be
  // exactly billed (issued == won + wasted everywhere, none without
  // arming), engage on the skewed config, and flatten its tail.
  for (const LatencyRow& r : rows) {
    CCPI_CHECK(r.issued == r.won + r.wasted);
  }
  CCPI_CHECK(rows[0].issued == 0 && rows[1].issued == 0);
  CCPI_CHECK(rows[2].issued > 0);
  CCPI_CHECK(rows[2].won > 0);
  CCPI_CHECK(rows[2].p99_us <= rows[1].p99_us);
  std::printf("\n");
}

void BM_UpdateSingleSite(benchmark::State& state) {
  auto mgr = MakeManager(1, ResilienceConfig{});
  Seed(mgr.get());
  Rng rng(3);
  for (auto _ : state) {
    int64_t lo = rng.Range(0, 300);
    auto reports = mgr->ApplyUpdate(Update::Insert(
        "reserved",
        {V("p" + std::to_string(rng.Below(3))), V(lo), V(lo + 20)}));
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
  }
  state.counters["remote_trips"] =
      static_cast<double>(mgr->site().stats().remote_trips);
}
BENCHMARK(BM_UpdateSingleSite);

void BM_UpdateFourSitesBatched(benchmark::State& state) {
  auto mgr = MakeManager(4, ResilienceConfig{}, /*threads=*/4);
  Seed(mgr.get());
  Rng rng(3);
  for (auto _ : state) {
    int64_t lo = rng.Range(0, 300);
    auto reports = mgr->ApplyUpdate(Update::Insert(
        "reserved",
        {V("p" + std::to_string(rng.Below(3))), V(lo), V(lo + 20)}));
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
  }
  state.counters["remote_trips"] =
      static_cast<double>(mgr->site().stats().remote_trips);
}
BENCHMARK(BM_UpdateFourSitesBatched);

}  // namespace
}  // namespace ccpi

int main(int argc, char** argv) {
  ccpi::bench::Harness harness("topology");
  ccpi::PrintBatchTable(&harness);
  ccpi::PrintOutageTable(&harness);
  ccpi::PrintLatencyTable(&harness);
  return harness.RunAndWrite(argc, argv);
}
