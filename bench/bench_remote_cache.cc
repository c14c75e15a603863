// Experiment CACHE-1: remote-trip savings of the remote-read snapshot
// cache under varying update locality. The workload has K referential
// constraints `panic :- emp(E,D,S) & not dept<k>(D)` — negation over a
// remote table defeats every local test, so each emp insert costs K full
// tier-3 checks, each reading one remote relation (and probing it once
// per emp row, which is local work after the read). The sweep crosses the
// fraction f of emp inserts that follow a mutation of a remote-referenced
// relation (and so find its cached snapshot invalidated) with K: at f=0
// the cache converges to zero trips per update; at f=1 every episode
// refetches a relation. The paper's target regime is the low-f row — most
// updates touch local data only, so almost every remote snapshot is still
// current and the trips collapse.
//
// The cache is the only read path, so the uncached baseline (the `_off`
// columns) is the count of logical remote reads of a twin run with a
// zero-rate fault injector attached: an injector turns batched prefetch
// off, so every logical read is one trip or one cache hit, and pricing
// each hit as a remote trip gives what the reads cost uncached. A logical
// read is one remote relation per evaluation, so the baseline is a
// checker that fetches each relation once per check: K reads per emp
// insert (tools/check_bench_json.py caps `remote_trips_off` at
// updates x constraints).

#include <benchmark/benchmark.h>

#include "bench_harness.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"
#include "util/check.h"
#include "util/rng.h"

namespace ccpi {
namespace {

constexpr size_t kDeptDomain = 10;   // d0..d9 seeded into every dept<k>
constexpr size_t kDeptRows = 40;     // extra rows: remote relations have bulk

/// A manager with K tier-3-bound referential constraints over K remote
/// tables. Every seeded emp row and every generated emp insert references
/// a seeded department, so the constraints always hold and each update is
/// applied (the steady-state regime the cache targets).
std::unique_ptr<ConstraintManager> MakeManager(size_t constraints) {
  auto mgr = std::make_unique<ConstraintManager>(
      ManagerConfig{.local_preds = {"emp"}});
  for (size_t k = 0; k < constraints; ++k) {
    std::string dept = "dept" + std::to_string(k);
    auto p = ParseProgram("panic :- emp(E,D,S) & not " + dept + "(D)");
    CCPI_CHECK(p.ok());
    CCPI_CHECK(mgr->AddConstraint("ref" + std::to_string(k), *p).ok());
    for (size_t d = 0; d < kDeptDomain + kDeptRows; ++d) {
      CCPI_CHECK(
          mgr->site().db().Insert(dept, {V("d" + std::to_string(d))}).ok());
    }
  }
  for (int i = 0; i < 20; ++i) {
    CCPI_CHECK(mgr->site()
                   .db()
                   .Insert("emp", {V("seed" + std::to_string(i)),
                                   V("d" + std::to_string(i % kDeptDomain)),
                                   V(i)})
                   .ok());
  }
  return mgr;
}

/// `n` local emp inserts, each costing K full checks, a fraction
/// `locality` of which are preceded by a fresh row inserted into a random
/// remote dept<k> — the only mutations that invalidate a cached remote
/// snapshot (tier 1 settles the dept insert itself: the constraints read
/// dept<k> only under negation). Deterministic in the seed, identical for
/// both runs of a row.
std::vector<Update> Stream(size_t n, double locality, size_t constraints,
                           uint64_t seed) {
  Rng rng(seed);
  std::vector<Update> out;
  for (size_t i = 0; i < n; ++i) {
    if (rng.Below(1000) < static_cast<uint64_t>(locality * 1000)) {
      std::string dept = "dept" + std::to_string(rng.Below(constraints));
      out.push_back(Update::Insert(dept, {V("new" + std::to_string(i))}));
    }
    out.push_back(Update::Insert(
        "emp", {V("e" + std::to_string(i)),
                V("d" + std::to_string(rng.Below(kDeptDomain))),
                V(static_cast<int64_t>(rng.Below(100)))}));
  }
  return out;
}

struct CachePoint {
  /// Updates applied: the emp inserts plus the dept<k> inserts before them.
  size_t updates = 0;
  AccessStats access;
  double sim_cost = 0;
  double ns_per_update = 0;
};

/// One run of a row; `uncached_twin` attaches a zero-rate fault injector
/// and reports the run's logical reads priced uncached.
CachePoint RunOne(size_t constraints, double locality, size_t steps,
                  bool uncached_twin) {
  std::unique_ptr<ConstraintManager> mgr = MakeManager(constraints);
  FaultInjector never_fails{FaultConfig{}};
  if (uncached_twin) mgr->site().set_site_fault_injector(0, &never_fails);
  std::vector<Update> stream = Stream(steps, locality, constraints, 97);
  auto t0 = std::chrono::steady_clock::now();
  for (const Update& u : stream) {
    auto reports = mgr->ApplyUpdate(u);
    CCPI_CHECK(reports.ok());
  }
  auto t1 = std::chrono::steady_clock::now();
  CachePoint point;
  point.updates = stream.size();
  point.access = mgr->stats().access;
  if (uncached_twin) point.access = point.access.Uncached();
  point.sim_cost = point.access.Cost(CostModel{});
  point.ns_per_update =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()) /
      static_cast<double>(point.updates);
  return point;
}

void RunSweep(ccpi::bench::Harness* harness, bool quick) {
  std::vector<double> localities = {0.0, 0.1, 0.5, 1.0};
  std::vector<size_t> constraint_counts =
      quick ? std::vector<size_t>{4} : std::vector<size_t>{4, 16};
  size_t steps = quick ? 60 : 200;

  std::printf("=== CACHE-1: remote-read cache vs. update locality ===\n");
  std::printf("%-10s %-6s %12s %12s %10s %12s %14s\n", "locality", "K",
              "trips_off", "trips_on", "reduction", "cache_hits",
              "cost_ratio");
  for (size_t k : constraint_counts) {
    for (double f : localities) {
      CachePoint off = RunOne(k, f, steps, /*uncached_twin=*/true);
      CachePoint on = RunOne(k, f, steps, /*uncached_twin=*/false);
      double reduction =
          on.access.remote_trips > 0
              ? static_cast<double>(off.access.remote_trips) /
                    static_cast<double>(on.access.remote_trips)
              : 0;
      double cost_ratio = off.sim_cost > 0 ? on.sim_cost / off.sim_cost : 0;
      std::printf("%-10.2f %-6zu %12zu %12zu %9.1fx %12zu %14.3f\n", f, k,
                  off.access.remote_trips, on.access.remote_trips, reduction,
                  on.access.cache_hits, cost_ratio);

      char point_name[64];
      std::snprintf(point_name, sizeof(point_name),
                    "locality/f%.2f/K%zu", f, k);
      harness->Sweep(
          point_name,
          {{"locality", f},
           {"constraints", static_cast<double>(k)},
           {"updates", static_cast<double>(on.updates)},
           {"remote_trips_off", static_cast<double>(off.access.remote_trips)},
           {"remote_trips_on", static_cast<double>(on.access.remote_trips)},
           {"trip_reduction", reduction},
           {"cache_hits", static_cast<double>(on.access.cache_hits)},
           {"cached_tuples", static_cast<double>(on.access.cached_tuples)},
           {"remote_tuples_off",
            static_cast<double>(off.access.remote_tuples)},
           {"sim_cost_off", off.sim_cost},
           {"sim_cost_on", on.sim_cost},
           {"ns_per_update_on", on.ns_per_update}});
    }
  }
  std::printf("\n");
}

void BM_ApplyUpdateRemoteCache(benchmark::State& state) {
  size_t constraints = 8;
  std::unique_ptr<ConstraintManager> mgr = MakeManager(constraints);
  std::vector<Update> stream = Stream(256, 0.1, constraints, 41);
  size_t next = 0;
  for (auto _ : state) {
    auto reports = mgr->ApplyUpdate(stream[next++ % stream.size()]);
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
  }
  AccessStats access = mgr->stats().access;
  state.counters["remote_trips"] =
      static_cast<double>(access.remote_trips);
  state.counters["cache_hits"] = static_cast<double>(access.cache_hits);
}
BENCHMARK(BM_ApplyUpdateRemoteCache);

}  // namespace
}  // namespace ccpi

int main(int argc, char** argv) {
  ccpi::bench::Harness harness("remote_cache");
  const char* quick_env = std::getenv("CCPI_BENCH_QUICK");
  bool quick = quick_env != nullptr && *quick_env != '\0' && *quick_env != '0';
  ccpi::RunSweep(&harness, quick);
  return harness.RunAndWrite(argc, argv);
}
