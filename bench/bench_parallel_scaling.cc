// Experiment PAR-1: scaling of ApplyUpdate's tier-3 fan-out with the
// ThreadPool size. The workload routes every constraint to tier 3 (inserts
// into a remote predicate, so no local test applies), in two regimes:
//   - cold (`scaling/c*/t*`): a short random stream on a fresh manager.
//     Most of its time goes to tier-1 memo misses — each constraint's first
//     update of each order type runs the Section 4 independence test, on
//     the committing thread — so it mostly measures that warm-up;
//   - warm (`scaling_warm/c*/t*`): untimed updates first fill the tier-1
//     memo for every order type, then distinct timed inserts each cost
//     `constraints` full evaluations — the steady state the fan-out
//     targets.
// Each row reports throughput, speedup over its sweep's sequential row,
// tail latency, and two exact counts that must not depend on the thread
// count: the updates that changed the database and the tier-3 checks
// admitted (tools/check_bench_json.py holds every row to its t1 row).
// Every sweep point, the t1 base included, is timed as the fastest of
// kRunsPerPoint fresh runs, so one descheduled run on a loaded host does
// not move a speedup by tens of percent. Speedup is bounded by the
// machine's core count — on a single-core runner every configuration
// degenerates to ~1x.

#include <benchmark/benchmark.h>

#include "bench_harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"
#include "util/check.h"
#include "util/rng.h"

namespace ccpi {
namespace {

/// A manager with `constraints` tier-3-bound constraints: each joins the
/// remote stream predicate `hub` against its own remote table t<k>, with a
/// comparison no seeded row satisfies (the checks always hold, so every
/// update is applied and each one costs `constraints` full evaluations).
std::unique_ptr<ConstraintManager> MakeManager(size_t constraints,
                                               size_t threads) {
  auto mgr = std::make_unique<ConstraintManager>(ManagerConfig{
      .local_preds = {"l"}, .parallel = {.threads = threads}});
  Rng rng(17);
  for (size_t k = 0; k < constraints; ++k) {
    std::string t = "t" + std::to_string(k);
    auto p = ParseProgram("panic :- hub(X,Y) & " + t + "(Y,Z) & Z < X");
    CCPI_CHECK(p.ok());
    CCPI_CHECK(mgr->AddConstraint("c" + std::to_string(k), *p).ok());
    for (size_t row = 0; row < 60; ++row) {
      // Z in [1000, 2000) can never be below an X in [0, 100).
      CCPI_CHECK(mgr->site()
                     .db()
                     .Insert(t, {V(rng.Range(0, 99)),
                                 V(rng.Range(1000, 1999))})
                     .ok());
    }
  }
  return mgr;
}

std::vector<Update> Stream(size_t n) {
  Rng rng(29);
  std::vector<Update> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(
        Update::Insert("hub", {V(rng.Range(0, 99)), V(rng.Range(0, 99))}));
  }
  return out;
}

/// `n` distinct hub inserts, none a no-op, so each one reaches tier 3:
/// the pairs of [0, 100)^2 shuffled, after one pair of each order type
/// (X < Y, X = Y, X > Y) — the tier-1 memo keys of these constant-free
/// constraints, so a warm-up of at least three fills the memo.
std::vector<Update> DistinctStream(size_t n) {
  const std::vector<std::pair<int64_t, int64_t>> first = {{0, 1}, {0, 0},
                                                          {1, 0}};
  std::vector<std::pair<int64_t, int64_t>> rest;
  for (int64_t x = 0; x < 100; ++x) {
    for (int64_t y = 0; y < 100; ++y) {
      if (std::find(first.begin(), first.end(), std::pair{x, y}) ==
          first.end()) {
        rest.emplace_back(x, y);
      }
    }
  }
  Rng rng(31);
  for (size_t i = rest.size() - 1; i > 0; --i) {
    std::swap(rest[i], rest[rng.Below(i + 1)]);
  }
  std::vector<Update> out;
  for (size_t i = 0; i < n; ++i) {
    auto [x, y] = i < first.size() ? first[i] : rest[i - first.size()];
    out.push_back(Update::Insert("hub", {V(x), V(y)}));
  }
  return out;
}

struct ScalePoint {
  double total_ms = 0;
  double updates_per_s = 0;
  double p50_ns = 0;
  double p95_ns = 0;
  /// Timed updates that changed the database, and the tier-3 checks they
  /// admitted: exact, and the same at every thread count.
  size_t applied = 0;
  uint64_t tier3_checks = 0;
};

/// Applies `warmup` untimed, then times each update of `timed`.
ScalePoint RunScale(size_t constraints, size_t threads,
                    const std::vector<Update>& warmup,
                    const std::vector<Update>& timed) {
  std::unique_ptr<ConstraintManager> mgr = MakeManager(constraints, threads);
  for (const Update& u : warmup) CCPI_CHECK(mgr->ApplyUpdate(u).ok());
  const size_t hub_before = mgr->site().db().Get("hub", 2).size();
  const uint64_t t3_before = mgr->stats().t3_admitted;
  std::vector<double> latencies_ns;
  latencies_ns.reserve(timed.size());
  auto begin = std::chrono::steady_clock::now();
  for (const Update& u : timed) {
    auto t0 = std::chrono::steady_clock::now();
    auto reports = mgr->ApplyUpdate(u);
    auto t1 = std::chrono::steady_clock::now();
    CCPI_CHECK(reports.ok());
    latencies_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  }
  auto end = std::chrono::steady_clock::now();

  std::sort(latencies_ns.begin(), latencies_ns.end());
  auto percentile = [&](double p) {
    size_t idx = static_cast<size_t>(p * (latencies_ns.size() - 1) + 0.5);
    return latencies_ns[idx];
  };
  ScalePoint point;
  point.total_ms =
      std::chrono::duration_cast<std::chrono::microseconds>(end - begin)
          .count() /
      1000.0;
  point.updates_per_s =
      point.total_ms > 0 ? timed.size() / (point.total_ms / 1000.0) : 0;
  point.p50_ns = percentile(0.50);
  point.p95_ns = percentile(0.95);
  point.applied = mgr->site().db().Get("hub", 2).size() - hub_before;
  point.tier3_checks = mgr->stats().t3_admitted - t3_before;
  return point;
}

/// Runs per sweep point; the point keeps the fastest (see the top comment).
constexpr int kRunsPerPoint = 3;

/// The fastest of kRunsPerPoint runs of one sweep point; every run must
/// apply the same updates and admit the same tier-3 checks.
ScalePoint FastestRun(size_t constraints, size_t threads,
                      const std::vector<Update>& warmup,
                      const std::vector<Update>& timed) {
  ScalePoint best = RunScale(constraints, threads, warmup, timed);
  for (int run = 1; run < kRunsPerPoint; ++run) {
    ScalePoint p = RunScale(constraints, threads, warmup, timed);
    CCPI_CHECK(p.applied == best.applied &&
               p.tier3_checks == best.tier3_checks);
    if (p.total_ms < best.total_ms) best = p;
  }
  return best;
}

void RunSweep(ccpi::bench::Harness* harness, bool quick) {
  std::vector<size_t> constraint_counts = {8, 64};
  std::vector<size_t> thread_counts = quick
                                          ? std::vector<size_t>{1, 4}
                                          : std::vector<size_t>{1, 2, 4, 8};
  const size_t warm_untimed = 100;
  const std::vector<Update> warm = DistinctStream(
      warm_untimed + (quick ? 60 : 300));
  struct Regime {
    std::string name;
    std::vector<Update> warmup, timed;
  };
  const std::vector<Regime> regimes = {
      {"scaling", {}, Stream(quick ? 12 : 32)},
      {"scaling_warm", {warm.begin(), warm.begin() + warm_untimed},
       {warm.begin() + warm_untimed, warm.end()}}};

  std::printf("=== PAR-1: tier-3 fan-out scaling (%zu hardware threads) ===\n",
              static_cast<size_t>(std::thread::hardware_concurrency()));
  std::printf("%-13s %-12s %-8s %12s %12s %10s %12s %8s %8s\n", "regime",
              "constraints", "threads", "total_ms", "updates/s", "speedup",
              "p95_us", "applied", "tier3");
  for (const Regime& regime : regimes) {
    for (size_t c : constraint_counts) {
      double base_ms = 0;
      for (size_t t : thread_counts) {
        ScalePoint p = FastestRun(c, t, regime.warmup, regime.timed);
        if (t == 1) base_ms = p.total_ms;
        double speedup = p.total_ms > 0 ? base_ms / p.total_ms : 0;
        std::printf(
            "%-13s %-12zu %-8zu %12.2f %12.1f %9.2fx %12.1f %8zu %8llu\n",
            regime.name.c_str(), c, t, p.total_ms, p.updates_per_s, speedup,
            p.p95_ns / 1000.0, p.applied,
            static_cast<unsigned long long>(p.tier3_checks));
        harness->Sweep(
            regime.name + "/c" + std::to_string(c) + "/t" + std::to_string(t),
            {{"constraints", static_cast<double>(c)},
             {"threads", static_cast<double>(t)},
             {"warmup_updates", static_cast<double>(regime.warmup.size())},
             {"updates", static_cast<double>(regime.timed.size())},
             {"total_ms", p.total_ms},
             {"updates_per_s", p.updates_per_s},
             {"speedup_vs_t1", speedup},
             {"p50_latency_ns", p.p50_ns},
             {"p95_latency_ns", p.p95_ns},
             {"applied_updates", static_cast<double>(p.applied)},
             {"tier3_checks", static_cast<double>(p.tier3_checks)}});
      }
    }
  }
  std::printf("\n");
}

void BM_ApplyUpdateFanout(benchmark::State& state) {
  size_t constraints = 16;
  size_t threads = static_cast<size_t>(state.range(0));
  std::unique_ptr<ConstraintManager> mgr = MakeManager(constraints, threads);
  // Every iteration changes the database: passes over 256 distinct tuples
  // alternate between inserting them (16 tier-3 checks each) and deleting
  // them again (settled at tier 1: a delete cannot violate these
  // constraints).
  std::vector<Update> stream = DistinctStream(256);
  size_t next = 0;
  for (auto _ : state) {
    const Update& u = stream[next % stream.size()];
    const bool insert = (next++ / stream.size()) % 2 == 0;
    auto reports =
        mgr->ApplyUpdate(insert ? u : Update::Delete(u.pred, u.tuple));
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
  }
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["constraints"] = static_cast<double>(constraints);
}
BENCHMARK(BM_ApplyUpdateFanout)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace ccpi

int main(int argc, char** argv) {
  ccpi::bench::Harness harness("parallel_scaling");
  const char* quick_env = std::getenv("CCPI_BENCH_QUICK");
  bool quick = quick_env != nullptr && *quick_env != '\0' && *quick_env != '0';
  ccpi::RunSweep(&harness, quick);
  return harness.RunAndWrite(argc, argv);
}
