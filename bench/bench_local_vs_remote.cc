// Experiment THM-5.2 / APP: the headline trade-off of the paper — the
// complete local test (constraints + update + local data only) versus the
// full check that reads the remote relation. The printed table reports, per
// workload point, the simulated access cost of each strategy and the local
// test's conclusiveness; the benchmarks time both paths as the local and
// remote relations grow.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_harness.h"
#include "core/cqc_form.h"
#include "core/local_test.h"
#include "datalog/parser.h"
#include "distsim/site_db.h"
#include "eval/engine.h"
#include "util/check.h"
#include "util/rng.h"

namespace ccpi {
namespace {

Cqc ForbiddenIntervalsCqc() {
  auto rule = ParseRule("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y");
  CCPI_CHECK(rule.ok());
  auto cqc = MakeCqc(*rule, "l");
  CCPI_CHECK(cqc.ok());
  return *cqc;
}

/// Local relation: n overlapping intervals tiling [0, 2n+2]; remote:
/// m readings outside the tiled region (the constraint holds).
void MakeSite(size_t n_local, size_t m_remote, SiteDatabase* site,
              Relation* local) {
  for (size_t i = 0; i < n_local; ++i) {
    Tuple t = {V(static_cast<int64_t>(2 * i)),
               V(static_cast<int64_t>(2 * i + 3))};
    local->Insert(t);
    CCPI_CHECK(site->db().Insert("l", t).ok());
  }
  Rng rng(4);
  int64_t base = static_cast<int64_t>(2 * n_local) + 10;
  for (size_t j = 0; j < m_remote; ++j) {
    CCPI_CHECK(site->db().Insert("r", {V(base + rng.Range(0, 100000))}).ok());
  }
}

void PrintCostTable(bench::Harness* harness) {
  std::printf(
      "=== THM 5.2: complete local test vs full remote check ===\n"
      "workload: insert a covered sub-interval; |R| remote readings\n"
      "%-8s %-8s %-12s %-22s %s\n", "|L|", "|R|", "local-test",
      "local cost (tuples)", "full-check cost (remote tuples, trips)");
  CostModel costs;
  Cqc cqc = ForbiddenIntervalsCqc();
  Program constraint;
  constraint.rules.push_back(cqc.ToCQ().ToRule());
  for (size_t n : {4u, 16u, 64u}) {
    for (size_t m : {100u, 10000u}) {
      SiteDatabase site({"l"});
      Relation local(2);
      MakeSite(n, m, &site, &local);
      Tuple t = {V(1), V(static_cast<int64_t>(2 * n))};

      auto verdict = CompleteLocalTestOnInsert(cqc, t, local);
      CCPI_CHECK(verdict.ok());
      // The local test reads L once.
      CCPI_CHECK(site.OnRead("l", local.size()).ok());
      AccessStats local_stats = site.stats();

      site.ResetStats();
      Database after = site.db();
      CCPI_CHECK(after.Insert("l", t).ok());
      EvalOptions options;
      options.observer = &site;
      auto full = IsViolated(constraint, after, options);
      CCPI_CHECK(full.ok() && !*full);
      // The full check fetches R uncached: every logical read of R (a
      // bare site has no batched prefetch) is priced as a remote trip.
      AccessStats full_stats = site.stats().Uncached();

      std::printf("%-8zu %-8zu %-12s %-22zu %zu tuples, %zu trips\n", n, m,
                  OutcomeToString(verdict->outcome),
                  local_stats.local_tuples, full_stats.remote_tuples,
                  full_stats.remote_trips);
      harness->Sweep(
          "local_vs_remote/L=" + std::to_string(n) +
              "/R=" + std::to_string(m),
          {{"local_tuples", static_cast<double>(n)},
           {"remote_tuples", static_cast<double>(m)},
           {"local_test_cost", local_stats.Cost(costs)},
           {"local_test_local_reads",
            static_cast<double>(local_stats.local_tuples)},
           {"local_test_remote_trips",
            static_cast<double>(local_stats.remote_trips)},
           {"full_check_cost", full_stats.Cost(costs)},
           {"full_check_remote_reads",
            static_cast<double>(full_stats.remote_tuples)},
           {"full_check_remote_trips",
            static_cast<double>(full_stats.remote_trips)}});
    }
  }
  std::printf(
      "\n(the local test's cost is independent of |R| — the paper's point:\n"
      "remote data need not be touched at all when the test concludes)\n\n");
}

void BM_CompleteLocalTest(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  SiteDatabase site({"l"});
  Relation local(2);
  MakeSite(n, /*m_remote=*/10000, &site, &local);
  Cqc cqc = ForbiddenIntervalsCqc();
  Tuple t = {V(1), V(static_cast<int64_t>(2 * n))};
  for (auto _ : state) {
    auto verdict = CompleteLocalTestOnInsert(cqc, t, local);
    CCPI_CHECK(verdict.ok());
    benchmark::DoNotOptimize(verdict->outcome);
  }
  state.counters["|L|"] = static_cast<double>(n);
  state.counters["remote_reads"] = 0;
}
BENCHMARK(BM_CompleteLocalTest)->RangeMultiplier(2)->Range(2, 128);

void BM_FullRemoteCheck(benchmark::State& state) {
  size_t m = static_cast<size_t>(state.range(0));
  SiteDatabase site({"l"});
  Relation local(2);
  MakeSite(/*n_local=*/16, m, &site, &local);
  Cqc cqc = ForbiddenIntervalsCqc();
  Program constraint;
  constraint.rules.push_back(cqc.ToCQ().ToRule());
  Tuple t = {V(1), V(32)};
  Database after = site.db();
  CCPI_CHECK(after.Insert("l", t).ok());
  size_t remote = 0;
  for (auto _ : state) {
    site.ResetStats();
    EvalOptions options;
    options.observer = &site;
    auto full = IsViolated(constraint, after, options);
    CCPI_CHECK(full.ok());
    benchmark::DoNotOptimize(*full);
    remote = site.stats().Uncached().remote_tuples;
  }
  state.counters["|R|"] = static_cast<double>(m);
  state.counters["remote_reads"] = static_cast<double>(remote);
}
BENCHMARK(BM_FullRemoteCheck)->RangeMultiplier(4)->Range(64, 16384);

void BM_LocalTestWitnessConstruction(benchmark::State& state) {
  // The inconclusive path: refutation + canonical-database witness.
  size_t n = static_cast<size_t>(state.range(0));
  Relation local(2);
  SiteDatabase site({"l"});
  MakeSite(n, 0, &site, &local);
  Cqc cqc = ForbiddenIntervalsCqc();
  Tuple t = {V(-50), V(-10)};  // never covered
  for (auto _ : state) {
    auto verdict = CompleteLocalTestOnInsert(cqc, t, local);
    CCPI_CHECK(verdict.ok());
    CCPI_CHECK(verdict->outcome == Outcome::kUnknown);
    benchmark::DoNotOptimize(verdict->witness_remote.has_value());
  }
  state.counters["|L|"] = static_cast<double>(n);
}
BENCHMARK(BM_LocalTestWitnessConstruction)->RangeMultiplier(2)->Range(2, 64);

}  // namespace
}  // namespace ccpi

int main(int argc, char** argv) {
  ccpi::bench::Harness harness("local_vs_remote");
  ccpi::PrintCostTable(&harness);
  return harness.RunAndWrite(argc, argv);
}
