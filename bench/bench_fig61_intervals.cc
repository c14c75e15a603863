// Experiment FIG-6.1 / THM-6.1: the forbidden-intervals complete local test
// as a recursive datalog program. The paper proves no RA expression can do
// this (a k-tuple cover can always be exceeded), so the program of Fig 6.1
// merges intervals recursively. The benchmarks compare three equivalent
// implementations as |L| grows:
//   * the compiled Fig 6.1 datalog program, evaluated semi-naively,
//   * the direct IntervalSet computation (what a hand-written checker does),
//     keyed and key-free: a keyed test reads only the inserted key's group,
//   * the general Theorem 5.2 reduction-containment test.
// All three decide the same relation (asserted during the run).

#include <benchmark/benchmark.h>

#include "bench_harness.h"

#include <cstdio>

#include "core/cqc_form.h"
#include "core/icq_compiler.h"
#include "core/local_test.h"
#include "datalog/parser.h"
#include "util/check.h"
#include "util/rng.h"

namespace ccpi {
namespace {

Rule FiRule() {
  auto rule = ParseRule("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y");
  CCPI_CHECK(rule.ok());
  return *rule;
}

/// n intervals; `overlapping` tiles them into one covered band, otherwise
/// they are spread with gaps.
Relation MakeLocal(size_t n, bool overlapping, Database* db) {
  Relation local(2);
  for (size_t i = 0; i < n; ++i) {
    int64_t lo = overlapping ? static_cast<int64_t>(2 * i)
                             : static_cast<int64_t>(4 * i);
    Tuple t = {V(lo), V(lo + 3)};
    local.Insert(t);
    CCPI_CHECK(db->Insert("l", t).ok());
  }
  return local;
}

void PrintFig61() {
  std::printf("=== FIG 6.1: the compiled interval program ===\n");
  auto comp = CompileIcq(FiRule(), "l");
  CCPI_CHECK(comp.ok());
  std::printf("constraint: %s\n", FiRule().ToString().c_str());
  std::printf("compiled to %zu rules (basis + recursive merges); the first "
              "few:\n",
              comp->interval_program.rules.size());
  for (size_t i = 0; i < comp->interval_program.rules.size() && i < 4; ++i) {
    std::printf("  %s\n", comp->interval_program.rules[i].ToString().c_str());
  }
  std::printf("  ...\n\n");

  std::printf("agreement of the three implementations (n=24, mixed):\n");
  Database db;
  Relation local = MakeLocal(24, /*overlapping=*/true, &db);
  auto cqc = MakeCqc(FiRule(), "l");
  CCPI_CHECK(cqc.ok());
  struct Probe {
    Tuple t;
    const char* label;
  };
  Probe probes[] = {
      {{V(1), V(40)}, "inside the tiled band"},
      {{V(1), V(60)}, "past the right edge"},
      {{V(-5), V(3)}, "past the left edge"},
      {{V(10), V(10)}, "single point"},
  };
  for (const Probe& probe : probes) {
    auto datalog = IcqLocalTestOnInsert(*comp, db, probe.t);
    auto direct = IcqDirectTestOnInsert(*comp, local, probe.t);
    auto thm52 = CompleteLocalTestOnInsert(*cqc, probe.t, local);
    CCPI_CHECK(datalog.ok() && direct.ok() && thm52.ok());
    CCPI_CHECK(*datalog == *direct && *direct == thm52->outcome);
    std::printf("  insert %-10s (%-22s): %s\n",
                TupleToString(probe.t).c_str(), probe.label,
                OutcomeToString(*datalog));
  }
  std::printf("\n");
}

void BM_Fig61Datalog(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Database db;
  Relation local = MakeLocal(n, true, &db);
  auto comp = CompileIcq(FiRule(), "l");
  CCPI_CHECK(comp.ok());
  Tuple t = {V(1), V(static_cast<int64_t>(2 * n))};
  for (auto _ : state) {
    auto outcome = IcqLocalTestOnInsert(*comp, db, t);
    CCPI_CHECK(outcome.ok() && *outcome == Outcome::kHolds);
    benchmark::DoNotOptimize(*outcome);
  }
  state.counters["|L|"] = static_cast<double>(n);
}
BENCHMARK(BM_Fig61Datalog)->RangeMultiplier(2)->Range(4, 32);

void BM_DirectIntervalSet(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Database db;
  Relation local = MakeLocal(n, true, &db);
  auto comp = CompileIcq(FiRule(), "l");
  CCPI_CHECK(comp.ok());
  Tuple t = {V(1), V(static_cast<int64_t>(2 * n))};
  for (auto _ : state) {
    auto outcome = IcqDirectTestOnInsert(*comp, local, t);
    CCPI_CHECK(outcome.ok() && *outcome == Outcome::kHolds);
    benchmark::DoNotOptimize(*outcome);
  }
  state.counters["|L|"] = static_cast<double>(n);
}
BENCHMARK(BM_DirectIntervalSet)->RangeMultiplier(2)->Range(4, 4096);

void BM_DirectIntervalSetKeyed(benchmark::State& state) {
  // n rows in fixed 50-row key groups: the test probes the inserted key's
  // group, so rows_read stays 50 however large L grows.
  constexpr size_t kGroup = 50;
  size_t n = static_cast<size_t>(state.range(0));
  auto rule = ParseRule("panic :- l(K,X,Y) & r(K,Z) & X <= Z & Z <= Y");
  CCPI_CHECK(rule.ok());
  auto comp = CompileIcq(*rule, "l");
  CCPI_CHECK(comp.ok());
  Relation local(3);
  for (size_t i = 0; i < n; ++i) {
    int64_t lo = static_cast<int64_t>(2 * (i % kGroup));
    local.Insert({V(static_cast<int64_t>(i / kGroup)), V(lo), V(lo + 3)});
  }
  local.FreezeIndexes();
  Tuple t = {V(static_cast<int64_t>(n / kGroup / 2)), V(1),
             V(static_cast<int64_t>(2 * kGroup))};
  size_t rows_read = 0;
  for (auto _ : state) {
    auto outcome = IcqDirectTestOnInsert(*comp, local, t, &rows_read);
    CCPI_CHECK(outcome.ok() && *outcome == Outcome::kHolds);
    benchmark::DoNotOptimize(*outcome);
  }
  state.counters["|L|"] = static_cast<double>(n);
  state.counters["rows_read"] = static_cast<double>(rows_read);
}
BENCHMARK(BM_DirectIntervalSetKeyed)->RangeMultiplier(10)->Range(100, 100000);

void BM_Theorem52Reduction(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Database db;
  Relation local = MakeLocal(n, true, &db);
  auto cqc = MakeCqc(FiRule(), "l");
  CCPI_CHECK(cqc.ok());
  Tuple t = {V(1), V(static_cast<int64_t>(2 * n))};
  for (auto _ : state) {
    auto outcome = CompleteLocalTestOnInsert(*cqc, t, local);
    CCPI_CHECK(outcome.ok() && outcome->outcome == Outcome::kHolds);
    benchmark::DoNotOptimize(outcome->outcome);
  }
  state.counters["|L|"] = static_cast<double>(n);
}
BENCHMARK(BM_Theorem52Reduction)->RangeMultiplier(2)->Range(4, 256);

void BM_Fig61GapWorkload(benchmark::State& state) {
  // Non-covered insert: the program still derives all merged intervals.
  size_t n = static_cast<size_t>(state.range(0));
  Database db;
  Relation local = MakeLocal(n, /*overlapping=*/false, &db);
  auto comp = CompileIcq(FiRule(), "l");
  CCPI_CHECK(comp.ok());
  Tuple t = {V(1), V(static_cast<int64_t>(4 * n))};
  for (auto _ : state) {
    auto outcome = IcqLocalTestOnInsert(*comp, db, t);
    CCPI_CHECK(outcome.ok() && *outcome == Outcome::kUnknown);
    benchmark::DoNotOptimize(*outcome);
  }
  state.counters["|L|"] = static_cast<double>(n);
}
BENCHMARK(BM_Fig61GapWorkload)->RangeMultiplier(2)->Range(4, 32);

void BM_CompileIcq(benchmark::State& state) {
  // Compilation cost, including the <>-splitting blowup.
  int neqs = static_cast<int>(state.range(0));
  std::string body = "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y";
  for (int i = 0; i < neqs; ++i) body += " & Z <> X";
  auto rule = ParseRule(body);
  CCPI_CHECK(rule.ok());
  for (auto _ : state) {
    auto comp = CompileIcq(*rule, "l");
    CCPI_CHECK(comp.ok());
    benchmark::DoNotOptimize(comp->branches.size());
  }
  state.counters["neq_atoms"] = neqs;
}
BENCHMARK(BM_CompileIcq)->DenseRange(0, 5);

}  // namespace
}  // namespace ccpi

int main(int argc, char** argv) {
  ccpi::PrintFig61();
  ccpi::bench::Harness harness("fig61_intervals");
  return harness.RunAndWrite(argc, argv);
}
