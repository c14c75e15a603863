// Experiment THM-5.3: for arithmetic-free CQCs the complete local test is a
// relational algebra expression constructed in time exponential only in the
// constraint — "the test itself can be expressed in relational algebra, so
// it is likely to be within the query language of any database system".
// The benchmarks separate the two costs: compilation (vs constraint size)
// and evaluation (vs |L|), and compare the compiled test's evaluation
// against running the general Theorem 5.2 machinery on the same instance
// (whose union of reductions grows with |L|).

#include <benchmark/benchmark.h>

#include "bench_harness.h"

#include <cstdio>
#include <string>

#include "core/cqc_form.h"
#include "core/local_test.h"
#include "core/ra_local_test.h"
#include "datalog/parser.h"
#include "ra/ra_eval.h"
#include "ra/ra_expr.h"
#include "util/check.h"
#include "util/rng.h"

namespace ccpi {
namespace {

/// panic :- l(A1..Ak) & r(A1) & ... & r(Ak): every component feeds the
/// remote predicate; mappings multiply with k.
Rule StarRule(int k) {
  std::string args;
  std::string remotes;
  for (int i = 0; i < k; ++i) {
    if (i > 0) args += ",";
    args += "A" + std::to_string(i);
    remotes += " & r(A" + std::to_string(i) + ")";
  }
  auto rule = ParseRule("panic :- l(" + args + ")" + remotes);
  CCPI_CHECK(rule.ok());
  return *rule;
}

void PrintExpressionTable() {
  std::printf(
      "=== THM 5.3: compiled RA local tests ===\n"
      "constraint: panic :- l(X,Y,Y) & r(Y,Z,X)  (Example 5.4)\n");
  Rule ex54 = *ParseRule("panic :- l(X,Y,Y) & r(Y,Z,X)");
  auto abc = CompileRaLocalTest(ex54, "l", {V("a"), V("b"), V("c")});
  CCPI_CHECK(abc.ok());
  std::printf("  insert (a,b,c): %s\n",
              abc->trivially_holds ? "trivially holds (no unification)"
                                   : "needs a test");
  auto abb = CompileRaLocalTest(ex54, "l", {V("a"), V("b"), V("b")});
  CCPI_CHECK(abb.ok());
  std::printf("  insert (a,b,b): nonempty( %s )\n\n",
              abb->expr->ToString().c_str());

  std::printf("expression growth with constraint size (star family):\n");
  std::printf("%-12s %s\n", "local arity", "compiled expression");
  for (int k = 1; k <= 3; ++k) {
    Rule rule = StarRule(k);
    Tuple t;
    for (int i = 0; i < k; ++i) t.push_back(V(i));
    auto test = CompileRaLocalTest(rule, "l", t);
    CCPI_CHECK(test.ok());
    std::printf("%-12d %s\n", k, test->expr->ToString().c_str());
  }
  std::printf("\n");
}

void BM_CompileRaTest(benchmark::State& state) {
  int k = static_cast<int>(state.range(0));
  Rule rule = StarRule(k);
  Tuple t;
  for (int i = 0; i < k; ++i) t.push_back(V(i));
  for (auto _ : state) {
    auto test = CompileRaLocalTest(rule, "l", t);
    CCPI_CHECK(test.ok());
    benchmark::DoNotOptimize(test->expr);
  }
  state.counters["arity"] = k;
}
BENCHMARK(BM_CompileRaTest)->DenseRange(1, 6);

void BM_EvaluateRaTest(benchmark::State& state) {
  // Evaluation scales with |L| only (one pass of selections).
  size_t n = static_cast<size_t>(state.range(0));
  Rule rule = *ParseRule("panic :- l(X,Y) & r(X,W) & s(W,Y)");
  Database db;
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) {
    CCPI_CHECK(
        db.Insert("l", {V(rng.Range(0, 50)), V(rng.Range(0, 50))}).ok());
  }
  Tuple t = {V(7), V(9)};
  db.FreezeIndexes();  // read phase: every column index built once
  for (auto _ : state) {
    auto outcome = RaLocalTestOnInsert(rule, "l", t, db);
    CCPI_CHECK(outcome.ok());
    benchmark::DoNotOptimize(*outcome);
  }
  state.counters["|L|"] = static_cast<double>(n);
}
BENCHMARK(BM_EvaluateRaTest)->RangeMultiplier(4)->Range(16, 4096);

void BM_Theorem52OnSameInstance(benchmark::State& state) {
  // The general reduction-containment machinery on the identical
  // arithmetic-free instance: its union has one member per L-tuple, so the
  // containment-mapping work grows with |L| much faster than the RA scan.
  size_t n = static_cast<size_t>(state.range(0));
  Rule rule = *ParseRule("panic :- l(X,Y) & r(X,W) & s(W,Y)");
  auto cqc = MakeCqc(rule, "l");
  CCPI_CHECK(cqc.ok());
  Relation local(2);
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) {
    local.Insert({V(rng.Range(0, 50)), V(rng.Range(0, 50))});
  }
  Tuple t = {V(7), V(9)};
  for (auto _ : state) {
    auto outcome = CompleteLocalTestOnInsert(*cqc, t, local);
    CCPI_CHECK(outcome.ok());
    benchmark::DoNotOptimize(outcome->outcome);
  }
  state.counters["|L|"] = static_cast<double>(n);
}
BENCHMARK(BM_Theorem52OnSameInstance)->RangeMultiplier(4)->Range(16, 1024);

/// Two relations of n rows whose join keys hit ~1/64 of the time.
Database JoinInstance(size_t n) {
  Database db;
  Rng rng(11);
  for (size_t i = 0; i < n; ++i) {
    CCPI_CHECK(db.Insert("jl", {V(rng.Range(0, 64)), V(rng.Range(0, 1000))})
                   .ok());
    CCPI_CHECK(db.Insert("jr", {V(rng.Range(0, 64)), V(rng.Range(0, 1000))})
                   .ok());
  }
  return db;
}

void BM_SelectProductEquiJoin(benchmark::State& state) {
  // sigma[#1=#3](jl x jr): the eq condition crosses the product boundary,
  // so the evaluator takes the hash-join path — O(|L| + |R| + matches).
  size_t n = static_cast<size_t>(state.range(0));
  Database db = JoinInstance(n);
  db.FreezeIndexes();  // read phase: every column index built once
  RaExprPtr expr = RaExpr::Select(
      RaExpr::Product(RaExpr::Scan("jl", 2), RaExpr::Scan("jr", 2)),
      {RaCondition{RaOperand::Col(0), CmpOp::kEq, RaOperand::Col(2)}});
  for (auto _ : state) {
    auto out = EvalRa(*expr, db);
    CCPI_CHECK(out.ok());
    benchmark::DoNotOptimize(out->size());
  }
  state.counters["rows"] = static_cast<double>(n);
}
BENCHMARK(BM_SelectProductEquiJoin)->RangeMultiplier(4)->Range(64, 4096);

void BM_SelectProductNestedLoop(benchmark::State& state) {
  // The same join written as #1<=#3 & #1>=#3: semantically identical
  // output, but no single eq condition crosses the boundary, so the
  // evaluator materializes the full O(|L| * |R|) product and filters.
  // The gap against BM_SelectProductEquiJoin is the hash-join payoff.
  size_t n = static_cast<size_t>(state.range(0));
  Database db = JoinInstance(n);
  db.FreezeIndexes();
  RaExprPtr expr = RaExpr::Select(
      RaExpr::Product(RaExpr::Scan("jl", 2), RaExpr::Scan("jr", 2)),
      {RaCondition{RaOperand::Col(0), CmpOp::kLe, RaOperand::Col(2)},
       RaCondition{RaOperand::Col(0), CmpOp::kGe, RaOperand::Col(2)}});
  for (auto _ : state) {
    auto out = EvalRa(*expr, db);
    CCPI_CHECK(out.ok());
    benchmark::DoNotOptimize(out->size());
  }
  state.counters["rows"] = static_cast<double>(n);
}
BENCHMARK(BM_SelectProductNestedLoop)->RangeMultiplier(4)->Range(64, 1024);

}  // namespace
}  // namespace ccpi

int main(int argc, char** argv) {
  ccpi::PrintExpressionTable();
  ccpi::bench::Harness harness("thm53_ra_test");
  return harness.RunAndWrite(argc, argv);
}
