#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "eval/engine.h"
#include "eval/stratify.h"
#include "obs/metrics.h"
#include "util/budget.h"

namespace ccpi {
namespace {

Program MustParse(const char* text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

bool MustViolated(const Program& c, const Database& db) {
  auto v = IsViolated(c, db);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return *v;
}

TEST(StratifyTest, NonrecursiveSingleStratum) {
  auto s = Stratify(MustParse("panic :- p(X) & q(X)"));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->strata.size(), 1u);
}

TEST(StratifyTest, NegationSplitsStrata) {
  auto s = Stratify(MustParse(
      "panic :- p(X) & not helper(X)\n"
      "helper(X) :- q(X)\n"));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->stratum_of.at("helper"), 0);
  EXPECT_EQ(s->stratum_of.at("panic"), 1);
}

TEST(StratifyTest, RecursionThroughNegationRejected) {
  auto s = Stratify(MustParse(
      "win(X) :- move(X,Y) & not win(Y)"));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalTest, Example21Violation) {
  Program c = MustParse("panic :- emp(E,sales) & emp(E,accounting)");
  Database db;
  ASSERT_TRUE(db.Insert("emp", {V("ann"), V("sales")}).ok());
  EXPECT_FALSE(MustViolated(c, db));
  ASSERT_TRUE(db.Insert("emp", {V("ann"), V("accounting")}).ok());
  EXPECT_TRUE(MustViolated(c, db));
}

TEST(EvalTest, Example22NegationAndArith) {
  Program c = MustParse("panic :- emp(E,D,S) & not dept(D) & S < 100");
  Database db;
  ASSERT_TRUE(db.Insert("emp", {V("bob"), V("toy"), V(50)}).ok());
  EXPECT_TRUE(MustViolated(c, db));  // toy not in dept, salary 50 < 100
  ASSERT_TRUE(db.Insert("dept", {V("toy")}).ok());
  EXPECT_FALSE(MustViolated(c, db));
  ASSERT_TRUE(db.Insert("emp", {V("carol"), V("shoe"), V(200)}).ok());
  EXPECT_FALSE(MustViolated(c, db));  // 200 >= 100: comparison filters it
}

TEST(EvalTest, Example23SalaryRange) {
  Program c = MustParse(
      "panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low\n"
      "panic :- emp(E,D,S) & salRange(D,Low,High) & S > High\n");
  Database db;
  ASSERT_TRUE(db.Insert("salRange", {V("toy"), V(10), V(100)}).ok());
  ASSERT_TRUE(db.Insert("emp", {V("ann"), V("toy"), V(50)}).ok());
  EXPECT_FALSE(MustViolated(c, db));
  ASSERT_TRUE(db.Insert("emp", {V("bob"), V("toy"), V(5)}).ok());
  EXPECT_TRUE(MustViolated(c, db));
  ASSERT_TRUE(db.Erase("emp", {V("bob"), V("toy"), V(5)}).ok());
  ASSERT_TRUE(db.Insert("emp", {V("cat"), V("toy"), V(500)}).ok());
  EXPECT_TRUE(MustViolated(c, db));
}

TEST(EvalTest, Example24RecursiveBoss) {
  Program c = MustParse(
      "panic :- boss(E,E)\n"
      "boss(E,M) :- emp(E,D,S) & manager(D,M)\n"
      "boss(E,F) :- boss(E,G) & boss(G,F)\n");
  Database db;
  // ann works in toys managed by bob; bob works in shoes managed by ann.
  ASSERT_TRUE(db.Insert("emp", {V("ann"), V("toy"), V(10)}).ok());
  ASSERT_TRUE(db.Insert("emp", {V("bob"), V("shoe"), V(10)}).ok());
  ASSERT_TRUE(db.Insert("manager", {V("toy"), V("bob")}).ok());
  EXPECT_FALSE(MustViolated(c, db));
  ASSERT_TRUE(db.Insert("manager", {V("shoe"), V("ann")}).ok());
  // Now ann is (transitively) her own boss.
  EXPECT_TRUE(MustViolated(c, db));
}

TEST(EvalTest, TransitiveClosure) {
  Program p = MustParse(
      "tc(X,Y) :- edge(X,Y)\n"
      "tc(X,Y) :- tc(X,Z) & edge(Z,Y)\n");
  p.goal = "tc";
  Database db;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Insert("edge", {V(i), V(i + 1)}).ok());
  }
  auto rel = EvaluateGoal(p, db);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 55u);  // 10+9+...+1
  EXPECT_TRUE(rel->Contains({V(0), V(10)}));
}

TEST(EvalTest, PostingGrowingDuringItsOwnScan) {
  // The recursive rule probes path on column 0 = the root, and every row
  // it derives lands in that same posting while the probe scans it: the
  // engine reads postings and rows by position without copying them, so
  // growth (and the reallocations behind it) must neither skip nor repeat
  // a row. A 2000-edge chain from the root plus a cycle back into it.
  Program p = MustParse(
      "path(X,Y) :- root(X) & edge(X,Y)\n"
      "path(X,Y) :- root(X) & path(X,Z) & edge(Z,Y)\n");
  p.goal = "path";
  constexpr int64_t kChain = 2000;
  Database db;
  ASSERT_TRUE(db.Insert("root", {V(0)}).ok());
  for (int64_t i = 0; i < kChain; ++i) {
    ASSERT_TRUE(db.Insert("edge", {V(i), V(i + 1)}).ok());
  }
  ASSERT_TRUE(db.Insert("edge", {V(kChain), V(kChain / 2)}).ok());
  ASSERT_TRUE(db.Insert("edge", {V(kChain / 2), V(0)}).ok());

  auto indexed = EvaluateGoal(p, db);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  // The root reaches every node of the chain, itself included.
  EXPECT_EQ(indexed->size(), static_cast<size_t>(kChain + 1));
  for (int64_t y = 0; y <= kChain; ++y) {
    EXPECT_TRUE(indexed->Contains({V(0), V(y)})) << y;
  }

  EvalOptions scan;
  scan.use_index = false;
  EvalOptions naive;
  naive.use_seminaive = false;
  for (const EvalOptions& options : {scan, naive}) {
    auto other = EvaluateGoal(p, db, options);
    ASSERT_TRUE(other.ok()) << other.status().ToString();
    ASSERT_EQ(other->size(), indexed->size());
    for (const Tuple& t : indexed->rows()) EXPECT_TRUE(other->Contains(t));
  }
}

TEST(EvalTest, EqualityBindsVariable) {
  Program c = MustParse("panic :- p(X) & Y = 5 & q(X,Y)");
  Database db;
  ASSERT_TRUE(db.Insert("p", {V(1)}).ok());
  ASSERT_TRUE(db.Insert("q", {V(1), V(5)}).ok());
  EXPECT_TRUE(MustViolated(c, db));
  ASSERT_TRUE(db.Erase("q", {V(1), V(5)}).ok());
  ASSERT_TRUE(db.Insert("q", {V(1), V(6)}).ok());
  EXPECT_FALSE(MustViolated(c, db));
}

TEST(EvalTest, RepeatedVariableInAtom) {
  Program c = MustParse("panic :- boss(E,E)");
  Database db;
  ASSERT_TRUE(db.Insert("boss", {V("a"), V("b")}).ok());
  EXPECT_FALSE(MustViolated(c, db));
  ASSERT_TRUE(db.Insert("boss", {V("c"), V("c")}).ok());
  EXPECT_TRUE(MustViolated(c, db));
}

TEST(EvalTest, ConstantInAtom) {
  Program c = MustParse("panic :- emp(E,sales) & emp(E,accounting)");
  Database db;
  ASSERT_TRUE(db.Insert("emp", {V("ann"), V("sales")}).ok());
  ASSERT_TRUE(db.Insert("emp", {V("bob"), V("accounting")}).ok());
  EXPECT_FALSE(MustViolated(c, db));
}

TEST(EvalTest, SymbolComparisonInBody) {
  Program c = MustParse("panic :- emp(E,D,S) & not dept(D) & D <> toy");
  Database db;
  ASSERT_TRUE(db.Insert("emp", {V("e"), V("toy"), V(1)}).ok());
  EXPECT_FALSE(MustViolated(c, db));  // D = toy is excluded
  ASSERT_TRUE(db.Insert("emp", {V("e"), V("shoe"), V(1)}).ok());
  EXPECT_TRUE(MustViolated(c, db));
}

TEST(EvalTest, UnsafeProgramRejected) {
  auto v = IsViolated(MustParse("panic :- p(X) & Y < X"), Database());
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalTest, AccessObserverCountsEdbReads) {
  class Counter : public AccessObserver {
   public:
    Status OnRead(const std::string& pred, size_t count) override {
      reads[pred] += count;
      return Status::OK();
    }
    std::map<std::string, size_t> reads;
  };
  Program c = MustParse("panic :- emp(E,D,S) & not dept(D)");
  Database db;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db.Insert("emp", {V(i), V(100 + i), V(0)}).ok());
  }
  Counter counter;
  EvalOptions options;
  options.observer = &counter;
  auto v = IsViolated(c, db, options);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);
  EXPECT_EQ(counter.reads["emp"], 5u);
  EXPECT_EQ(counter.reads["dept"], 5u);  // one membership probe per emp row
}

TEST(EvalTest, BudgetFixpointRoundCutoffIsExact) {
  Program p = MustParse(
      "tc(X,Y) :- edge(X,Y)\n"
      "tc(X,Y) :- tc(X,Z) & edge(Z,Y)\n");
  p.goal = "tc";
  Database db;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.Insert("edge", {V(i), V(i + 1)}).ok());
  }
  // Measure the rounds an unbudgeted evaluation actually takes...
  obs::MetricsRegistry registry;
  EvalOptions counted;
  counted.metrics = &registry;
  ASSERT_TRUE(EvaluateGoal(p, db, counted).ok());
  const uint64_t rounds = registry.GetCounter("eval.fixpoint_rounds")->value();
  ASSERT_GT(rounds, 2u);

  // ...then a cap of exactly that many rounds succeeds with the identical
  // result, and one round fewer fails with kResourceExhausted: the cutoff
  // is exact, not approximate.
  ExecutionBudget enough;
  enough.max_fixpoint_rounds = rounds;
  BudgetScope enough_scope = BudgetScope::Start(enough);
  EvalOptions budgeted;
  budgeted.budget = &enough_scope;
  auto full = EvaluateGoal(p, db, budgeted);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->size(), 210u);  // 20+19+...+1

  ExecutionBudget short_one;
  short_one.max_fixpoint_rounds = rounds - 1;
  BudgetScope short_scope = BudgetScope::Start(short_one);
  EvalOptions starved;
  starved.budget = &short_scope;
  auto cut = EvaluateGoal(p, db, starved);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalTest, BudgetDerivedTupleCap) {
  Program p = MustParse(
      "tc(X,Y) :- edge(X,Y)\n"
      "tc(X,Y) :- tc(X,Z) & edge(Z,Y)\n");
  p.goal = "tc";
  Database db;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Insert("edge", {V(i), V(i + 1)}).ok());
  }
  ExecutionBudget budget;
  budget.max_derived_tuples = 50;
  BudgetScope scope = BudgetScope::Start(budget);
  EvalOptions options;
  options.budget = &scope;
  auto rel = EvaluateGoal(p, db, options);
  ASSERT_FALSE(rel.ok());
  // Budget exhaustion is the manager-sheddable kResourceExhausted.
  EXPECT_EQ(rel.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalTest, CancelledTokenAbortsEvaluation) {
  Program p = MustParse(
      "tc(X,Y) :- edge(X,Y)\n"
      "tc(X,Y) :- tc(X,Z) & edge(Z,Y)\n");
  p.goal = "tc";
  Database db;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Insert("edge", {V(i), V(i + 1)}).ok());
  }
  CancellationToken token;
  token.Cancel();  // pre-cancelled: the evaluation must not run to fixpoint
  BudgetScope scope = BudgetScope::Start(ExecutionBudget{}, &token);
  EvalOptions options;
  options.budget = &scope;
  auto rel = EvaluateGoal(p, db, options);
  ASSERT_FALSE(rel.ok());
  EXPECT_EQ(rel.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalTest, FactsDerive) {
  Program p = MustParse(
      "dept1(D) :- dept(D)\n"
      "dept1(toy)\n");
  p.goal = "dept1";
  Database db;
  ASSERT_TRUE(db.Insert("dept", {V("shoe")}).ok());
  auto rel = EvaluateGoal(p, db);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 2u);
  EXPECT_TRUE(rel->Contains({V("toy")}));
  EXPECT_TRUE(rel->Contains({V("shoe")}));
}

TEST(EvalTest, MultiStratumWithRecursionBelowNegation) {
  // reach is recursive; the goal negates it — two strata.
  Program p = MustParse(
      "panic :- node(X) & node(Y) & not reach(X,Y)\n"
      "reach(X,X) :- node(X)\n"
      "reach(X,Y) :- reach(X,Z) & edge(Z,Y)\n");
  Database db;
  ASSERT_TRUE(db.Insert("node", {V(1)}).ok());
  ASSERT_TRUE(db.Insert("node", {V(2)}).ok());
  ASSERT_TRUE(db.Insert("edge", {V(1), V(2)}).ok());
  // 2 cannot reach 1: panic.
  EXPECT_TRUE(MustViolated(p, db));
  ASSERT_TRUE(db.Insert("edge", {V(2), V(1)}).ok());
  EXPECT_FALSE(MustViolated(p, db));
}

}  // namespace
}  // namespace ccpi
