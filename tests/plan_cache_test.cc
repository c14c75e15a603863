// The compiled-plan cache (src/plan/) end to end: shape signatures as
// sound pattern keys, the Bind-equals-fresh-compile property of RA plan
// templates, the PlanCache store itself, CompiledProgram-vs-Program
// evaluation equality, and the manager serving hits under real episodes.
// Whether a cached verdict is right is the config-lattice oracle's job:
// every reference there runs through the cache.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ra_local_test.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "manager/constraint_manager.h"
#include "plan/plan_cache.h"
#include "plan/ra_plan.h"
#include "plan/update_signature.h"
#include "ra/ra_eval.h"
#include "relational/database.h"
#include "relational/value.h"
#include "updates/independence.h"
#include "updates/update.h"

namespace ccpi {
namespace {

Program MustParse(const char* text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

Rule MustParseRule(const char* text) {
  auto r = ParseRule(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

// ---- Shape signatures ----------------------------------------------------

TEST(UpdateSignatureTest, ShapeClassesFollowFirstAppearance) {
  std::vector<Value> none;
  EXPECT_EQ(ShapeSignature({V("a"), V("b"), V("b")}, none), "N0.N1.N1");
  EXPECT_EQ(ShapeSignature({V("x"), V("y"), V("y")}, none), "N0.N1.N1");
  EXPECT_EQ(ShapeSignature({V("a"), V("b"), V("c")}, none), "N0.N1.N2");
  EXPECT_EQ(ShapeSignature({V("a"), V("a"), V("b")}, none), "N0.N0.N1");
  EXPECT_EQ(ShapeSignature({}, none), "");
}

TEST(UpdateSignatureTest, DistinguishedConstantsGetTheirOwnClasses) {
  // Sorted, deduplicated constant pool (Value's total order).
  std::vector<Value> constants = {V("a"), V("b")};
  EXPECT_EQ(ShapeSignature({V("a"), V("x"), V("x")}, constants), "C0.N0.N0");
  EXPECT_EQ(ShapeSignature({V("b"), V("a"), V("q")}, constants), "C1.C0.N0");
  // A non-constant repeating a constant's *class* is impossible: equality
  // with the pool is what routes to C — so same-shape tuples agree on
  // every pool equality.
  EXPECT_NE(ShapeSignature({V("a"), V("a")}, constants),
            ShapeSignature({V("x"), V("x")}, constants));
}

TEST(UpdateSignatureTest, MixedTypesAndKeyRendering) {
  std::vector<Value> constants = {V(5)};
  Update ins = Update::Insert("emp", {V("ann"), V(5)});
  Update del = Update::Delete("emp", {V("ann"), V(5)});
  UpdateSignature a = MakeUpdateSignature(ins, constants);
  UpdateSignature b = MakeUpdateSignature(del, constants);
  EXPECT_EQ(a.Key(), "emp/+/N0.C0");
  EXPECT_EQ(b.Key(), "emp/-/N0.C0");
  EXPECT_NE(a.Key(), b.Key());  // kind is part of the pattern
}

TEST(UpdateSignatureTest, CollectProgramConstantsAndSafety) {
  Program with_cmp = MustParse("panic :- l(X, a) & r(X) & X > 5");
  Program plain = MustParse("panic :- emp(E, b) & not dept(E)");
  std::vector<Value> constants =
      CollectProgramConstants({&with_cmp, &plain});
  // Sorted and deduplicated; contains every constant from atom args and
  // comparison operands across both programs.
  ASSERT_EQ(constants.size(), 3u);
  EXPECT_TRUE(std::is_sorted(constants.begin(), constants.end(),
                             [](const Value& x, const Value& y) {
                               return x < y;
                             }));
  EXPECT_NE(std::find(constants.begin(), constants.end(), V(5)),
            constants.end());
  EXPECT_NE(std::find(constants.begin(), constants.end(), V("a")),
            constants.end());
  EXPECT_NE(std::find(constants.begin(), constants.end(), V("b")),
            constants.end());
  EXPECT_FALSE(SignatureSafe(with_cmp));
  EXPECT_TRUE(SignatureSafe(plain));
}

// ---- RA plan templates: Bind == fresh compile ----------------------------

/// For every (rule, template tuple, bound tuple) triple, the bound
/// template must render identically to compiling the bound tuple from
/// scratch — flags included.
void ExpectBindMatchesFreshCompile(const Rule& rule, const std::string& pred,
                                   const Tuple& representative,
                                   const Tuple& bound_to) {
  Result<RaPlanTemplate> tpl = CompileRaPlan(rule, pred, representative);
  Result<RaLocalTest> fresh = CompileRaLocalTest(rule, pred, bound_to);
  ASSERT_TRUE(tpl.ok()) << tpl.status().ToString();
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(tpl->trivially_holds, fresh->trivially_holds);
  EXPECT_EQ(tpl->trivially_violated, fresh->trivially_violated);
  if (tpl->trivially_holds || tpl->trivially_violated) return;
  ASSERT_NE(tpl->expr, nullptr);
  ASSERT_NE(fresh->expr, nullptr);
  RaExprPtr bound = tpl->Bind(bound_to);
  EXPECT_EQ(bound->ToString(), fresh->expr->ToString())
      << "rule: " << rule.ToString()
      << " rep: " << TupleToString(representative)
      << " bound: " << TupleToString(bound_to);
}

TEST(RaPlanTest, BindMatchesFreshCompileAcrossShapes) {
  struct Case {
    const char* rule;
    const char* pred;
    Tuple rep;
    Tuple bound;
  };
  const Case cases[] = {
      // Plain join, all-distinct components.
      {"panic :- l(X, Y) & r(X)", "l", {V(1), V(2)}, {V(7), V(8)}},
      // Repeated variable in the local atom.
      {"panic :- l(X, X) & r(X)", "l", {V(3), V(3)}, {V(9), V(9)}},
      // Repeated component against distinct variables (pattern equality).
      {"panic :- l(X, Y) & r(Y)", "l", {V(4), V(4)}, {V(6), V(6)}},
      // Constant in the local atom, matching tuple.
      {"panic :- l(a, Y) & r(Y)", "l", {V("a"), V(1)}, {V("a"), V(2)}},
      // Several remote atoms sharing variables.
      {"panic :- l(X, Y) & r(X) & s(X, Y)", "l", {V(1), V(2)}, {V(5), V(6)}},
      // String components.
      {"panic :- emp(E, D) & dept(D)", "emp",
       {V("ann"), V("cs")}, {V("bob"), V("ee")}},
  };
  for (const Case& c : cases) {
    ExpectBindMatchesFreshCompile(MustParseRule(c.rule), c.pred, c.rep,
                                  c.bound);
  }
}

TEST(RaPlanTest, TrivialFlagsTransferToSameShapeTuples) {
  // Constant mismatch => trivially holds, for every same-shape tuple.
  Rule rule = MustParseRule("panic :- l(a, Y) & r(Y)");
  ExpectBindMatchesFreshCompile(rule, "l", {V("x"), V(1)}, {V("y"), V(2)});
  // No remote atoms => trivially violated.
  Rule local_only = MustParseRule("panic :- l(X, Y)");
  ExpectBindMatchesFreshCompile(local_only, "l", {V(1), V(2)}, {V(3), V(4)});
}

TEST(RaPlanTest, BoundPlanEvaluatesLikeFreshCompile) {
  Rule rule = MustParseRule("panic :- l(X, Y) & r(X)");
  Database db;
  ASSERT_TRUE(db.Insert("l", {V(7), V(0)}).ok());
  ASSERT_TRUE(db.Insert("l", {V(8), V(1)}).ok());
  Result<RaPlanTemplate> tpl = CompileRaPlan(rule, "l", {V(1), V(2)});
  ASSERT_TRUE(tpl.ok());
  for (const Tuple& t : {Tuple{V(7), V(3)}, Tuple{V(9), V(4)}}) {
    RaExprPtr bound = tpl->Bind(t);
    Result<bool> via_plan = RaNonempty(*bound, db);
    Result<Outcome> via_cold = RaLocalTestOnInsert(rule, "l", t, db);
    ASSERT_TRUE(via_plan.ok());
    ASSERT_TRUE(via_cold.ok());
    EXPECT_EQ(*via_plan ? Outcome::kHolds : Outcome::kUnknown, *via_cold);
  }
}

// ---- PlanCache: the store itself -----------------------------------------

TEST(PlanCacheTest, FindMissThenStoreThenHit) {
  PlanCache cache;
  EXPECT_FALSE(cache.FindTier1("k").has_value());
  cache.StoreTier1("k", PlanCache::Tier1Decision{true});
  ASSERT_TRUE(cache.FindTier1("k").has_value());
  EXPECT_TRUE(cache.FindTier1("k")->holds);
  // First insert wins: a second store does not overwrite.
  cache.StoreTier1("k", PlanCache::Tier1Decision{false});
  EXPECT_TRUE(cache.FindTier1("k")->holds);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, TemplateStoreReturnsWinner) {
  PlanCache cache;
  auto first = std::make_shared<const RaPlanTemplate>();
  auto second = std::make_shared<const RaPlanTemplate>();
  EXPECT_EQ(cache.StoreTemplate("k", first), first);
  // The loser adopts the winner's entry.
  EXPECT_EQ(cache.StoreTemplate("k", second), first);
  EXPECT_EQ(cache.FindTemplate("k"), first);
  EXPECT_EQ(cache.FindTemplate("other"), nullptr);
}

TEST(PlanCacheTest, InvalidateDropsEveryFamily) {
  PlanCache cache;
  cache.StoreTier1("t1", PlanCache::Tier1Decision{true});
  cache.StoreTemplate("tpl", std::make_shared<const RaPlanTemplate>());
  auto program = CompileProgram(MustParse("panic :- r(X)"));
  ASSERT_TRUE(program.ok());
  cache.StoreProgram("prog",
                     std::make_shared<const CompiledProgram>(
                         std::move(*program)));
  EXPECT_EQ(cache.size(), 3u);
  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.FindTier1("t1").has_value());
  EXPECT_EQ(cache.FindTemplate("tpl"), nullptr);
  EXPECT_EQ(cache.FindProgram("prog"), nullptr);
}

TEST(PlanCacheTest, ConcurrentStoresConverge) {
  PlanCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const RaPlanTemplate>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&cache, &seen, i] {
      seen[i] = cache.StoreTemplate(
          "k", std::make_shared<const RaPlanTemplate>());
    });
  }
  for (std::thread& t : threads) t.join();
  // Every lane adopted the same winning entry.
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(seen[i], seen[0]);
  EXPECT_EQ(cache.FindTemplate("k"), seen[0]);
}

// ---- CompiledProgram == Program ------------------------------------------

TEST(CompiledProgramTest, EvaluatesIdenticallyToProgramOverload) {
  Program program = MustParse(
      "panic :- q(X) & path(X, Y) & bad(Y)\n"
      "path(X, Y) :- edge(X, Y)\n"
      "path(X, Y) :- edge(X, Z) & path(Z, Y)");
  Database db;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(db.Insert("edge", {V(i), V(i + 1)}).ok());
  }
  ASSERT_TRUE(db.Insert("q", {V(0)}).ok());
  ASSERT_TRUE(db.Insert("bad", {V(6)}).ok());

  Result<CompiledProgram> plan = CompileProgram(program);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  Result<Database> cold = Evaluate(program, db);
  Result<Database> warm = Evaluate(*plan, db);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cold->ToString(), warm->ToString());
  Result<bool> cold_violated = IsViolated(program, db);
  Result<bool> warm_violated = IsViolated(*plan, db);
  ASSERT_TRUE(cold_violated.ok());
  ASSERT_TRUE(warm_violated.ok());
  EXPECT_EQ(*cold_violated, *warm_violated);
  EXPECT_TRUE(*warm_violated);  // the chain really reaches bad(6)
}

TEST(CompiledProgramTest, CompileFailsExactlyWhereEvaluateWould) {
  // Unsafe: head variable not bound by a positive body literal.
  Program unsafe = MustParse("p(X, Y) :- q(X)");
  Result<CompiledProgram> plan = CompileProgram(unsafe);
  Result<Database> eval = Evaluate(unsafe, Database{});
  ASSERT_FALSE(plan.ok());
  ASSERT_FALSE(eval.ok());
  EXPECT_EQ(plan.status().code(), eval.status().code());
}

// ---- Manager-level: the memo layers under real episodes -----------------

TEST(PlanCacheManagerTest, RepeatedRejectedUpdateHitsTheTemplate) {
  // A rejected update leaves the database untouched, so re-submitting the
  // same violating insert replays the first episode exactly. The join
  // constraint's Theorem 5.3 test must come from the cached template:
  // the resubmission binds one more delta tuple into it (and evaluates
  // it again), and the cache serves at least that template hit.
  ConstraintManager mgr({"l"}, CostModel{});
  // ICQ-inapplicable (two remote-only variables), so the tier-2 check is
  // the RA test the template cache serves.
  ASSERT_TRUE(
      mgr.AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y,A,B)"))
          .ok());
  ASSERT_TRUE(
      mgr.AddConstraint("noloop", MustParse("panic :- l(X,X)")).ok());
  ASSERT_TRUE(mgr.site().db().Insert("l", {V(9), V(5)}).ok());

  Update bad = Update::Insert("l", {V(5), V(5)});
  auto first = mgr.ApplyUpdate(bad);
  ASSERT_TRUE(first.ok());
  uint64_t delta_after_first =
      mgr.metrics().GetCounter("plan.delta_tuples")->value();
  uint64_t hits_after_first = mgr.metrics().GetCounter("plan.hits")->value();
  uint64_t compiles_after_first =
      mgr.metrics().GetCounter("plan.compiles")->value();
  EXPECT_EQ(delta_after_first, 1u);  // one bound tuple for the join test
  auto second = mgr.ApplyUpdate(bad);
  ASSERT_TRUE(second.ok());
  // Both submissions were rejected by noloop; reports identical.
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].constraint, (*second)[i].constraint);
    EXPECT_EQ((*first)[i].outcome, (*second)[i].outcome);
    EXPECT_EQ((*first)[i].tier, (*second)[i].tier);
  }
  EXPECT_EQ(mgr.metrics().GetCounter("plan.delta_tuples")->value(),
            delta_after_first + 1);
  EXPECT_GE(mgr.metrics().GetCounter("plan.hits")->value(),
            hits_after_first + 1);
  // Nothing was compiled twice.
  EXPECT_EQ(mgr.metrics().GetCounter("plan.compiles")->value(),
            compiles_after_first);
}

TEST(PlanCacheManagerTest, AddConstraintInvalidatesThePatternMemo) {
  ConstraintManager mgr({"l"}, CostModel{});
  ASSERT_TRUE(
      mgr.AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y)")).ok());
  // Seed the rows first: deleting an absent tuple is a no-op episode and
  // runs no checks at all.
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(mgr.site().db().Insert("l", {V(i), V(i + 1)}).ok());
  }
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Delete("l", {V(1), V(2)})).ok());
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Delete("l", {V(3), V(4)})).ok());
  uint64_t compiles_before =
      mgr.metrics().GetCounter("plan.compiles")->value();
  EXPECT_GT(mgr.metrics().GetCounter("plan.hits")->value(), 0u);
  // Registration is a cache epoch: the same pattern recompiles after.
  ASSERT_TRUE(
      mgr.AddConstraint("join2", MustParse("panic :- l(X,Y) & s(X)")).ok());
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Delete("l", {V(5), V(6)})).ok());
  EXPECT_GT(mgr.metrics().GetCounter("plan.compiles")->value(),
            compiles_before);
}

// ---- Manager-level: budgets under cache hits ---------------------------

/// A mixed budgeted workload: "deep" walks a 64-edge transitive closure a
/// 4-round fixpoint cap can never finish (deterministic sheds, no wall
/// clock), "ref" completes at tier 3, "join" resolves locally — all
/// comparison-free so every plan-cache family participates.
TEST(PlanCacheManagerTest, BudgetInvariantHoldsUnderCacheHits) {
  // The budget shed/accounting invariant must balance exactly when tier-3
  // evaluations run behind cache-served compilations: a cached plan
  // changes nothing about what tier 3 admits, splits, or sheds.
  BudgetConfig budget;
  budget.per_check.max_fixpoint_rounds = 4;
  ConstraintManager mgr({"l", "lq", "emp"}, CostModel{}, ResilienceConfig{},
                        ParallelConfig{}, RemoteCacheConfig{}, budget);
  ASSERT_TRUE(
      mgr.AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y)")).ok());
  ASSERT_TRUE(mgr.AddConstraint(
                     "deep",
                     MustParse("panic :- lq(X) & path(X,Y) & bad(Y)\n"
                               "path(X,Y) :- edge(X,Y)\n"
                               "path(X,Y) :- edge(X,Z) & path(Z,Y)"))
                  .ok());
  ASSERT_TRUE(mgr.AddConstraint(
                     "ref", MustParse("panic :- emp(E,D) & not dept(D)"))
                  .ok());
  ASSERT_TRUE(mgr.site().db().Insert("dept", {V("cs")}).ok());
  ASSERT_TRUE(mgr.site().db().Insert("r", {V(100)}).ok());
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(mgr.site().db().Insert("edge", {V(i), V(i + 1)}).ok());
  }
  for (int i = 0; i < 6; ++i) {
    for (const Update& u :
         {Update::Insert("lq", {V(i)}),                // deep: shed at T3
          Update::Insert("emp", {V(i), V("cs")}),      // ref: completes at T3
          Update::Insert("l", {V(i), V(i + 50)}),      // join
          Update::Delete("l", {V(i), V(i + 50)})}) {   // T1 independence
      auto reports = mgr.ApplyUpdate(u);
      EXPECT_TRUE(reports.ok()) << reports.status().ToString();
    }
  }
  const ManagerStats stats = mgr.stats();
  EXPECT_GT(mgr.metrics().GetCounter("plan.hits")->value(), 0u);
  auto full = stats.resolved_by.find(Tier::kFullCheck);
  size_t resolved_full = full != stats.resolved_by.end() ? full->second : 0;
  EXPECT_EQ(stats.t3_admitted,
            resolved_full + stats.deferred + stats.shed_checks);
  EXPECT_GT(stats.shed_checks, 0u);   // the cap really fired
  EXPECT_GT(resolved_full, 0u);       // and didn't fire on everything
}

// ---- Regression: tier-1 oracle on ground rewritten disjuncts -------------

TEST(IndependenceRegressionTest, GroundRewriteWithNegatedAssumptionIsSafe) {
  // RewriteAfterUpdate(panic :- l(X,X), +l(3,3)) produces a ground,
  // empty-bodied disjunct: X is substituted away and SimplifyCQ discharges
  // the 3=3 equalities, leaving no atoms and no constants. With a negated
  // assumed constraint the check routes to the exact small-model oracle,
  // whose linearization universe is then zero; it used to enumerate one
  // bogus instantiation anyway and throw std::out_of_range. The ground
  // disjunct fires on the empty database where neither member can, so the
  // correct exact answer is "not contained" — kUnknown, never a crash.
  Program noloop = MustParse("panic :- l(X, X)");
  Program ref = MustParse("panic :- emp(E, D) & not dept(D)");
  auto r = HoldsAfterUpdate(noloop, Update::Insert("l", {V(3), V(3)}), {ref});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r->outcome, Outcome::kHolds);
}

}  // namespace
}  // namespace ccpi
