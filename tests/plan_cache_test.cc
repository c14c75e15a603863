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

// ---- Order-type signatures ----------------------------------------------

TEST(UpdateSignatureTest, ShapeClassesFollowFirstAppearance) {
  // In these tuples first appearance and value order coincide;
  // RanksFollowValueOrder below tells the two apart. With an empty pool
  // every value is in gap 0.
  std::vector<Value> none;
  EXPECT_EQ(ShapeSignature({V("a"), V("b"), V("b")}, none),
            "G0N0.G0N1.G0N1");
  EXPECT_EQ(ShapeSignature({V("x"), V("y"), V("y")}, none),
            "G0N0.G0N1.G0N1");
  EXPECT_EQ(ShapeSignature({V("a"), V("b"), V("c")}, none),
            "G0N0.G0N1.G0N2");
  EXPECT_EQ(ShapeSignature({V("a"), V("a"), V("b")}, none),
            "G0N0.G0N0.G0N1");
  EXPECT_EQ(ShapeSignature({}, none), "");
}

TEST(UpdateSignatureTest, DistinguishedConstantsGetTheirOwnClasses) {
  // Sorted, deduplicated constant pool (Value's total order).
  std::vector<Value> constants = {V("a"), V("b")};
  EXPECT_EQ(ShapeSignature({V("a"), V("x"), V("x")}, constants),
            "C0.G2N0.G2N0");
  EXPECT_EQ(ShapeSignature({V("b"), V("a"), V("q")}, constants),
            "C1.C0.G2N0");
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
  // Symbols sort above every int: "ann" lies in the gap above 5.
  EXPECT_EQ(a.Key(), "emp/+/G1N0.C0");
  EXPECT_EQ(b.Key(), "emp/-/G1N0.C0");
  EXPECT_NE(a.Key(), b.Key());  // kind is part of the pattern
}

TEST(UpdateSignatureTest, GapsPlaceValuesAmongThePoolConstants) {
  std::vector<Value> constants = {V(3), V(10)};
  EXPECT_EQ(ShapeSignature({V(1)}, constants), "G0N0");
  EXPECT_EQ(ShapeSignature({V(3)}, constants), "C0");
  EXPECT_EQ(ShapeSignature({V(4)}, constants), "G1N0");
  EXPECT_EQ(ShapeSignature({V(9)}, constants), "G1N0");
  EXPECT_EQ(ShapeSignature({V(10)}, constants), "C1");
  EXPECT_EQ(ShapeSignature({V(11)}, constants), "G2N0");
  // Values on either side of a constant never share a key: a comparison
  // with that constant tells them apart.
  EXPECT_NE(ShapeSignature({V(2)}, constants),
            ShapeSignature({V(4)}, constants));
  EXPECT_NE(ShapeSignature({V(9)}, constants),
            ShapeSignature({V(11)}, constants));
}

TEST(UpdateSignatureTest, RanksFollowValueOrder) {
  std::vector<Value> constants = {V(5)};
  // Ranks are taken over all non-constant values, across gaps.
  EXPECT_EQ(ShapeSignature({V(7), V(6), V(5)}, constants), "G1N1.G1N0.C0");
  EXPECT_EQ(ShapeSignature({V(2), V(9), V(9)}, constants),
            "G0N0.G1N1.G1N1");
  // Same gaps, opposite order inside one gap: a comparison between the
  // two components (Hi < Lo) tells these apart, so the keys differ.
  EXPECT_EQ(ShapeSignature({V(6), V(8)}, constants), "G1N0.G1N1");
  EXPECT_EQ(ShapeSignature({V(8), V(6)}, constants), "G1N1.G1N0");
  // Same order type, different values: one key.
  EXPECT_EQ(ShapeSignature({V(6), V(8)}, constants),
            ShapeSignature({V(100), V(200)}, constants));
  EXPECT_EQ(ShapeSignature({V(0), V(7)}, constants),
            ShapeSignature({V(-40), V(6)}, constants));
}

TEST(UpdateSignatureTest, RepeatsShareOneRank) {
  std::vector<Value> constants = {V(0)};
  EXPECT_EQ(ShapeSignature({V(4), V(2), V(4), V(2)}, constants),
            "G1N1.G1N0.G1N1.G1N0");
  // A repeat is an equality: breaking it changes the key even when the
  // order is otherwise kept.
  EXPECT_NE(ShapeSignature({V(3), V(3)}, constants),
            ShapeSignature({V(3), V(4)}, constants));
  EXPECT_EQ(ShapeSignature({V(3), V(3)}, constants),
            ShapeSignature({V(8), V(8)}, constants));
}

TEST(UpdateSignatureTest, MixedIntSymbolOrderMatchesValueOrder) {
  // Value's total order: every int below every symbol, ints numerically,
  // symbols lexicographically. The pool {5, "m"} splits the line into
  // gap 0 (ints below 5), gap 1 (ints above 5 and symbols below "m") and
  // gap 2 (symbols above "m").
  std::vector<Value> constants = {V(5), V("m")};
  EXPECT_EQ(ShapeSignature({V(9), V("c")}, constants), "G1N0.G1N1");
  EXPECT_EQ(ShapeSignature({V("c"), V(9)}, constants), "G1N1.G1N0");
  EXPECT_EQ(ShapeSignature({V(-3), V("z")}, constants), "G0N0.G2N1");
  EXPECT_EQ(ShapeSignature({V("a"), V("b")}, constants),
            ShapeSignature({V(6), V(7)}, constants));
  EXPECT_NE(ShapeSignature({V(4), V("b")}, constants),
            ShapeSignature({V(6), V("b")}, constants));
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
  EXPECT_EQ(cache.size(), 2u);
  cache.Invalidate();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.FindTier1("t1").has_value());
  EXPECT_EQ(cache.FindTemplate("tpl"), nullptr);
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
  ConstraintManager mgr({.local_preds = {"l"}});
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
  ConstraintManager mgr({.local_preds = {"l"}});
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

TEST(PlanCacheManagerTest, ComparisonConstraintsServeTierOneHits) {
  // An order comparison no longer turns the tier-1 memo off: updates of
  // one order type share a key, so only the first of them derives the
  // decision, and plan.compiles / plan.hits bill exactly one compile per
  // new key and one hit per reuse.
  ConstraintManager mgr({.local_preds = {"l"}});
  ASSERT_TRUE(mgr.AddConstraint(
                     "ord", MustParse("panic :- l(X,Y) & r(Y) & Y < X"))
                  .ok());
  ASSERT_TRUE(mgr.site().db().Insert("r", {V(100)}).ok());
  auto count = [&](const char* name) {
    return mgr.metrics().GetCounter(name)->value();
  };
  // One order type: X above Y, both below 100. Every update after the
  // first is a hit.
  constexpr int kDeletes = 5;
  for (int i = 0; i < kDeletes; ++i) {
    // Deletes of present rows: tier 1 settles them (ord cannot be broken
    // by a delete), so each episode consults the tier-1 memo only.
    ASSERT_TRUE(mgr.site().db().Insert("l", {V(10 + i), V(i)}).ok());
    auto reports = mgr.ApplyUpdate(Update::Delete("l", {V(10 + i), V(i)}));
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    ASSERT_EQ(reports->size(), 1u);
    EXPECT_EQ((*reports)[0].tier, Tier::kIndependence);
  }
  EXPECT_EQ(count("plan.compiles"), 1u);
  EXPECT_EQ(count("plan.hits"), uint64_t{kDeletes - 1});
  // A second order type (X below Y) is a new key: one more compile.
  ASSERT_TRUE(mgr.site().db().Insert("l", {V(1), V(2)}).ok());
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Delete("l", {V(1), V(2)})).ok());
  EXPECT_EQ(count("plan.compiles"), 2u);
  EXPECT_EQ(count("plan.hits"), uint64_t{kDeletes - 1});
}

TEST(PlanCacheManagerTest, OrderTypeMemoStillRefusesAnInvertedRange) {
  // sane-range (Hi < Lo is a violation) decides a well-formed range at
  // tier 1: the insert cannot fire the constraint. An inverted range of
  // the same *shape* must not reuse that decision; the order type keeps
  // the two apart, so the second insert is still refused.
  ConstraintManager mgr({.local_preds = {"range"}});
  ASSERT_TRUE(mgr.AddConstraint(
                     "sane-range",
                     MustParse("panic :- range(N,Lo,Hi) & Hi < Lo"))
                  .ok());
  auto ok = mgr.ApplyUpdate(Update::Insert("range", {V("p"), V(3), V(5)}));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->size(), 1u);
  EXPECT_EQ((*ok)[0].outcome, Outcome::kHolds);
  EXPECT_EQ((*ok)[0].tier, Tier::kIndependence);
  auto bad = mgr.ApplyUpdate(Update::Insert("range", {V("p"), V(7), V(6)}));
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  ASSERT_EQ(bad->size(), 1u);
  EXPECT_EQ((*bad)[0].outcome, Outcome::kViolated);
  EXPECT_FALSE(mgr.site().db().Contains("range", {V("p"), V(7), V(6)}));
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
  ConstraintManager mgr({.local_preds = {"l", "lq", "emp"}, .budget = budget});
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
