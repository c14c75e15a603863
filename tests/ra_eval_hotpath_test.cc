// Pins the RA evaluator's hot-path contracts:
//  - kScan borrows the stored relation instead of copying it: nonemptiness
//    and selection over a frozen relation perform zero Relation copies,
//    zero content-version churn, and zero index rebuilds.
//  - The hash-join fast path pays the same budget checkpoints as the
//    nested-loop plan shape it replaces, so budgeted runs shed identically
//    whichever shape the evaluator picks.
//  - kUnion's move-then-insert construction keeps the content-version
//    invariant (equal versions imply equal contents) for the result.

#include <gtest/gtest.h>

#include "ra/ra_eval.h"
#include "ra/ra_expr.h"
#include "relational/database.h"
#include "util/budget.h"

namespace ccpi {
namespace {

Database FrozenDb() {
  Database db;
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(db.Insert("l", {V(i), V(i % 4)}).ok());
    EXPECT_TRUE(db.Insert("r", {V(i % 4), V(100 + i)}).ok());
  }
  db.FreezeIndexes();
  return db;
}

TEST(RaEvalHotpathTest, NonemptinessOfScanCopiesNothing) {
  Database db = FrozenDb();
  uint64_t copies = Relation::DebugCopyCount();
  uint64_t versions = Relation::DebugVersionCounter();
  uint64_t builds = Relation::DebugIndexBuildCount();
  auto r = RaNonempty(*RaExpr::Scan("l", 2), db);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(*r);
  EXPECT_EQ(Relation::DebugCopyCount(), copies)
      << "a bare scan must borrow, not copy";
  EXPECT_EQ(Relation::DebugVersionCounter(), versions)
      << "reading must not restamp anything";
  EXPECT_EQ(Relation::DebugIndexBuildCount(), builds)
      << "a frozen relation must never rebuild its indexes";
}

TEST(RaEvalHotpathTest, SelectOverScanCopiesNoRelation) {
  Database db = FrozenDb();
  auto expr = RaExpr::Select(
      RaExpr::Scan("l", 2),
      {RaCondition{RaOperand::Col(1), CmpOp::kEq, RaOperand::Const(V(2))}});
  uint64_t copies = Relation::DebugCopyCount();
  uint64_t builds = Relation::DebugIndexBuildCount();
  auto rel = EvalRa(*expr, db);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 4u);
  EXPECT_EQ(Relation::DebugCopyCount(), copies)
      << "selection builds its output; it must not copy its input";
  EXPECT_EQ(Relation::DebugIndexBuildCount(), builds);
}

TEST(RaEvalHotpathTest, MaterializingABareScanCopiesExactlyOnce) {
  // The one copy left: a caller of EvalRa that asks for a bare scan as an
  // owned Relation. That copy happens at the public boundary, not per
  // node.
  Database db = FrozenDb();
  uint64_t copies = Relation::DebugCopyCount();
  auto rel = EvalRa(*RaExpr::Scan("l", 2), db);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 16u);
  EXPECT_EQ(Relation::DebugCopyCount(), copies + 1);
}

TEST(RaEvalHotpathTest, ScanResultsStayCorrectAfterBorrowFix) {
  // The borrow must not change results: scan, select, project, and
  // difference over scans produce the same contents as ever.
  Database db = FrozenDb();
  auto rel = EvalRa(*RaExpr::Scan("r", 2), db);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 16u);
  EXPECT_TRUE(rel->Contains({V(3), V(103)}));

  auto diff = EvalRa(*RaExpr::Difference(RaExpr::Scan("l", 2),
                                         RaExpr::Scan("l", 2)),
                     db);
  ASSERT_TRUE(diff.ok());
  EXPECT_TRUE(diff->empty());
}

// ---- kUnion version-stamp semantics --------------------------------------

TEST(RaEvalHotpathTest, UnionOfIdenticalInputsKeepsVersionInvariant) {
  // UNION builds its result by moving the left input in and inserting the
  // right. When every insert is a duplicate the result's version equals
  // the left input's — which is correct, because its contents equal the
  // left input's too (equal version, equal contents). A version-keyed
  // cache can treat them interchangeably.
  Database db = FrozenDb();
  auto expr = RaExpr::Union(RaExpr::Scan("l", 2), RaExpr::Scan("l", 2));
  auto rel = EvalRa(*expr, db);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 16u);
  EXPECT_EQ(rel->version(), db.Get("l", 2).version());
}

TEST(RaEvalHotpathTest, UnionWithNewRowsGetsAFreshVersion) {
  // The moment one insert lands, the result must NOT alias either input's
  // version: its contents differ from both.
  Database db = FrozenDb();
  auto expr = RaExpr::Union(RaExpr::Scan("l", 2), RaExpr::Scan("r", 2));
  auto rel = EvalRa(*expr, db);
  ASSERT_TRUE(rel.ok());
  EXPECT_GT(rel->size(), 16u);
  EXPECT_NE(rel->version(), db.Get("l", 2).version());
  EXPECT_NE(rel->version(), db.Get("r", 2).version());
}

// ---- Budget-checkpoint parity --------------------------------------------

/// sigma[#1=#3](L x R): the shape EvalRaNode routes through the hash-join
/// fast path.
RaExprPtr HashJoinShape() {
  return RaExpr::Select(
      RaExpr::Product(RaExpr::Scan("l", 2), RaExpr::Scan("r", 2)),
      {RaCondition{RaOperand::Col(0), CmpOp::kEq, RaOperand::Col(2)}});
}

/// sigma[#1<=#3 & #1>=#3](L x R): semantically identical output, but no
/// usable equality key, so it takes the nested-loop product path.
RaExprPtr NestedLoopShape() {
  return RaExpr::Select(
      RaExpr::Product(RaExpr::Scan("l", 2), RaExpr::Scan("r", 2)),
      {RaCondition{RaOperand::Col(0), CmpOp::kLe, RaOperand::Col(2)},
       RaCondition{RaOperand::Col(0), CmpOp::kGe, RaOperand::Col(2)}});
}

TEST(RaEvalHotpathTest, HashJoinPaysSameBudgetCheckpointsAsNestedLoop) {
  Database db = FrozenDb();
  ExecutionBudget budget;
  budget.deadline_ms = 1000000;  // armed but never exhausted

  BudgetScope hash_scope = BudgetScope::Start(budget);
  auto hash = EvalRa(*HashJoinShape(), db, nullptr, nullptr, &hash_scope);
  ASSERT_TRUE(hash.ok());

  BudgetScope loop_scope = BudgetScope::Start(budget);
  auto loop = EvalRa(*NestedLoopShape(), db, nullptr, nullptr, &loop_scope);
  ASSERT_TRUE(loop.ok());

  // Identical output rows...
  ASSERT_EQ(hash->size(), loop->size());
  for (const Tuple& t : hash->rows()) EXPECT_TRUE(loop->Contains(t));
  EXPECT_GT(hash->size(), 0u);
  // ...and identical budget observations: select, product, two scans on
  // both shapes. Before the parity fix the hash path skipped the product
  // node's checkpoint, so a deadline firing between the two observations
  // shed on one plan shape and completed on the other.
  EXPECT_EQ(hash_scope.checkpoints(), loop_scope.checkpoints());
  EXPECT_EQ(hash_scope.checkpoints(), 4u);
}

TEST(RaEvalHotpathTest, CancelledBudgetShedsBothPlanShapesIdentically) {
  Database db = FrozenDb();
  CancellationToken token;
  token.Cancel();
  ExecutionBudget budget;
  budget.deadline_ms = 1000000;

  BudgetScope hash_scope = BudgetScope::Start(budget, &token);
  auto hash = EvalRa(*HashJoinShape(), db, nullptr, nullptr, &hash_scope);
  BudgetScope loop_scope = BudgetScope::Start(budget, &token);
  auto loop = EvalRa(*NestedLoopShape(), db, nullptr, nullptr, &loop_scope);

  EXPECT_FALSE(hash.ok());
  EXPECT_FALSE(loop.ok());
  EXPECT_EQ(hash.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(loop.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(hash_scope.checkpoints(), loop_scope.checkpoints());
}

// ---- Frozen and unfrozen inputs agree in the evaluator --------------------

TEST(RaEvalHotpathTest, FrozenAndUnfrozenEvaluationsAgree) {
  // The same expressions over the same contents, frozen (every column
  // index built) and unfrozen: identical rows in identical insertion
  // order.
  Database frozen = FrozenDb();
  Database plain;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(plain.Insert("l", {V(i), V(i % 4)}).ok());
    ASSERT_TRUE(plain.Insert("r", {V(i % 4), V(100 + i)}).ok());
  }

  std::vector<RaExprPtr> exprs;
  exprs.push_back(HashJoinShape());
  exprs.push_back(NestedLoopShape());
  exprs.push_back(RaExpr::Select(
      RaExpr::Scan("l", 2),
      {RaCondition{RaOperand::Col(1), CmpOp::kGe, RaOperand::Const(V(2))}}));
  exprs.push_back(RaExpr::Select(
      RaExpr::Scan("l", 2),
      {RaCondition{RaOperand::Const(V(5)), CmpOp::kGt, RaOperand::Col(0)},
       RaCondition{RaOperand::Col(1), CmpOp::kNe, RaOperand::Const(V(0))}}));
  exprs.push_back(RaExpr::Project(RaExpr::Scan("l", 2), {1}));
  exprs.push_back(
      RaExpr::Union(RaExpr::Project(RaExpr::Scan("l", 2), {0}),
                    RaExpr::Project(RaExpr::Scan("r", 2), {0})));
  for (const RaExprPtr& expr : exprs) {
    auto a = EvalRa(*expr, frozen);
    auto b = EvalRa(*expr, plain);
    ASSERT_TRUE(a.ok()) << expr->ToString();
    ASSERT_TRUE(b.ok()) << expr->ToString();
    EXPECT_EQ(a->rows(), b->rows()) << expr->ToString();
  }
}

}  // namespace
}  // namespace ccpi
