#include <gtest/gtest.h>

#include "ra/ra_eval.h"
#include "ra/ra_expr.h"
#include "relational/database.h"

namespace ccpi {
namespace {

Database SampleDb() {
  Database db;
  EXPECT_TRUE(db.Insert("l", {V(3), V(6)}).ok());
  EXPECT_TRUE(db.Insert("l", {V(5), V(10)}).ok());
  EXPECT_TRUE(db.Insert("r", {V(4)}).ok());
  EXPECT_TRUE(db.Insert("r", {V(12)}).ok());
  return db;
}

TEST(RaTest, ScanReadsRelation) {
  Database db = SampleDb();
  auto rel = EvalRa(*RaExpr::Scan("l", 2), db);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 2u);
}

TEST(RaTest, ScanMissingIsEmpty) {
  Database db;
  auto rel = EvalRa(*RaExpr::Scan("ghost", 3), db);
  ASSERT_TRUE(rel.ok());
  EXPECT_TRUE(rel->empty());
}

TEST(RaTest, SelectColConst) {
  Database db = SampleDb();
  auto expr = RaExpr::Select(
      RaExpr::Scan("l", 2),
      {RaCondition{RaOperand::Col(0), CmpOp::kEq, RaOperand::Const(V(3))}});
  auto rel = EvalRa(*expr, db);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 1u);
  EXPECT_TRUE(rel->Contains({V(3), V(6)}));
}

TEST(RaTest, SelectColCol) {
  Database db;
  ASSERT_TRUE(db.Insert("p", {V(1), V(1)}).ok());
  ASSERT_TRUE(db.Insert("p", {V(1), V(2)}).ok());
  auto expr = RaExpr::Select(
      RaExpr::Scan("p", 2),
      {RaCondition{RaOperand::Col(0), CmpOp::kEq, RaOperand::Col(1)}});
  auto rel = EvalRa(*expr, db);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 1u);
}

TEST(RaTest, SelectInequality) {
  Database db = SampleDb();
  auto expr = RaExpr::Select(
      RaExpr::Scan("l", 2),
      {RaCondition{RaOperand::Col(0), CmpOp::kLt, RaOperand::Const(V(5))}});
  auto rel = EvalRa(*expr, db);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 1u);
}

TEST(RaTest, Project) {
  Database db = SampleDb();
  auto expr = RaExpr::Project(RaExpr::Scan("l", 2), {1});
  auto rel = EvalRa(*expr, db);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->arity(), 1u);
  EXPECT_TRUE(rel->Contains({V(6)}));
  EXPECT_TRUE(rel->Contains({V(10)}));
}

TEST(RaTest, ProductAndUnionAndDifference) {
  Database db = SampleDb();
  auto product = RaExpr::Product(RaExpr::Scan("l", 2), RaExpr::Scan("r", 1));
  auto rel = EvalRa(*product, db);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 4u);
  EXPECT_EQ(rel->arity(), 3u);

  auto uni = RaExpr::Union(RaExpr::Scan("r", 1),
                           RaExpr::ConstRel(1, {{V(4)}, {V(99)}}));
  auto urel = EvalRa(*uni, db);
  ASSERT_TRUE(urel.ok());
  EXPECT_EQ(urel->size(), 3u);  // 4 deduplicated

  auto diff = RaExpr::Difference(RaExpr::Scan("r", 1),
                                 RaExpr::ConstRel(1, {{V(4)}}));
  auto drel = EvalRa(*diff, db);
  ASSERT_TRUE(drel.ok());
  EXPECT_EQ(drel->size(), 1u);
  EXPECT_TRUE(drel->Contains({V(12)}));
}

TEST(RaTest, NonemptyTest) {
  Database db = SampleDb();
  auto yes = RaNonempty(*RaExpr::Scan("l", 2), db);
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  auto no = RaNonempty(*RaExpr::Empty(2), db);
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

/// Sums the tuples each base relation reports as read.
class ReadCounter : public AccessObserver {
 public:
  Status OnRead(const std::string& pred, size_t count) override {
    total[pred] += count;
    return Status::OK();
  }
  std::map<std::string, size_t> total;
};

TEST(RaTest, ObserverCountsBaseReads) {
  Database db = SampleDb();
  ReadCounter counter;
  auto expr = RaExpr::Select(
      RaExpr::Scan("l", 2),
      {RaCondition{RaOperand::Col(0), CmpOp::kEq, RaOperand::Const(V(3))}});
  // The #1=3 selection probes column 0: only the posting of 3 is read.
  ASSERT_TRUE(EvalRa(*expr, db, &counter).ok());
  EXPECT_EQ(counter.total["l"], 1u);
  EXPECT_EQ(counter.total.count("r"), 0u);
}

TEST(RaTest, ObserverCountsAWholeScanWithoutAnEquality) {
  Database db = SampleDb();
  ReadCounter counter;
  // No #c = constant condition: the selection filters the whole scan.
  auto expr = RaExpr::Select(
      RaExpr::Scan("l", 2),
      {RaCondition{RaOperand::Col(0), CmpOp::kLt, RaOperand::Const(V(4))}});
  auto rel = EvalRa(*expr, db, &counter);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->size(), 1u);
  EXPECT_EQ(counter.total["l"], 2u);
}

/// A probed selection emits the rows, in the order, of filtering the whole
/// relation: the same selection over `l U {}` (which is filtered, not
/// probed) is the reference, with the constant on either side and extra
/// conditions checked on the posting.
TEST(RaTest, ProbedSelectionMatchesFilteredScan) {
  Database db;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db.Insert("l", {V(i % 7), V(i), V(i % 3)}).ok());
  }
  ASSERT_TRUE(db.Erase("l", {V(3), V(10), V(1)}).ok());  // reorders a row
  for (int k = -1; k <= 7; ++k) {
    std::vector<std::vector<RaCondition>> variants = {
        {RaCondition{RaOperand::Col(0), CmpOp::kEq, RaOperand::Const(V(k))}},
        {RaCondition{RaOperand::Const(V(k)), CmpOp::kEq, RaOperand::Col(0)},
         RaCondition{RaOperand::Col(2), CmpOp::kNe, RaOperand::Const(V(1))}},
        {RaCondition{RaOperand::Col(1), CmpOp::kGt, RaOperand::Const(V(20))},
         RaCondition{RaOperand::Col(2), CmpOp::kEq, RaOperand::Const(V(k))}},
    };
    for (const auto& conds : variants) {
      auto probed = EvalRa(*RaExpr::Select(RaExpr::Scan("l", 3), conds), db);
      auto filtered = EvalRa(
          *RaExpr::Select(
              RaExpr::Union(RaExpr::Scan("l", 3), RaExpr::ConstRel(3, {})),
              conds),
          db);
      ASSERT_TRUE(probed.ok() && filtered.ok());
      EXPECT_EQ(probed->rows(), filtered->rows()) << "k=" << k;
    }
  }
}

TEST(RaTest, ToStringRendering) {
  auto expr = RaExpr::Union(
      RaExpr::Select(RaExpr::Scan("l", 2),
                     {RaCondition{RaOperand::Col(0), CmpOp::kEq,
                                  RaOperand::Const(V("a"))}}),
      RaExpr::Select(RaExpr::Scan("l", 2),
                     {RaCondition{RaOperand::Col(1), CmpOp::kEq,
                                  RaOperand::Col(0)}}));
  EXPECT_EQ(expr->ToString(),
            "(sigma[#1=a](l) U sigma[#2=#1](l))");
}

}  // namespace
}  // namespace ccpi
