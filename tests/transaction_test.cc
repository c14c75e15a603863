#include <gtest/gtest.h>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"

namespace ccpi {
namespace {

Program MustParse(const char* text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

class TransactionTest : public ::testing::Test {
 protected:
  TransactionTest() : mgr_({.local_preds = {"l"}}) {
    EXPECT_TRUE(
        mgr_.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
    EXPECT_TRUE(mgr_.AddConstraint(
                        "fi",
                        MustParse("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
                    .ok());
  }
  ConstraintManager mgr_;
};

TEST_F(TransactionTest, CommitsWhenAllPass) {
  auto result = mgr_.ApplyTransaction({
      Update::Insert("l", {V(1), V(2)}),
      Update::Insert("l", {V(3), V(4)}),
      Update::Delete("l", {V(1), V(2)}),
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->committed);
  EXPECT_EQ(result->reports.size(), 3u);
  EXPECT_FALSE(mgr_.site().db().Contains("l", {V(1), V(2)}));
  EXPECT_TRUE(mgr_.site().db().Contains("l", {V(3), V(4)}));
}

TEST_F(TransactionTest, RollsBackEverythingOnViolation) {
  ASSERT_TRUE(mgr_.site().db().Insert("r", {V(50)}).ok());
  auto result = mgr_.ApplyTransaction({
      Update::Insert("l", {V(1), V(2)}),   // fine
      Update::Insert("l", {V(40), V(60)}), // violates fi (50 in range)
      Update::Insert("l", {V(5), V(6)}),   // never reached
  });
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->committed);
  EXPECT_EQ(result->reports.size(), 2u);  // third update not checked
  EXPECT_FALSE(mgr_.site().db().Contains("l", {V(1), V(2)}));
  EXPECT_FALSE(mgr_.site().db().Contains("l", {V(40), V(60)}));
  EXPECT_FALSE(mgr_.site().db().Contains("l", {V(5), V(6)}));
}

TEST_F(TransactionTest, NoopUpdatesRollBackCorrectly) {
  // An insert of an already-present tuple must NOT be deleted by rollback.
  ASSERT_TRUE(mgr_.ApplyUpdate(Update::Insert("l", {V(1), V(2)})).ok());
  auto result = mgr_.ApplyTransaction({
      Update::Insert("l", {V(1), V(2)}),  // no-op
      Update::Insert("l", {V(9), V(3)}),  // violates ord (9 > 3)
  });
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->committed);
  EXPECT_TRUE(mgr_.site().db().Contains("l", {V(1), V(2)}));  // preserved
}

TEST_F(TransactionTest, DeleteThenReinsertRollsBack) {
  ASSERT_TRUE(mgr_.ApplyUpdate(Update::Insert("l", {V(1), V(2)})).ok());
  auto result = mgr_.ApplyTransaction({
      Update::Delete("l", {V(1), V(2)}),
      Update::Insert("l", {V(9), V(3)}),  // violates ord
  });
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->committed);
  EXPECT_TRUE(mgr_.site().db().Contains("l", {V(1), V(2)}));  // restored
}

TEST_F(TransactionTest, EmptyTransactionCommits) {
  auto result = mgr_.ApplyTransaction({});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->committed);
  EXPECT_TRUE(result->reports.empty());
}

}  // namespace
}  // namespace ccpi
