#include <gtest/gtest.h>

#include <string>

#include "datalog/parser.h"
#include "datalog/unfold.h"

namespace ccpi {
namespace {

Program MustParse(const char* text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

TEST(UnfoldTest, SingleRuleIsItself) {
  auto ucq = UnfoldToUCQ(MustParse("panic :- p(X) & q(X,Y)"));
  ASSERT_TRUE(ucq.ok());
  ASSERT_EQ(ucq->size(), 1u);
  EXPECT_EQ((*ucq)[0].positives.size(), 2u);
}

TEST(UnfoldTest, TwoGoalRulesMakeAUnion) {
  auto ucq = UnfoldToUCQ(MustParse(
      "panic :- p(X)\n"
      "panic :- q(X)\n"));
  ASSERT_TRUE(ucq.ok());
  EXPECT_EQ(ucq->size(), 2u);
}

TEST(UnfoldTest, PositiveIdbSubstitution) {
  auto ucq = UnfoldToUCQ(MustParse(
      "panic :- big(X)\n"
      "big(X) :- p(X) & X > 100\n"));
  ASSERT_TRUE(ucq.ok());
  ASSERT_EQ(ucq->size(), 1u);
  const CQ& q = (*ucq)[0];
  ASSERT_EQ(q.positives.size(), 1u);
  EXPECT_EQ(q.positives[0].pred, "p");
  ASSERT_EQ(q.comparisons.size(), 1u);
  EXPECT_EQ(q.comparisons[0].op, CmpOp::kGt);
}

TEST(UnfoldTest, PositiveIdbFanOut) {
  // dept1 is dept plus the toy fact — the Example 4.1 insertion helper.
  auto ucq = UnfoldToUCQ(MustParse(
      "panic :- emp(E,D,S) & dept1(D)\n"
      "dept1(D) :- dept(D)\n"
      "dept1(toy)\n"));
  ASSERT_TRUE(ucq.ok());
  // One disjunct through dept, one through the fact.
  ASSERT_EQ(ucq->size(), 2u);
}

TEST(UnfoldTest, NegatedIdbBecomesConjunction) {
  // Example 4.1: not dept1(D) where dept1(D) :- dept(D); dept1(toy)
  // unfolds to  not dept(D) & D <> toy.
  auto ucq = UnfoldToUCQ(MustParse(
      "panic :- emp(E,D,S) & not dept1(D)\n"
      "dept1(D) :- dept(D)\n"
      "dept1(toy)\n"));
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();
  ASSERT_EQ(ucq->size(), 1u);
  const CQ& q = (*ucq)[0];
  ASSERT_EQ(q.negatives.size(), 1u);
  EXPECT_EQ(q.negatives[0].pred, "dept");
  ASSERT_EQ(q.comparisons.size(), 1u);
  EXPECT_EQ(q.comparisons[0].op, CmpOp::kNe);
  EXPECT_EQ(q.comparisons[0].rhs.constant(), V("toy"));
}

TEST(UnfoldTest, NegatedIdbWithMultiLiteralRulesCrosses) {
  // emp1 reflecting a deletion (Example 4.2): each defining rule has two
  // literals, so not emp1(...) expands into the cross product of negated
  // choices.
  auto ucq = UnfoldToUCQ(MustParse(
      "panic :- all(E,D,S) & not emp1(E,D,S)\n"
      "emp1(E,D,S) :- emp(E,D,S) & E <> jones\n"
      "emp1(E,D,S) :- emp(E,D,S) & D <> shoe\n"));
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();
  // (not emp | E=jones) x (not emp | D=shoe) = 4 disjuncts.
  EXPECT_EQ(ucq->size(), 4u);
}

TEST(UnfoldTest, NegatedIdbWithExistentialUnsupported) {
  auto ucq = UnfoldToUCQ(MustParse(
      "panic :- p(X) & not hasq(X)\n"
      "hasq(X) :- q(X,Y)\n"));
  ASSERT_FALSE(ucq.ok());
  EXPECT_EQ(ucq.status().code(), StatusCode::kUnsupported);
}

TEST(UnfoldTest, RecursiveRejected) {
  auto ucq = UnfoldToUCQ(MustParse(
      "panic :- t(X,X)\n"
      "t(X,Y) :- e(X,Y)\n"
      "t(X,Y) :- t(X,Z) & e(Z,Y)\n"));
  ASSERT_FALSE(ucq.ok());
  EXPECT_EQ(ucq.status().code(), StatusCode::kInvalidArgument);
}

TEST(UnfoldTest, ConstantHeadUnification) {
  // Unfolding through a head with a constant adds the equality.
  auto ucq = UnfoldToUCQ(MustParse(
      "panic :- q(X) & special(X)\n"
      "special(gold) :- marker\n"));
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();
  ASSERT_EQ(ucq->size(), 1u);
  const CQ& q = (*ucq)[0];
  ASSERT_EQ(q.comparisons.size(), 1u);
  EXPECT_EQ(q.comparisons[0].op, CmpOp::kEq);
}

TEST(UnfoldTest, NestedUnfolding) {
  auto ucq = UnfoldToUCQ(MustParse(
      "panic :- a(X)\n"
      "a(X) :- b(X)\n"
      "b(X) :- base(X) & X < 5\n"));
  ASSERT_TRUE(ucq.ok());
  ASSERT_EQ(ucq->size(), 1u);
  EXPECT_EQ((*ucq)[0].positives[0].pred, "base");
}

TEST(UnfoldTest, DeadBranchFromAlwaysTrueFact) {
  // not always(X) where always matches unconditionally kills the branch.
  auto ucq = UnfoldToUCQ(MustParse(
      "panic :- p(X) & not always\n"
      "always\n"));
  ASSERT_TRUE(ucq.ok());
  EXPECT_TRUE(ucq->empty());
}

TEST(UnfoldTest, DisjunctsComeInDepthFirstOrder) {
  // Each alternative of `a` is unfolded through every alternative of `b`
  // before the next alternative of `a`, as the recursive definition reads.
  auto ucq = UnfoldToUCQ(MustParse(
      "panic :- a(X) & b(X)\n"
      "a(X) :- p(X)\n"
      "a(X) :- q(X)\n"
      "b(X) :- r(X)\n"
      "b(X) :- s(X)\n"));
  ASSERT_TRUE(ucq.ok());
  std::string order;
  for (const CQ& q : *ucq) {
    for (const Atom& a : q.positives) order += a.pred;
    order += "|";
  }
  EXPECT_EQ(order, "rp|sp|rq|sq|");
}

/// p0(X) :- p1(X), ..., p<depth-1>(X) :- p<depth>(X), each level with a
/// second alternative q<i>(X) & p<i+1>(X) when `two_per_level`, and
/// p<depth>(X) :- l(X) & r(X).
std::string Chain(int depth, bool two_per_level) {
  std::string text = "panic :- p0(X)\n";
  for (int i = 0; i < depth; ++i) {
    const std::string p = "p" + std::to_string(i);
    const std::string next = "p" + std::to_string(i + 1);
    text += p + "(X) :- " + next + "(X)\n";
    if (two_per_level) {
      text += p + "(X) :- q" + std::to_string(i) + "(X) & " + next + "(X)\n";
    }
  }
  return text + "p" + std::to_string(depth) + "(X) :- l(X) & r(X)\n";
}

TEST(UnfoldTest, DeepChainUnfoldsWithoutExhaustingTheStack) {
  auto program = ParseProgram(Chain(10000, false));
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto ucq = UnfoldToUCQ(*program);
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();
  ASSERT_EQ(ucq->size(), 1u);
  EXPECT_EQ((*ucq)[0].positives.size(), 2u);
}

TEST(UnfoldTest, ExponentialUnfoldingIsUnsupported) {
  // 2^10 disjuncts unfold; 2^20 exceed the expansion cap.
  auto small = ParseProgram(Chain(10, true));
  ASSERT_TRUE(small.ok());
  auto ucq = UnfoldToUCQ(*small);
  ASSERT_TRUE(ucq.ok()) << ucq.status().ToString();
  EXPECT_EQ(ucq->size(), 1024u);
  auto wide = ParseProgram(Chain(20, true));
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(UnfoldToUCQ(*wide).status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace ccpi
