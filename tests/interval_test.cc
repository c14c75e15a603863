#include <gtest/gtest.h>

#include "core/interval_set.h"
#include "util/rng.h"

namespace ccpi {
namespace {

Interval CC(int lo, int hi) {
  return Interval{Bound::Closed(V(lo)), Bound::Closed(V(hi))};
}
Interval OO(int lo, int hi) {
  return Interval{Bound::Open(V(lo)), Bound::Open(V(hi))};
}
Interval CO(int lo, int hi) {
  return Interval{Bound::Closed(V(lo)), Bound::Open(V(hi))};
}
Interval OC(int lo, int hi) {
  return Interval{Bound::Open(V(lo)), Bound::Closed(V(hi))};
}

TEST(IntervalTest, Emptiness) {
  EXPECT_FALSE(CC(1, 1).Empty());  // [1,1] = {1}
  EXPECT_TRUE(OO(1, 1).Empty());
  EXPECT_TRUE(CO(1, 1).Empty());
  EXPECT_TRUE(CC(2, 1).Empty());
  EXPECT_FALSE(Interval::All().Empty());
  EXPECT_FALSE((Interval{Bound::NegInf(), Bound::Closed(V(0))}).Empty());
  EXPECT_FALSE((Interval{Bound::Open(V(0)), Bound::PosInf()}).Empty());
  EXPECT_TRUE(OC(3, 3).Empty());
}

TEST(IntervalTest, Contains) {
  EXPECT_TRUE(CC(1, 3).Contains(V(1)));
  EXPECT_TRUE(CC(1, 3).Contains(V(3)));
  EXPECT_FALSE(OO(1, 3).Contains(V(1)));
  EXPECT_FALSE(OO(1, 3).Contains(V(3)));
  EXPECT_TRUE(OO(1, 3).Contains(V(2)));
  EXPECT_TRUE(Interval::All().Contains(V(-1000)));
  EXPECT_TRUE(
      (Interval{Bound::NegInf(), Bound::Open(V(5))}).Contains(V(-100)));
  EXPECT_FALSE(
      (Interval{Bound::NegInf(), Bound::Open(V(5))}).Contains(V(5)));
}

TEST(IntervalTest, Covers) {
  EXPECT_TRUE(CC(1, 10).Covers(CC(2, 9)));
  EXPECT_TRUE(CC(1, 10).Covers(CC(1, 10)));
  EXPECT_TRUE(CC(1, 10).Covers(OO(1, 10)));
  EXPECT_FALSE(OO(1, 10).Covers(CC(1, 10)));
  EXPECT_FALSE(CC(1, 10).Covers(CC(0, 5)));
  EXPECT_TRUE(Interval::All().Covers(CC(-100, 100)));
  EXPECT_TRUE(CC(1, 1).Covers(OO(5, 5)));  // anything covers empty
}

TEST(IntervalTest, ConnectsSemantics) {
  // [1,2] and [2,3] connect; [1,2) and [2,3] connect; (1,2) and (2,3)
  // leave 2 uncovered.
  EXPECT_TRUE(Connects(Bound::Closed(V(2)), Bound::Closed(V(2))));
  EXPECT_TRUE(Connects(Bound::Open(V(2)), Bound::Closed(V(2))));
  EXPECT_TRUE(Connects(Bound::Closed(V(2)), Bound::Open(V(2))));
  EXPECT_FALSE(Connects(Bound::Open(V(2)), Bound::Open(V(2))));
  EXPECT_TRUE(Connects(Bound::Closed(V(3)), Bound::Closed(V(2))));
  EXPECT_FALSE(Connects(Bound::Closed(V(2)), Bound::Closed(V(3))));
}

TEST(IntervalSetTest, Example53ForbiddenIntervals) {
  // l = {(3,6), (5,10)}: union [3,10] covers the inserted [4,8].
  IntervalSet set;
  set.Add(CC(3, 6));
  set.Add(CC(5, 10));
  ASSERT_EQ(set.intervals().size(), 1u);
  EXPECT_TRUE(set.Covers(CC(4, 8)));
  EXPECT_FALSE(set.Covers(CC(4, 11)));
  EXPECT_FALSE(set.Covers(CC(2, 8)));
}

TEST(IntervalSetTest, GapStaysSplit) {
  IntervalSet set;
  set.Add(CC(3, 6));
  set.Add(CC(7, 10));
  EXPECT_EQ(set.intervals().size(), 2u);
  EXPECT_FALSE(set.Covers(CC(4, 8)));  // 6.5 uncovered (dense order)
  EXPECT_TRUE(set.Covers(CC(4, 6)));
  EXPECT_TRUE(set.Covers(CC(7, 9)));
}

TEST(IntervalSetTest, TouchingHalfOpenMerges) {
  IntervalSet set;
  set.Add(CO(1, 2));  // [1,2)
  set.Add(CC(2, 3));  // [2,3]
  ASSERT_EQ(set.intervals().size(), 1u);
  EXPECT_TRUE(set.Covers(CC(1, 3)));
}

TEST(IntervalSetTest, TouchingOpenOpenDoesNotMerge) {
  IntervalSet set;
  set.Add(OO(1, 2));
  set.Add(OO(2, 3));
  EXPECT_EQ(set.intervals().size(), 2u);
  EXPECT_FALSE(set.Covers(OO(1, 3)));  // the point 2 is uncovered
  EXPECT_FALSE(set.Contains(V(2)));
}

TEST(IntervalSetTest, BridgingInterval) {
  IntervalSet set;
  set.Add(CC(1, 2));
  set.Add(CC(5, 6));
  EXPECT_EQ(set.intervals().size(), 2u);
  set.Add(CC(2, 5));  // bridges both
  ASSERT_EQ(set.intervals().size(), 1u);
  EXPECT_TRUE(set.Covers(CC(1, 6)));
}

TEST(IntervalSetTest, RaysAndAll) {
  IntervalSet set;
  set.Add(Interval{Bound::NegInf(), Bound::Closed(V(0))});
  set.Add(Interval{Bound::Closed(V(10)), Bound::PosInf()});
  EXPECT_EQ(set.intervals().size(), 2u);
  EXPECT_TRUE(set.Covers(CC(-100, 0)));
  EXPECT_TRUE(set.Covers(CC(10, 1000)));
  EXPECT_FALSE(set.Covers(CC(0, 10)));
  set.Add(CC(0, 10));
  ASSERT_EQ(set.intervals().size(), 1u);
  EXPECT_TRUE(set.Covers(Interval::All()));
}

TEST(IntervalSetTest, EmptyIntervalsIgnored) {
  IntervalSet set;
  set.Add(OO(5, 5));
  set.Add(CC(7, 3));
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.Covers(OO(5, 5)));  // empty target always covered
}

TEST(IntervalSetTest, SymbolValues) {
  IntervalSet set;
  set.Add(Interval{Bound::Closed(V("apple")), Bound::Closed(V("mango"))});
  EXPECT_TRUE(set.Contains(V("banana")));
  EXPECT_FALSE(set.Contains(V("zebra")));
}

/// Randomized cross-check against a dense-point sample oracle: coverage of
/// [a,b] implies every sampled point (integers and midpoints represented by
/// doubled coordinates) in [a,b] is in some interval, and non-coverage
/// implies some sampled point escapes. Using doubled integer coordinates
/// makes midpoints exact.
TEST(IntervalSetTest, RandomizedPointSampleAgreement) {
  Rng rng(555);
  for (int trial = 0; trial < 200; ++trial) {
    IntervalSet set;
    std::vector<Interval> added;
    for (int i = 0; i < 6; ++i) {
      int lo = static_cast<int>(rng.Range(0, 20)) * 2;  // even coordinates
      int hi = lo + static_cast<int>(rng.Range(0, 10)) * 2;
      Interval interval{
          rng.Chance(1, 2) ? Bound::Closed(V(lo)) : Bound::Open(V(lo)),
          rng.Chance(1, 2) ? Bound::Closed(V(hi)) : Bound::Open(V(hi))};
      set.Add(interval);
      added.push_back(interval);
    }
    // Membership agreement on every point (odd = "midpoint" sample).
    for (int p = -1; p <= 42; ++p) {
      bool direct = false;
      for (const Interval& i : added) direct = direct || i.Contains(V(p));
      EXPECT_EQ(set.Contains(V(p)), direct) << "point " << p;
    }
    // Coverage agreement on random targets, checked pointwise.
    for (int q = 0; q < 10; ++q) {
      int lo = static_cast<int>(rng.Range(0, 20)) * 2;
      int hi = lo + static_cast<int>(rng.Range(0, 10)) * 2;
      Interval target{Bound::Closed(V(lo)), Bound::Closed(V(hi))};
      bool covered = set.Covers(target);
      // Sampled refutation: a point in target outside the set.
      bool sampled_gap = false;
      for (int p = lo; p <= hi; ++p) {
        if (!set.Contains(V(p))) sampled_gap = true;
      }
      if (covered) {
        EXPECT_FALSE(sampled_gap) << set.ToString() << " vs "
                                  << target.ToString();
      }
      // (non-coverage may be witnessed off the integer sample, so only the
      // one-sided check is valid — unless a sampled gap exists.)
      if (sampled_gap) {
        EXPECT_FALSE(covered);
      }
    }
  }
}

/// FromIntervals is the one-sort, one-sweep form of repeated Add: on random
/// lists of open, closed, ray, whole-line and empty intervals over a small
/// value range (so endpoints are often shared), both build the same
/// members, whatever order the list comes in.
TEST(IntervalSetTest, BulkBuildMatchesIncrementalAdds) {
  // Touching pairs first: [1,2) + [2,3] is one interval, (1,2) + (2,3)
  // leaves the point 2 out.
  EXPECT_EQ(IntervalSet::FromIntervals({CC(2, 3), CO(1, 2)}).ToString(),
            "[1, 3]");
  EXPECT_EQ(IntervalSet::FromIntervals({OO(2, 3), OO(1, 2)}).ToString(),
            "(1, 2) U (2, 3)");
  EXPECT_TRUE(IntervalSet::FromIntervals({}).empty());
  EXPECT_TRUE(IntervalSet::FromIntervals({OO(1, 1), CC(2, 1)}).empty());

  Rng rng(3053);
  auto bound = [&](bool lower) {
    switch (rng.Range(0, 9)) {
      case 0:
        return lower ? Bound::NegInf() : Bound::PosInf();
      case 1:  // an inverted infinity: the interval is empty
        return lower ? Bound::PosInf() : Bound::NegInf();
      default: {
        Value v = V(static_cast<int>(rng.Range(0, 8)));
        return rng.Chance(1, 2) ? Bound::Closed(v) : Bound::Open(v);
      }
    }
  };
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<Interval> intervals;
    const int n = static_cast<int>(rng.Range(0, 12));
    for (int i = 0; i < n; ++i) {
      Interval interval{bound(true), bound(false)};
      intervals.push_back(interval);
    }
    IntervalSet incremental;
    for (const Interval& i : intervals) incremental.Add(i);
    // Any input order builds the same set.
    for (size_t i = intervals.size(); i > 1; --i) {
      std::swap(intervals[i - 1], intervals[rng.Below(i)]);
    }
    IntervalSet bulk = IntervalSet::FromIntervals(intervals);
    ASSERT_EQ(bulk.ToString(), incremental.ToString()) << "trial " << trial;
    ASSERT_EQ(bulk.intervals().size(), incremental.intervals().size());
    for (int p = -1; p <= 9; ++p) {
      ASSERT_EQ(bulk.Contains(V(p)), incremental.Contains(V(p)));
    }
  }
}

}  // namespace
}  // namespace ccpi
