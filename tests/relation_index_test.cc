// Maintained column indexes: Insert and Erase edit the postings they touch
// instead of dropping the index. These tests pin that a maintained index
// always answers exactly what a freshly built one would, that writes after
// the first freeze build no index, and the row order an erase leaves
// behind.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "relational/relation.h"
#include "util/rng.h"

namespace ccpi {
namespace {

constexpr size_t kArity = 3;
constexpr int64_t kDistinct = 4;  // few values per column: long postings

Tuple RandomTuple(Rng* rng) {
  return {V(rng->Range(0, kDistinct - 1)), V(rng->Range(0, kDistinct - 1)),
          V(rng->Range(0, kDistinct - 1))};
}

std::set<Tuple> RowSet(const Relation& rel) {
  return std::set<Tuple>(rel.rows().begin(), rel.rows().end());
}

TEST(RelationIndexTest, MaintainedIndexesMatchFreshBuildsUnderChurn) {
  Rng rng(20260);
  Relation rel(kArity);
  for (int i = 0; i < 40; ++i) rel.Insert(RandomTuple(&rng));
  rel.FreezeIndexes();
  std::set<Tuple> model = RowSet(rel);
  Relation earlier = rel;  // a copy-assign source from an older state
  uint64_t builds = Relation::DebugIndexBuildCount();

  for (int step = 0; step < 1000; ++step) {
    const uint64_t roll = rng.Below(100);
    if (roll < 50) {
      Tuple t = RandomTuple(&rng);
      EXPECT_EQ(rel.Insert(t), model.insert(t).second);
    } else if (roll < 90) {
      // Mostly erase a present row (any position), sometimes an absent one.
      Tuple t = !rel.empty() && rng.Below(4) != 0
                    ? rel.rows()[rng.Below(rel.size())]
                    : RandomTuple(&rng);
      EXPECT_EQ(rel.Erase(t), model.erase(t) == 1);
    } else if (roll < 93) {
      rel.Clear();
      model.clear();
    } else if (roll < 97) {
      earlier = rel;
    } else {
      // Copy-assignment makes a fresh copy: no indexes, not frozen. The
      // re-freeze is then the only index build of this step.
      rel = earlier;
      model = RowSet(earlier);
      rel.FreezeIndexes();
      builds += kArity;
    }
    rel.FreezeIndexes();  // after the first freeze: builds nothing
    ASSERT_EQ(Relation::DebugIndexBuildCount(), builds) << "step " << step;

    ASSERT_EQ(RowSet(rel), model) << "step " << step;
    ASSERT_EQ(rel.size(), model.size()) << "step " << step;
    for (int64_t a = 0; a < kDistinct; ++a) {
      for (int64_t b = 0; b < kDistinct; ++b) {
        for (int64_t c = 0; c < kDistinct; ++c) {
          Tuple t = {V(a), V(b), V(c)};
          ASSERT_EQ(rel.Contains(t), model.count(t) == 1) << "step " << step;
        }
      }
    }

    const Relation fresh = rel;  // builds its indexes lazily on probe
    for (size_t col = 0; col < kArity; ++col) {
      for (int64_t v = 0; v <= kDistinct; ++v) {  // kDistinct is absent
        const std::vector<size_t>& posting = rel.Probe(col, V(v));
        const std::vector<size_t>& expected = fresh.Probe(col, V(v));
        ASSERT_EQ(std::set<size_t>(posting.begin(), posting.end()),
                  std::set<size_t>(expected.begin(), expected.end()))
            << "step " << step << " col " << col << " value " << v;
        for (size_t i = 0; i < posting.size(); ++i) {
          ASSERT_EQ(rel.rows()[posting[i]][col], V(v));
          if (i > 0) ASSERT_LT(posting[i - 1], posting[i]) << "ascending";
        }
      }
    }
    builds = Relation::DebugIndexBuildCount();  // the fresh copy's builds
  }
}

TEST(RelationIndexTest, EraseMovesTheLastRowIntoTheHole) {
  Relation rel(1);
  for (int64_t i = 0; i < 5; ++i) rel.Insert({V(i)});
  rel.FreezeIndexes();
  ASSERT_TRUE(rel.Erase({V(1)}));
  EXPECT_EQ(rel.rows(),
            (std::vector<Tuple>{{V(0)}, {V(4)}, {V(2)}, {V(3)}}));
  EXPECT_EQ(rel.Probe(0, V(4)), std::vector<size_t>{1});
  EXPECT_TRUE(rel.Probe(0, V(1)).empty());
}

TEST(RelationIndexTest, RollingBackAnInsertRestoresTheRowOrder) {
  Relation rel(2);
  for (int64_t i = 0; i < 6; ++i) rel.Insert({V(i % 2), V(i)});
  rel.FreezeIndexes();
  const std::vector<Tuple> before = rel.rows();
  const std::vector<size_t> posting = rel.Probe(0, V(1));
  ASSERT_TRUE(rel.Insert({V(1), V(99)}));  // tentative apply
  ASSERT_TRUE(rel.Erase({V(1), V(99)}));   // rollback
  EXPECT_EQ(rel.rows(), before);
  EXPECT_EQ(rel.Probe(0, V(1)), posting);
}

TEST(RelationIndexTest, InsertAppendsToALivePosting) {
  // A reference returned by Probe stays valid across an Insert, which
  // appends the new row's position to it.
  Relation rel(2);
  rel.Insert({V(7), V(0)});
  const std::vector<size_t>& posting = rel.Probe(0, V(7));
  for (int64_t i = 1; i < 100; ++i) rel.Insert({V(7), V(i)});
  ASSERT_EQ(posting.size(), 100u);
  for (size_t i = 0; i < posting.size(); ++i) EXPECT_EQ(posting[i], i);
}

}  // namespace
}  // namespace ccpi
