// Kernel-level and lifecycle coverage for the columnar segments behind
// Relation (src/relational/columnar.h): column-kind detection, every
// ScanOp over int and dictionary columns (including the cross-type edge
// cases of the total Value order), position-list refinement, gather,
// column-at-a-time join tables, and the freeze/invalidate lifecycle on
// Relation. A randomized sweep cross-checks every kernel against the
// row-at-a-time loop it replaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "relational/columnar.h"
#include "relational/relation.h"
#include "util/rng.h"

namespace ccpi {
namespace {

/// Restores the process-wide columnar switch on scope exit so tests can
/// toggle it without leaking state into the rest of the binary.
struct ColumnarToggle {
  explicit ColumnarToggle(bool enabled)
      : previous(Relation::ColumnarEnabled()) {
    Relation::SetColumnarEnabled(enabled);
  }
  ~ColumnarToggle() { Relation::SetColumnarEnabled(previous); }
  bool previous;
};

std::vector<Tuple> IntRows() {
  return {{V(3), V(10)}, {V(5), V(20)}, {V(3), V(30)}, {V(7), V(3)}};
}

std::vector<Tuple> MixedRows() {
  return {{V("bob"), V(1)}, {V("ann"), V(2)}, {V(4), V(3)}, {V("bob"), V(4)}};
}

/// Row-at-a-time oracle for ScanCmp.
PositionList RowScan(const std::vector<Tuple>& rows, size_t col, ScanOp op,
                     const Value& v) {
  PositionList out;
  for (uint32_t i = 0; i < rows.size(); ++i) {
    const Value& x = rows[i][col];
    bool hit = false;
    switch (op) {
      case ScanOp::kLt: hit = x < v; break;
      case ScanOp::kLe: hit = x <= v; break;
      case ScanOp::kGt: hit = x > v; break;
      case ScanOp::kGe: hit = x >= v; break;
      case ScanOp::kEq: hit = x == v; break;
      case ScanOp::kNe: hit = x != v; break;
    }
    if (hit) out.push_back(i);
  }
  return out;
}

TEST(ColumnarTest, BuildDetectsColumnKinds) {
  auto seg = ColumnarSegment::Build(MixedRows(), 2);
  EXPECT_EQ(seg->size(), 4u);
  EXPECT_EQ(seg->arity(), 2u);
  EXPECT_EQ(seg->column_kind(0), ColumnarSegment::ColumnKind::kDict);
  EXPECT_EQ(seg->column_kind(1), ColumnarSegment::ColumnKind::kInt64);
}

TEST(ColumnarTest, GatherRowRoundTrips) {
  std::vector<Tuple> rows = MixedRows();
  auto seg = ColumnarSegment::Build(rows, 2);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(seg->GatherRow(i), rows[i]) << "row " << i;
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(seg->ValueAt(i, c), rows[i][c]);
    }
  }
  std::vector<Tuple> gathered;
  seg->Gather({3, 1}, &gathered);
  ASSERT_EQ(gathered.size(), 2u);
  EXPECT_EQ(gathered[0], rows[3]);
  EXPECT_EQ(gathered[1], rows[1]);
}

TEST(ColumnarTest, ScanEqIntColumn) {
  auto seg = ColumnarSegment::Build(IntRows(), 2);
  PositionList pos;
  seg->ScanEq(0, V(3), &pos);
  EXPECT_EQ(pos, (PositionList{0, 2}));
  seg->ScanEq(0, V(99), &pos);
  EXPECT_TRUE(pos.empty());
  // An int column never contains a symbol.
  seg->ScanEq(0, V("ghost"), &pos);
  EXPECT_TRUE(pos.empty());
}

TEST(ColumnarTest, ScanCmpIntColumnAllOps) {
  std::vector<Tuple> rows = IntRows();
  auto seg = ColumnarSegment::Build(rows, 2);
  for (ScanOp op : {ScanOp::kLt, ScanOp::kLe, ScanOp::kGt, ScanOp::kGe,
                    ScanOp::kEq, ScanOp::kNe}) {
    for (int64_t v : {2, 3, 5, 8}) {
      PositionList pos;
      seg->ScanCmp(0, op, V(v), &pos);
      EXPECT_EQ(pos, RowScan(rows, 0, op, V(v)))
          << "op " << static_cast<int>(op) << " v " << v;
    }
  }
}

TEST(ColumnarTest, ScanCmpIntColumnAgainstSymbol) {
  // Every integer sorts below every symbol: ordered comparisons against a
  // symbol are constant across an int column.
  std::vector<Tuple> rows = IntRows();
  auto seg = ColumnarSegment::Build(rows, 2);
  PositionList pos;
  seg->ScanCmp(0, ScanOp::kLt, V("zed"), &pos);
  EXPECT_EQ(pos.size(), rows.size());
  seg->ScanCmp(0, ScanOp::kNe, V("zed"), &pos);
  EXPECT_EQ(pos.size(), rows.size());
  seg->ScanCmp(0, ScanOp::kGe, V("zed"), &pos);
  EXPECT_TRUE(pos.empty());
}

TEST(ColumnarTest, ScanCmpDictColumn) {
  std::vector<Tuple> rows = MixedRows();  // col 0: bob, ann, 4, bob
  auto seg = ColumnarSegment::Build(rows, 2);
  for (ScanOp op : {ScanOp::kLt, ScanOp::kLe, ScanOp::kGt, ScanOp::kGe,
                    ScanOp::kEq, ScanOp::kNe}) {
    // Present values, an absent symbol between dict entries, an absent
    // int, and the extremes.
    for (const Value& v : {V("bob"), V("ann"), V("azz"), V(4), V(0),
                           V("zzz")}) {
      PositionList pos;
      seg->ScanCmp(0, op, v, &pos);
      EXPECT_EQ(pos, RowScan(rows, 0, op, v))
          << "op " << static_cast<int>(op) << " v " << v.ToString();
    }
  }
}

TEST(ColumnarTest, FilterCmpRefinesInPlace) {
  std::vector<Tuple> rows = IntRows();
  auto seg = ColumnarSegment::Build(rows, 2);
  PositionList pos;
  seg->ScanCmp(0, ScanOp::kEq, V(3), &pos);  // rows 0, 2
  seg->FilterCmp(1, ScanOp::kGt, V(15), &pos);
  EXPECT_EQ(pos, (PositionList{2}));
  // Filtering an int column by a symbol: int < symbol always, so kLt
  // keeps everything and kGt empties the list.
  seg->ScanCmp(0, ScanOp::kEq, V(3), &pos);
  seg->FilterCmp(1, ScanOp::kLt, V("any"), &pos);
  EXPECT_EQ(pos, (PositionList{0, 2}));
  seg->FilterCmp(1, ScanOp::kGt, V("any"), &pos);
  EXPECT_TRUE(pos.empty());
}

TEST(ColumnarTest, ScanColCmpIntInt) {
  std::vector<Tuple> rows = {{V(1), V(1)}, {V(2), V(5)}, {V(7), V(7)},
                             {V(9), V(4)}};
  auto seg = ColumnarSegment::Build(rows, 2);
  PositionList pos;
  seg->ScanColCmp(0, ScanOp::kEq, 1, &pos);
  EXPECT_EQ(pos, (PositionList{0, 2}));
  seg->ScanColCmp(0, ScanOp::kLt, 1, &pos);
  EXPECT_EQ(pos, (PositionList{1}));
  seg->FilterColCmp(0, ScanOp::kGt, 1, &pos);
  EXPECT_TRUE(pos.empty());
}

TEST(ColumnarTest, ScanColCmpDictDict) {
  // Two dict columns with different dictionaries: equality goes through
  // cross-dictionary code translation.
  std::vector<Tuple> rows = {{V("a"), V("a")},
                             {V("b"), V("c")},
                             {V("c"), V("c")},
                             {V("d"), V("a")}};
  auto seg = ColumnarSegment::Build(rows, 2);
  ASSERT_EQ(seg->column_kind(0), ColumnarSegment::ColumnKind::kDict);
  PositionList pos;
  seg->ScanColCmp(0, ScanOp::kEq, 1, &pos);
  EXPECT_EQ(pos, (PositionList{0, 2}));
  seg->ScanColCmp(0, ScanOp::kNe, 1, &pos);
  EXPECT_EQ(pos, (PositionList{1, 3}));
  // Ordered dict-dict comparison exercises the generic fallback.
  seg->ScanColCmp(0, ScanOp::kLt, 1, &pos);
  EXPECT_EQ(pos, (PositionList{1}));
}

TEST(ColumnarTest, ScanColCmpMixedKinds) {
  // Int column vs dict column: ints sort below symbols, and the dict
  // column here also holds an int to keep the comparison honest.
  std::vector<Tuple> rows = {{V(1), V("x")}, {V(5), V(5)}, {V(9), V(2)}};
  auto seg = ColumnarSegment::Build(rows, 2);
  ASSERT_EQ(seg->column_kind(0), ColumnarSegment::ColumnKind::kInt64);
  ASSERT_EQ(seg->column_kind(1), ColumnarSegment::ColumnKind::kDict);
  PositionList pos;
  seg->ScanColCmp(0, ScanOp::kLt, 1, &pos);
  EXPECT_EQ(pos, (PositionList{0}));
  seg->ScanColCmp(0, ScanOp::kEq, 1, &pos);
  EXPECT_EQ(pos, (PositionList{1}));
  seg->ScanColCmp(0, ScanOp::kGt, 1, &pos);
  EXPECT_EQ(pos, (PositionList{2}));
}

TEST(ColumnarTest, JoinTablePostingsPreserveRowOrder) {
  std::vector<Tuple> build_rows = {{V(3)}, {V(5)}, {V(3)}, {V(7)}};
  auto build = ColumnarSegment::Build(build_rows, 1);
  ColumnarJoinTable table(*build, 0);
  std::vector<Tuple> probe_rows = {{V(5)}, {V(4)}, {V(3)}};
  auto probe = ColumnarSegment::Build(probe_rows, 1);
  std::vector<int32_t> ids;
  table.TranslateProbeColumn(*probe, 0, &ids);
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_GE(ids[0], 0);
  EXPECT_EQ(ids[1], -1);
  EXPECT_GE(ids[2], 0);
  EXPECT_EQ(table.Posting(ids[0]), (PositionList{1}));
  EXPECT_EQ(table.Posting(ids[2]), (PositionList{0, 2}));
}

TEST(ColumnarTest, JoinTableDictBuildIntProbe) {
  // Build side dictionary-coded (mixed values), probe side raw ints: the
  // translation must find the dictionary's integer entries and miss its
  // symbols.
  std::vector<Tuple> build_rows = {{V("a")}, {V(3)}, {V("a")}, {V(3)}};
  auto build = ColumnarSegment::Build(build_rows, 1);
  ASSERT_EQ(build->column_kind(0), ColumnarSegment::ColumnKind::kDict);
  ColumnarJoinTable table(*build, 0);
  std::vector<Tuple> probe_rows = {{V(3)}, {V(4)}};
  auto probe = ColumnarSegment::Build(probe_rows, 1);
  std::vector<int32_t> ids;
  table.TranslateProbeColumn(*probe, 0, &ids);
  ASSERT_GE(ids[0], 0);
  EXPECT_EQ(ids[1], -1);
  EXPECT_EQ(table.Posting(ids[0]), (PositionList{1, 3}));
}

TEST(ColumnarTest, JoinTableIntBuildDictProbe) {
  std::vector<Tuple> build_rows = {{V(1)}, {V(2)}, {V(1)}};
  auto build = ColumnarSegment::Build(build_rows, 1);
  ColumnarJoinTable table(*build, 0);
  std::vector<Tuple> probe_rows = {{V(2)}, {V("two")}, {V(1)}};
  auto probe = ColumnarSegment::Build(probe_rows, 1);
  ASSERT_EQ(probe->column_kind(0), ColumnarSegment::ColumnKind::kDict);
  std::vector<int32_t> ids;
  table.TranslateProbeColumn(*probe, 0, &ids);
  ASSERT_GE(ids[0], 0);
  EXPECT_EQ(ids[1], -1);
  ASSERT_GE(ids[2], 0);
  EXPECT_EQ(table.Posting(ids[0]), (PositionList{1}));
  EXPECT_EQ(table.Posting(ids[2]), (PositionList{0, 2}));
}

TEST(ColumnarTest, RandomizedKernelsMatchRowOracle) {
  Rng rng(2026);
  for (int round = 0; round < 20; ++round) {
    // Mixed 3-column rows over small domains so every op hits and misses.
    std::vector<Tuple> rows;
    size_t n = 1 + rng.Below(40);
    const char* syms[] = {"a", "b", "c"};
    for (size_t i = 0; i < n; ++i) {
      Tuple t;
      t.push_back(V(static_cast<int64_t>(rng.Below(6))));
      t.push_back(rng.Chance(1, 2) ? V(syms[rng.Below(3)])
                                   : V(static_cast<int64_t>(rng.Below(6))));
      t.push_back(V(static_cast<int64_t>(rng.Below(6))));
      rows.push_back(std::move(t));
    }
    auto seg = ColumnarSegment::Build(rows, 3);
    for (ScanOp op : {ScanOp::kLt, ScanOp::kLe, ScanOp::kGt, ScanOp::kGe,
                      ScanOp::kEq, ScanOp::kNe}) {
      for (size_t col = 0; col < 3; ++col) {
        Value v = rng.Chance(1, 2) ? V(static_cast<int64_t>(rng.Below(7)))
                                   : V(syms[rng.Below(3)]);
        PositionList pos;
        seg->ScanCmp(col, op, v, &pos);
        EXPECT_EQ(pos, RowScan(rows, col, op, v));
      }
      // Column-column over every pair.
      for (size_t a = 0; a < 3; ++a) {
        for (size_t b = 0; b < 3; ++b) {
          PositionList pos;
          seg->ScanColCmp(a, op, b, &pos);
          PositionList expect;
          for (uint32_t i = 0; i < rows.size(); ++i) {
            const Value& x = rows[i][a];
            const Value& y = rows[i][b];
            bool hit = false;
            switch (op) {
              case ScanOp::kLt: hit = x < y; break;
              case ScanOp::kLe: hit = x <= y; break;
              case ScanOp::kGt: hit = x > y; break;
              case ScanOp::kGe: hit = x >= y; break;
              case ScanOp::kEq: hit = x == y; break;
              case ScanOp::kNe: hit = x != y; break;
            }
            if (hit) expect.push_back(i);
          }
          EXPECT_EQ(pos, expect);
        }
      }
    }
  }
}

// ---- Relation lifecycle ---------------------------------------------------

TEST(ColumnarTest, FreezeBuildsSegmentAndMutationDropsIt) {
  ColumnarToggle toggle(true);
  Relation rel(2);
  rel.Insert({V(1), V(2)});
  EXPECT_EQ(rel.columnar_segment(), nullptr) << "no segment before freeze";
  rel.FreezeIndexes();
  auto seg = rel.columnar_segment();
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->size(), 1u);

  // A holder's snapshot survives the mutation; the relation's does not.
  // The write builds nothing: the next read rebuilds over the new
  // contents, once, and a re-freeze of a frozen relation builds nothing.
  const uint64_t builds = Relation::DebugSegmentBuildCount();
  rel.Insert({V(3), V(4)});
  rel.FreezeIndexes();
  EXPECT_EQ(Relation::DebugSegmentBuildCount(), builds);
  EXPECT_EQ(seg->size(), 1u);
  auto seg2 = rel.columnar_segment();
  ASSERT_NE(seg2, nullptr);
  EXPECT_NE(seg2, seg);
  EXPECT_EQ(seg2->size(), 2u);
  EXPECT_EQ(rel.columnar_segment(), seg2);
  EXPECT_EQ(Relation::DebugSegmentBuildCount(), builds + 1);

  rel.Erase({V(1), V(2)});
  auto seg3 = rel.columnar_segment();
  ASSERT_NE(seg3, nullptr);
  EXPECT_NE(seg3, seg2);
  EXPECT_EQ(seg3->size(), 1u);
  EXPECT_EQ(seg3->GatherRow(0), (Tuple{V(3), V(4)}));
  rel.Clear();
  auto seg4 = rel.columnar_segment();
  ASSERT_NE(seg4, nullptr);
  EXPECT_EQ(seg4->size(), 0u);
  EXPECT_EQ(Relation::DebugSegmentBuildCount(), builds + 3);
}

TEST(ColumnarTest, MoveCarriesSegmentCopyDropsIt) {
  ColumnarToggle toggle(true);
  Relation rel(1);
  rel.Insert({V(1)});
  rel.FreezeIndexes();
  ASSERT_NE(rel.columnar_segment(), nullptr);

  Relation copied = rel;  // a copy rebuilds caches lazily, like indexes
  EXPECT_EQ(copied.columnar_segment(), nullptr);
  ASSERT_NE(rel.columnar_segment(), nullptr);

  Relation moved = std::move(rel);
  EXPECT_NE(moved.columnar_segment(), nullptr);
}

TEST(ColumnarTest, DisabledTogglePreventsSegmentBuild) {
  ColumnarToggle toggle(false);
  Relation rel(1);
  rel.Insert({V(1)});
  rel.FreezeIndexes();
  EXPECT_EQ(rel.columnar_segment(), nullptr);
}

TEST(ColumnarTest, EmptyRelationFreezesToEmptySegment) {
  ColumnarToggle toggle(true);
  Relation rel(3);
  rel.FreezeIndexes();
  auto seg = rel.columnar_segment();
  ASSERT_NE(seg, nullptr);
  EXPECT_EQ(seg->size(), 0u);
  EXPECT_EQ(seg->arity(), 3u);
  PositionList pos;
  seg->ScanCmp(1, ScanOp::kNe, V(0), &pos);
  EXPECT_TRUE(pos.empty());
}

}  // namespace
}  // namespace ccpi
