// MVCC snapshot semantics of the copy-on-write Database: a copy is an
// immutable snapshot (O(#predicates) to take, no tuples copied), mutations
// of either handle never leak into the other, and the content-version
// stamps name relation contents across handles — equal versions imply
// equal contents. These are the invariants the pipelined episode scheduler
// leans on when its speculations probe admission snapshots and stage
// batches at their versions while commits mutate the live database.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "relational/database.h"

namespace ccpi {
namespace {

TEST(MvccSnapshotTest, CopyIsIsolatedFromLaterWrites) {
  Database live;
  ASSERT_TRUE(live.Insert("p", {V(1), V(2)}).ok());
  ASSERT_TRUE(live.Insert("q", {V("a")}).ok());

  Database snap = live;  // the snapshot: shares every relation
  ASSERT_TRUE(live.Insert("p", {V(3), V(4)}).ok());
  ASSERT_TRUE(live.Erase("q", {V("a")}).ok());
  ASSERT_TRUE(live.Insert("r", {V(9)}).ok());

  // The snapshot still sees exactly the admission-time state.
  EXPECT_TRUE(snap.Contains("p", {V(1), V(2)}));
  EXPECT_FALSE(snap.Contains("p", {V(3), V(4)}));
  EXPECT_TRUE(snap.Contains("q", {V("a")}));
  EXPECT_FALSE(snap.Has("r"));
  // The live side sees all three writes.
  EXPECT_TRUE(live.Contains("p", {V(3), V(4)}));
  EXPECT_FALSE(live.Contains("q", {V("a")}));
  EXPECT_TRUE(live.Contains("r", {V(9)}));
}

TEST(MvccSnapshotTest, SnapshotWritesDoNotLeakIntoTheOriginal) {
  // COW cuts both ways: a scratch copy can be mutated freely (the
  // manager's tentative-apply scratch databases do this) without the
  // original observing anything.
  Database live;
  ASSERT_TRUE(live.Insert("p", {V(1)}).ok());
  Database scratch = live;
  ASSERT_TRUE(scratch.Insert("p", {V(2)}).ok());
  ASSERT_TRUE(scratch.Erase("p", {V(1)}).ok());
  EXPECT_TRUE(live.Contains("p", {V(1)}));
  EXPECT_FALSE(live.Contains("p", {V(2)}));
  EXPECT_EQ(live.TotalTuples(), 1u);
  EXPECT_EQ(scratch.TotalTuples(), 1u);
}

TEST(MvccSnapshotTest, SnapshotPinsContentVersions) {
  Database live;
  ASSERT_TRUE(live.Insert("p", {V(1)}).ok());
  uint64_t v_at_copy = live.Get("p", 1).version();
  Database snap = live;

  // An untouched predicate keeps sharing the same object (same address,
  // same version) — the copy really is O(#predicates).
  EXPECT_EQ(&snap.Get("p", 1), &live.Get("p", 1));

  ASSERT_TRUE(live.Insert("p", {V(2)}).ok());
  // The mutation cloned: the snapshot keeps the old object and version,
  // the live side moved to a new version.
  EXPECT_EQ(snap.Get("p", 1).version(), v_at_copy);
  EXPECT_NE(live.Get("p", 1).version(), v_at_copy);
  EXPECT_NE(&snap.Get("p", 1), &live.Get("p", 1));
}

TEST(MvccSnapshotTest, GetMutableClonesSharedRelations) {
  Database live;
  ASSERT_TRUE(live.Insert("p", {V(1)}).ok());
  Database snap = live;
  Relation* mut = live.GetMutable("p", 1);
  ASSERT_NE(mut, nullptr);
  // The mutable slot was cloned out of the shared state up front: even
  // before any write, the handles no longer alias.
  EXPECT_NE(mut, &snap.Get("p", 1));
  EXPECT_TRUE(snap.Contains("p", {V(1)}));
}

TEST(MvccSnapshotTest, ChainedSnapshotsEachPinTheirOwnState) {
  Database live;
  std::vector<Database> snaps;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(live.Insert("p", {V(i)}).ok());
    snaps.push_back(live);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snaps[i].Get("p", 1).size(), static_cast<size_t>(i + 1))
        << "snapshot " << i;
  }
}

TEST(MvccSnapshotTest, SnapshotKeepsItsPostingsThroughWrites) {
  // Writes edit a relation's indexes in place, so they must never reach a
  // relation a snapshot still shares: the first write clones it (keeping
  // the clone's indexes, so the writes build none), and the snapshot keeps
  // the old object with its old rows and postings.
  Database live;
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(live.Insert("p", {V(i % 5), V(i)}).ok());
  }
  live.FreezeIndexes();
  Database snap = live;
  const Relation& pinned = snap.Get("p", 2);
  const std::vector<size_t> posting = pinned.Probe(0, V(1));
  const std::vector<Tuple> rows = pinned.rows();

  const uint64_t builds = Relation::DebugIndexBuildCount();
  constexpr int64_t kWrites = 20;
  for (int64_t i = 0; i < kWrites; ++i) {
    ASSERT_TRUE(live.Insert("p", {V(1), V(100 + i)}).ok());
    ASSERT_TRUE(live.Erase("p", {V(i % 5), V(i)}).ok());
  }
  EXPECT_EQ(Relation::DebugIndexBuildCount(), builds);

  EXPECT_EQ(&snap.Get("p", 2), &pinned);
  EXPECT_EQ(pinned.size(), 50u);
  EXPECT_EQ(pinned.Probe(0, V(1)), posting);
  EXPECT_EQ(pinned.rows(), rows);

  // The live side's maintained index answers for the new contents.
  const Relation& now = live.Get("p", 2);
  EXPECT_EQ(now.size(), 50u);
  EXPECT_EQ(now.Probe(0, V(1)).size(), 10u + kWrites - kWrites / 5);
  for (size_t row : now.Probe(0, V(1))) EXPECT_EQ(now.rows()[row][0], V(1));
}

TEST(MvccSnapshotTest, ConcurrentSnapshotReadsDuringLiveWrites) {
  // The scheduler's exact access pattern: reader threads scan their own
  // snapshot handles while the committing thread keeps writing the live
  // database. Run under TSan this doubles as a race check.
  Database live;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(live.Insert("p", {V(i), V(i + 1)}).ok());
  }
  Database snap = live;
  const size_t expected = snap.TotalTuples();
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&snap, expected]() {
      for (int round = 0; round < 50; ++round) {
        EXPECT_EQ(snap.TotalTuples(), expected);
        EXPECT_TRUE(snap.Contains("p", {V(0), V(1)}));
        EXPECT_FALSE(snap.Contains("p", {V(-1), V(0)}));
      }
    });
  }
  for (int i = 64; i < 256; ++i) {
    ASSERT_TRUE(live.Insert("p", {V(i), V(i + 1)}).ok());
    ASSERT_TRUE(live.Erase("p", {V(i - 64), V(i - 63)}).ok());
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(snap.TotalTuples(), expected);
  EXPECT_EQ(live.TotalTuples(), expected);
}

}  // namespace
}  // namespace ccpi
