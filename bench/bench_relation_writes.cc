// Writes cost O(delta): the relational half of one update episode — apply a
// write to a frozen relation, then re-freeze it for the read phase — over
// |R| from 10^2 to 10^5. Insert and Erase keep the built column indexes
// current and FreezeIndexes on an already frozen relation builds nothing.
// So the per-update time should stay flat in |R|, and the index_builds
// counter must be 0 at every size (tools/check_bench_json.py enforces the
// count).

#include <benchmark/benchmark.h>

#include "bench_harness.h"

#include <cstdio>

#include "relational/relation.h"

namespace ccpi {
namespace {

/// Row `id` of the benchmark relation: a unique key, a 16-row group (the
/// shape of a keyed local relation) and a 64-value low-cardinality column,
/// whose postings grow with |R|.
Tuple Row(int64_t id) { return {V(id), V(id / 16), V(id % 64)}; }

/// A frozen relation holding rows [0, n).
Relation MakeFrozen(int64_t n) {
  Relation rel(3);
  for (int64_t id = 0; id < n; ++id) rel.Insert(Row(id));
  rel.FreezeIndexes();
  return rel;
}

/// One update: insert the next row, erase the oldest live one (|R| stays
/// n), re-freeze.
void WriteThenFreeze(Relation* rel, int64_t n, int64_t* next) {
  rel->Insert(Row(*next));
  rel->Erase(Row(*next - n));
  ++*next;
  rel->FreezeIndexes();
}

void PrintBuildsPerUpdate() {
  std::printf("=== Write then freeze on a frozen 3-column relation ===\n");
  std::printf("%8s  %14s\n", "|R|", "index builds");
  constexpr int64_t kUpdates = 100;
  for (int64_t n : {100, 1000, 10000, 100000}) {
    Relation rel = MakeFrozen(n);
    int64_t next = n;
    const uint64_t index0 = Relation::DebugIndexBuildCount();
    for (int64_t i = 0; i < kUpdates; ++i) WriteThenFreeze(&rel, n, &next);
    std::printf("%8lld  %14llu   (over %lld updates)\n",
                static_cast<long long>(n),
                static_cast<unsigned long long>(
                    Relation::DebugIndexBuildCount() - index0),
                static_cast<long long>(kUpdates));
  }
  std::printf("\n");
}

void BM_WriteThenFreeze(benchmark::State& state) {
  const int64_t n = state.range(0);
  Relation rel = MakeFrozen(n);
  int64_t next = n;
  const uint64_t index0 = Relation::DebugIndexBuildCount();
  for (auto _ : state) WriteThenFreeze(&rel, n, &next);
  const double updates = static_cast<double>(state.iterations());
  state.counters["|R|"] = static_cast<double>(n);
  state.counters["index_builds"] =
      static_cast<double>(Relation::DebugIndexBuildCount() - index0) /
      updates;
}
BENCHMARK(BM_WriteThenFreeze)->RangeMultiplier(10)->Range(100, 100000);

}  // namespace
}  // namespace ccpi

int main(int argc, char** argv) {
  ccpi::PrintBuildsPerUpdate();
  ccpi::bench::Harness harness("relation_writes");
  return harness.RunAndWrite(argc, argv);
}
