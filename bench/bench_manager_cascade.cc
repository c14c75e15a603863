// Experiment APP-CASCADE: the end-to-end constraint manager running the
// paper's tiered discipline over a mixed update stream — subsumption at
// registration, query-independence, complete local tests, full checks.
// Prints the tier-resolution table and the remote-access savings against a
// check-everything-remotely baseline, then benchmarks per-update latency
// for streams dominated by each tier.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_harness.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "manager/constraint_manager.h"
#include "util/check.h"
#include "util/rng.h"

namespace ccpi {
namespace {

std::unique_ptr<ConstraintManager> MakeManager() {
  auto mgr = std::make_unique<ConstraintManager>(
      ManagerConfig{.local_preds = {"reserved", "emp"}});
  CCPI_CHECK(mgr->AddConstraint(
                    "no-reserved-order",
                    *ParseProgram("panic :- reserved(P,Lo,Hi) & order(P,Q) & "
                                  "Lo <= Q & Q <= Hi"))
                 .ok());
  CCPI_CHECK(
      mgr->AddConstraint("cap-200",
                         *ParseProgram("panic :- emp(E,D,S) & S > 200"))
          .ok());
  CCPI_CHECK(
      mgr->AddConstraint("cap-500",  // redundant given cap-200
                         *ParseProgram("panic :- emp(E,D,S) & S > 500"))
          .ok());
  return mgr;
}

std::vector<Update> MakeStream(size_t count, Rng* rng) {
  std::vector<Update> stream;
  for (size_t i = 0; i < count; ++i) {
    switch (rng->Below(4)) {
      case 0:  // hire below the cap: independence resolves it
        stream.push_back(Update::Insert(
            "emp", {V(static_cast<int64_t>(i)), V(rng->Range(0, 5)),
                    V(rng->Range(0, 200))}));
        break;
      case 1: {  // sub-range reservation: local test resolves it
        int64_t lo = rng->Range(0, 300);
        stream.push_back(Update::Insert(
            "reserved", {V("p" + std::to_string(rng->Below(3))), V(lo),
                         V(lo + rng->Range(0, 50))}));
        break;
      }
      case 2:  // unrelated relation: prefilter resolves it
        stream.push_back(
            Update::Insert("audit_log", {V(static_cast<int64_t>(i))}));
        break;
      default: {  // risky reservation: full check
        int64_t lo = rng->Range(350, 900);
        stream.push_back(Update::Insert(
            "reserved", {V("p" + std::to_string(rng->Below(3))), V(lo),
                         V(lo + rng->Range(0, 50))}));
        break;
      }
    }
  }
  return stream;
}

void Seed(ConstraintManager* mgr) {
  // Remote orders in the high band; wide safe reservations per product.
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    CCPI_CHECK(mgr->site()
                   .db()
                   .Insert("order", {V("p" + std::to_string(rng.Below(3))),
                                     V(rng.Range(500, 1000))})
                   .ok());
  }
  for (int p = 0; p < 3; ++p) {
    CCPI_CHECK(
        mgr->ApplyUpdate(Update::Insert(
                             "reserved",
                             {V("p" + std::to_string(p)), V(0), V(400)}))
            .ok());
  }
}

void PrintCascadeTable(bench::Harness* harness) {
  auto mgr = MakeManager();
  Seed(mgr.get());
  Rng rng(99);
  std::vector<Update> stream = MakeStream(200, &rng);
  size_t rejected = 0;
  for (const Update& u : stream) {
    auto reports = mgr->ApplyUpdate(u);
    CCPI_CHECK(reports.ok());
    for (const CheckReport& r : *reports) {
      if (r.outcome == Outcome::kViolated) {
        ++rejected;
        break;
      }
    }
  }
  std::printf("=== APP-CASCADE: 200 mixed updates through the 4 tiers ===\n");
  std::printf("%-16s %s\n", "tier", "constraint-checks resolved");
  size_t total = 0;
  for (const auto& [tier, count] : mgr->stats().resolved_by) {
    std::printf("%-16s %zu\n", TierToString(tier), count);
    total += count;
    harness->Sweep(std::string("cascade/tier=") + TierToString(tier),
                   {{"checks_resolved", static_cast<double>(count)}});
  }
  const ManagerStats& stats = mgr->stats();
  const AccessStats& access = stats.access;
  std::printf("updates rejected: %zu of %zu\n", rejected, stream.size());
  std::printf("access: %zu local tuples; %zu remote tuples in %zu trips "
              "(%zu failed)\n",
              access.local_tuples, access.remote_tuples, access.remote_trips,
              access.remote_failures);
  std::printf("remote episodes: %zu attempts, %zu retries, %zu failed; "
              "deferred %zu (recovered %zu, late violations %zu)\n",
              stats.remote_attempts, stats.remote_retries,
              stats.remote_failures, stats.deferred,
              stats.deferred_recovered, stats.deferred_violations);
  std::printf("cost %.1f vs a naive baseline that pays a full remote check "
              "for all %zu constraint-checks\n\n",
              access.Cost(CostModel{}), total);
  harness->Sweep(
      "cascade/stream",
      {{"updates", static_cast<double>(stream.size())},
       {"rejected", static_cast<double>(rejected)},
       {"checks_resolved", static_cast<double>(total)},
       {"local_tuples", static_cast<double>(access.local_tuples)},
       {"remote_tuples", static_cast<double>(access.remote_tuples)},
       {"remote_trips", static_cast<double>(access.remote_trips)},
       {"cost", access.Cost(CostModel{})}});
}

void BM_IndependenceDominatedStream(benchmark::State& state) {
  auto mgr = MakeManager();
  Seed(mgr.get());
  Rng rng(3);
  int64_t i = 0;
  for (auto _ : state) {
    auto reports = mgr->ApplyUpdate(Update::Insert(
        "emp", {V(i++), V(rng.Range(0, 5)), V(rng.Range(0, 200))}));
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
  }
  state.counters["remote_trips"] =
      static_cast<double>(mgr->site().stats().remote_trips);
}
BENCHMARK(BM_IndependenceDominatedStream);

void BM_LocalTestDominatedStream(benchmark::State& state) {
  auto mgr = MakeManager();
  Seed(mgr.get());
  Rng rng(3);
  for (auto _ : state) {
    int64_t lo = rng.Range(0, 300);
    auto reports = mgr->ApplyUpdate(Update::Insert(
        "reserved",
        {V("p" + std::to_string(rng.Below(3))), V(lo), V(lo + 20)}));
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
  }
  state.counters["remote_trips"] =
      static_cast<double>(mgr->site().stats().remote_trips);
}
BENCHMARK(BM_LocalTestDominatedStream);

void BM_FullCheckDominatedStream(benchmark::State& state) {
  auto mgr = MakeManager();
  Seed(mgr.get());
  Rng rng(3);
  for (auto _ : state) {
    int64_t lo = rng.Range(350, 900);
    auto reports = mgr->ApplyUpdate(Update::Insert(
        "reserved",
        {V("p" + std::to_string(rng.Below(3))), V(lo), V(lo + 20)}));
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
  }
  state.counters["remote_trips"] =
      static_cast<double>(mgr->site().stats().remote_trips);
}
BENCHMARK(BM_FullCheckDominatedStream);

}  // namespace
}  // namespace ccpi

int main(int argc, char** argv) {
  ccpi::bench::Harness harness("manager_cascade");
  ccpi::PrintCascadeTable(&harness);
  return harness.RunAndWrite(argc, argv);
}
