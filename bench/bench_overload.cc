// Experiment OVERLOAD: execution budgets keep check latency bounded under
// offered load. A recursive reachability constraint over a remote edge
// chain makes every tier-3 check cost O(chain^2) derived tuples; the chain
// grows with the offered load, so an unbudgeted manager's per-update
// latency degrades with load while a deadlined manager sheds the checks it
// cannot afford and its p99 stays near the deadline. The sweep crosses
// offered load (number of tier-3 updates, with a proportionally longer
// chain) with the per-episode deadline (0 = unbudgeted baseline),
// reporting admitted/completed/shed counts, goodput, shed rate, and
// p50/p99 per-update latency.
//
// Wall-clock latencies vary by machine, so the hard assertions below stick
// to the deterministic facts: the budget accounting balances exactly
// (admitted == completed + shed) in every row, the unbudgeted rows shed
// nothing, and the deterministic fixpoint-round-capped row sheds
// everything.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_harness.h"
#include "datalog/parser.h"
#include "manager/constraint_manager.h"
#include "util/check.h"

namespace ccpi {
namespace {

std::unique_ptr<ConstraintManager> MakeManager(size_t chain,
                                               BudgetConfig budget,
                                               ResilienceConfig resilience = {}) {
  auto mgr = std::make_unique<ConstraintManager>(
      ManagerConfig{.local_preds = {"request"},
                    .resilience = resilience,
                    .budget = budget});
  CCPI_CHECK(mgr->AddConstraint(
                    "no-path-to-blocked",
                    *ParseProgram("path(X,Y) :- edge(X,Y)\n"
                                  "path(X,Y) :- edge(X,Z) & path(Z,Y)\n"
                                  "panic :- request(U,N) & path(N,M) & "
                                  "blocked(M)"))
                 .ok());
  // Remote chain 0 -> 1 -> ... -> chain; nothing blocked, so every check
  // holds — after computing the whole transitive closure.
  for (size_t i = 0; i < chain; ++i) {
    CCPI_CHECK(mgr->site()
                   .db()
                   .Insert("edge", {V(static_cast<int64_t>(i)),
                                    V(static_cast<int64_t>(i + 1))})
                   .ok());
  }
  CCPI_CHECK(mgr->site().db().Insert("blocked", {V("nowhere")}).ok());
  return mgr;
}

struct OverloadRow {
  std::string name;
  size_t load = 0;
  uint64_t deadline_ms = 0;
  size_t admitted = 0;
  size_t completed = 0;
  size_t shed = 0;
  double elapsed_sec = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};

OverloadRow RunOverload(std::string name, size_t load, BudgetConfig budget,
                        ResilienceConfig resilience = {}) {
  // Chain length scales with offered load: more load means each check is
  // also individually more expensive, the overload regime of interest.
  auto mgr = MakeManager(16 * load, budget, resilience);
  std::vector<double> latencies_ns;
  latencies_ns.reserve(load);
  auto begin = std::chrono::steady_clock::now();
  for (size_t i = 0; i < load; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto reports = mgr->ApplyUpdate(
        Update::Insert("request", {V(static_cast<int64_t>(i)), V(0)}));
    auto t1 = std::chrono::steady_clock::now();
    CCPI_CHECK(reports.ok());
    latencies_ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
  }
  auto end = std::chrono::steady_clock::now();

  const ManagerStats stats = mgr->stats();
  OverloadRow row;
  row.name = std::move(name);
  row.load = load;
  row.deadline_ms = budget.episode_deadline_ms;
  row.admitted = stats.t3_admitted;
  auto it = stats.resolved_by.find(Tier::kFullCheck);
  row.completed = it != stats.resolved_by.end() ? it->second : 0;
  row.shed = stats.shed_checks;
  row.elapsed_sec =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - begin)
          .count();
  std::sort(latencies_ns.begin(), latencies_ns.end());
  row.p50_ns = latencies_ns[latencies_ns.size() / 2];
  row.p99_ns = latencies_ns[(latencies_ns.size() * 99) / 100];

  // The accounting invariant, exact in every configuration: every admitted
  // tier-3 check either completed or was shed (no injector, so there are
  // no unreachable-site deferrals here).
  CCPI_CHECK(row.admitted == row.completed + row.shed);
  CCPI_CHECK(stats.deferred == 0);
  return row;
}

void PrintOverloadTable(bench::Harness* harness) {
  std::printf(
      "=== OVERLOAD: offered load x per-episode deadline "
      "(chain = 16 x load) ===\n");
  std::printf("%-22s %5s %9s %9s %9s %6s %11s %6s %11s %11s\n", "row", "load",
              "deadline", "admitted", "completed", "shed", "goodput/s",
              "shed%", "p50_ms", "p99_ms");
  std::vector<OverloadRow> rows;
  BudgetConfig none;
  BudgetConfig tight;
  tight.episode_deadline_ms = 2;
  for (size_t load : {8, 32}) {
    std::string suffix = "L" + std::to_string(load);
    rows.push_back(RunOverload("overload/" + suffix + "/d0", load, none));
    rows.push_back(RunOverload("overload/" + suffix + "/d2", load, tight));
  }
  // The deterministic shedding row: four fixpoint rounds can never close a
  // 512-edge chain, so every check sheds whatever the machine's speed.
  // Auto-recheck is off here to isolate the per-check cap — a round cap
  // bounds each evaluation's work but not the drain's retry count, so the
  // re-attempt cost belongs to the deadline rows, where the episode
  // envelope bounds it.
  BudgetConfig rounds;
  rounds.per_check.max_fixpoint_rounds = 4;
  ResilienceConfig no_drain;
  no_drain.auto_recheck = false;
  rows.push_back(RunOverload("overload/L32/rounds4", 32, rounds, no_drain));

  for (const OverloadRow& r : rows) {
    double goodput =
        r.elapsed_sec > 0 ? static_cast<double>(r.completed) / r.elapsed_sec
                          : 0;
    double shed_rate =
        r.admitted > 0
            ? static_cast<double>(r.shed) / static_cast<double>(r.admitted)
            : 0;
    std::printf("%-22s %5zu %8llum %9zu %9zu %6zu %11.1f %5.0f%% "
                "%11.3f %11.3f\n",
                r.name.c_str(), r.load,
                static_cast<unsigned long long>(r.deadline_ms), r.admitted,
                r.completed, r.shed, goodput, shed_rate * 100,
                r.p50_ns / 1e6, r.p99_ns / 1e6);
    harness->Sweep(r.name,
                   {{"load", static_cast<double>(r.load)},
                    {"deadline_ms", static_cast<double>(r.deadline_ms)},
                    {"admitted", static_cast<double>(r.admitted)},
                    {"completed", static_cast<double>(r.completed)},
                    {"shed", static_cast<double>(r.shed)},
                    {"goodput_per_sec", goodput},
                    {"shed_rate", shed_rate},
                    {"p50_check_ns", r.p50_ns},
                    {"p99_check_ns", r.p99_ns}});
  }
  // Unbudgeted rows never shed; the round-capped row sheds everything.
  for (const OverloadRow& r : rows) {
    if (r.deadline_ms == 0 && r.name.find("rounds") == std::string::npos) {
      CCPI_CHECK(r.shed == 0 && r.completed == r.admitted);
    }
  }
  CCPI_CHECK(rows.back().shed == rows.back().admitted);
  std::printf("\n");
}

void BM_CheckUnbudgeted(benchmark::State& state) {
  auto mgr = MakeManager(256, BudgetConfig{});
  int64_t i = 0;
  for (auto _ : state) {
    auto reports = mgr->ApplyUpdate(Update::Insert("request", {V(i++), V(0)}));
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
  }
}
BENCHMARK(BM_CheckUnbudgeted);

void BM_CheckTightDeadline(benchmark::State& state) {
  BudgetConfig budget;
  budget.episode_deadline_ms = 1;
  auto mgr = MakeManager(256, budget);
  int64_t i = 0;
  for (auto _ : state) {
    auto reports = mgr->ApplyUpdate(Update::Insert("request", {V(i++), V(0)}));
    CCPI_CHECK(reports.ok());
    benchmark::DoNotOptimize(reports->size());
  }
  state.counters["shed"] = static_cast<double>(mgr->stats().shed_checks);
}
BENCHMARK(BM_CheckTightDeadline);

}  // namespace
}  // namespace ccpi

int main(int argc, char** argv) {
  ccpi::bench::Harness harness("overload");
  ccpi::PrintOverloadTable(&harness);
  return harness.RunAndWrite(argc, argv);
}
