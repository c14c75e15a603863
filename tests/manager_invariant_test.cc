// Whole-system invariants of the ConstraintManager that are not verdict
// diffs: transactions leave no residue and keep every constraint holding,
// and execution budgets balance their accounting and bound an episode's
// wall clock. The per-update soundness check against full evaluation
// lives in the config-lattice harness (config_lattice_test.cc), which
// runs it on every configuration class.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "datalog/parser.h"
#include "eval/engine.h"
#include "manager/constraint_manager.h"
#include "util/rng.h"

namespace ccpi {
namespace {

Program MustParse(const std::string& text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

TEST(ManagerInvariantTransactions, AtomicityUnderRandomBatches) {
  Rng rng(99);
  ConstraintManager mgr({.local_preds = {"l"}});
  ASSERT_TRUE(mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y"))
                  .ok());
  ASSERT_TRUE(
      mgr.AddConstraint(
             "fi", MustParse("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
          .ok());
  ASSERT_TRUE(mgr.site().db().Insert("r", {V(7)}).ok());

  for (int round = 0; round < 30; ++round) {
    Database before = mgr.site().db();
    std::vector<Update> batch;
    size_t len = 1 + rng.Below(4);
    for (size_t i = 0; i < len; ++i) {
      Tuple t = {V(rng.Range(0, 9)), V(rng.Range(0, 9))};
      batch.push_back(rng.Chance(3, 4) ? Update::Insert("l", t)
                                       : Update::Delete("l", t));
    }
    auto result = mgr.ApplyTransaction(batch);
    ASSERT_TRUE(result.ok());
    if (!result->committed) {
      EXPECT_EQ(mgr.site().db().ToString(), before.ToString())
          << "rollback left residue";
    }
    // Constraints hold either way.
    auto v1 = IsViolated(MustParse("panic :- l(X,Y) & X > Y"),
                         mgr.site().db());
    ASSERT_TRUE(v1.ok());
    EXPECT_FALSE(*v1);
  }
}

// ---- Execution budgets: the overload-control invariants ------------------
//
// The budget envelope's two acceptance properties, checked directly:
//
//  1. Accounting balances exactly: every tier-3 check admitted to the
//     resolution loop is accounted for as completed, deferred, or shed —
//     nothing vanishes, nothing is counted twice.
//  2. A tight per-episode deadline actually bounds ApplyUpdate's wall
//     clock: each episode returns within 2x the deadline (the slack covers
//     one checkpoint interval — the engine only notices expiry at the next
//     fixpoint-round / rule-batch / enumeration checkpoint).
//
// (Suite names deliberately avoid the TSan job's -R filter: these assert
// wall-clock bounds, meaningless under a 10x sanitizer slowdown. The
// thread-interleaving half of budgeting is covered by the
// config-lattice harness's budget classes, which do run under TSan.)

/// A manager with one cheap and one expensive tier-3 constraint: "fi"
/// joins the local interval table with a single remote tuple; "deep" walks
/// the transitive closure of a `chain`-edge remote chain.
std::unique_ptr<ConstraintManager> HeavyRig(size_t chain, BudgetConfig budget,
                                            ResilienceConfig resilience = {}) {
  auto mgr = std::make_unique<ConstraintManager>(
      ManagerConfig{.local_preds = {"l", "lq"},
                    .resilience = resilience,
                    .budget = budget});
  EXPECT_TRUE(
      mgr->AddConstraint(
             "fi", MustParse("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
          .ok());
  EXPECT_TRUE(mgr->AddConstraint(
                     "deep",
                     MustParse("panic :- lq(X) & path(X,Y) & bad(Y)\n"
                               "path(X,Y) :- edge(X,Y)\n"
                               "path(X,Y) :- edge(X,Z) & path(Z,Y)"))
                  .ok());
  EXPECT_TRUE(mgr->site().db().Insert("r", {V(1000)}).ok());
  for (size_t i = 0; i < chain; ++i) {
    EXPECT_TRUE(mgr->site()
                    .db()
                    .Insert("edge", {V(static_cast<int64_t>(i)),
                                     V(static_cast<int64_t>(i + 1))})
                    .ok());
  }
  return mgr;
}

size_t CompletedAtT3(const ManagerStats& stats) {
  auto it = stats.resolved_by.find(Tier::kFullCheck);
  return it != stats.resolved_by.end() ? it->second : 0;
}

TEST(BudgetAccounting, AdmittedEqualsCompletedPlusDeferredPlusShed) {
  // Deterministic shedding (no wall clock): four fixpoint rounds never
  // close a 64-edge chain, while the nonrecursive "fi" check finishes well
  // inside them — so the stream mixes completed and shed tier-3 checks and
  // the ledger must balance exactly, not merely approximately.
  BudgetConfig budget;
  budget.per_check.max_fixpoint_rounds = 4;
  auto mgr = HeavyRig(64, budget);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(mgr->ApplyUpdate(Update::Insert("lq", {V(i)})).ok());
    ASSERT_TRUE(
        mgr->ApplyUpdate(Update::Insert("l", {V(10 * i), V(10 * i + 3)}))
            .ok());
  }
  ManagerStats stats = mgr->stats();
  EXPECT_GT(stats.shed_checks, 0u);      // the cap actually bit
  EXPECT_GT(CompletedAtT3(stats), 0u);   // and didn't bite everything
  EXPECT_EQ(stats.deferred, 0u);         // no injector: nothing unreachable
  EXPECT_EQ(stats.t3_admitted,
            CompletedAtT3(stats) + stats.deferred + stats.shed_checks);
  // Every shed check is sitting in the queue awaiting a future budget.
  EXPECT_EQ(mgr->deferred_queue().size(), stats.shed_checks);
}

TEST(BudgetEnvelope, TightDeadlineBoundsEpisodeWallClock) {
  // An unbudgeted "deep" check on a 768-edge chain takes high hundreds of
  // milliseconds; under a 250ms per-episode deadline every ApplyUpdate —
  // including the ones that also drain prior sheds inside the same
  // envelope — must return within 2x the deadline.
  BudgetConfig budget;
  budget.episode_deadline_ms = 250;
  auto mgr = HeavyRig(768, budget);
  for (int i = 0; i < 4; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    auto reports = mgr->ApplyUpdate(Update::Insert("lq", {V(i)}));
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    EXPECT_LT(elapsed, 500) << "episode " << i << " overran 2x its deadline";
  }
  ManagerStats stats = mgr->stats();
  EXPECT_GT(stats.shed_checks, 0u);
  EXPECT_EQ(stats.t3_admitted,
            CompletedAtT3(stats) + stats.deferred + stats.shed_checks);
}

}  // namespace
}  // namespace ccpi
