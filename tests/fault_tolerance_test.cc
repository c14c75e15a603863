// Graceful degradation of the tiered constraint manager when the remote
// site fails: retries, circuit breaking, deferred verdicts with optimistic
// apply, automatic re-verification, and rollback compensation for
// late-detected violations. The acceptance property of ISSUE 1: under a
// 100% hard outage the manager never crashes or blocks — every update
// resolves at tiers 0-2 or returns kDeferred — and all deferred checks are
// correctly re-verified once the outage ends.

#include <gtest/gtest.h>

#include <cstdlib>

#include "datalog/parser.h"
#include "distsim/fault_injector.h"
#include "manager/constraint_manager.h"
#include "manager/script.h"

namespace ccpi {
namespace {

Program MustParse(const char* text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

/// CI's seed sweep (.github/workflows/ci.yml) reruns the suite with
/// CCPI_FAULT_SEED exported; only tests asserting seed-independent
/// *identities* (accounting reconciliations, never "this seed produces N
/// faults") read it, so the sweep widens coverage without flaking the
/// schedule-sensitive tests.
uint64_t FaultSeedOr(uint64_t fallback) {
  const char* env = std::getenv("CCPI_FAULT_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 10);
}

Outcome OutcomeOf(const std::vector<CheckReport>& reports,
                  const std::string& name) {
  for (const CheckReport& r : reports) {
    if (r.constraint == name) return r.outcome;
  }
  ADD_FAILURE() << "no report for " << name;
  return Outcome::kUnknown;
}

/// A manager with one cross-site constraint (local l, remote r) and an
/// attached injector owned by the fixture.
struct Rig {
  explicit Rig(ResilienceConfig resilience = {}, FaultConfig faults = {})
      : injector(faults),
        mgr({.local_preds = {"l", "emp"}, .resilience = resilience}) {
    EXPECT_TRUE(mgr.AddConstraint(
                       "fi",
                       MustParse(
                           "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
                    .ok());
    EXPECT_TRUE(mgr.AddConstraint(
                       "cap", MustParse("panic :- emp(E,D,S) & S > 200"))
                    .ok());
    mgr.site().set_site_fault_injector(0, &injector);
  }
  FaultInjector injector;
  ConstraintManager mgr;
};

TEST(FaultToleranceTest, HardOutageNeverBlocksEveryUpdateResolves) {
  Rig rig;
  rig.injector.ForceOutage(true);
  ASSERT_TRUE(rig.mgr.site().db().Insert("r", {V(1000)}).ok());

  // A mix of updates: tier-1/2-resolvable ones and ones needing T3.
  std::vector<Update> stream;
  for (int i = 0; i < 20; ++i) {
    stream.push_back(Update::Insert(
        "emp", {V(i), V("d"), V(50 + i)}));     // independence resolves
    stream.push_back(Update::Insert(
        "l", {V(10 * i), V(10 * i + 5)}));      // needs the remote r
    stream.push_back(Update::Insert(
        "audit", {V(i)}));                      // unaffected
  }
  size_t deferred = 0;
  for (const Update& u : stream) {
    auto reports = rig.mgr.ApplyUpdate(u);
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    for (const CheckReport& r : *reports) {
      // The only verdicts possible during a hard outage: proved holding
      // at T0-T2, or deferred. Never kViolated-by-guess, never kUnknown.
      EXPECT_TRUE(r.outcome == Outcome::kHolds ||
                  r.outcome == Outcome::kDeferred)
          << OutcomeToString(r.outcome) << " for " << r.constraint;
      if (r.outcome == Outcome::kDeferred) ++deferred;
    }
  }
  EXPECT_GT(deferred, 0u);
  EXPECT_EQ(rig.mgr.stats().deferred, deferred);
  EXPECT_EQ(rig.mgr.deferred_queue().size(), deferred);
  // Optimistic apply: the updates are in place pending re-check.
  EXPECT_TRUE(rig.mgr.site().db().Contains("l", {V(0), V(5)}));
  // The breaker tripped and saved most episodes the full retry cost.
  EXPECT_GT(rig.mgr.stats().breaker_fast_fails, 0u);
  EXPECT_EQ(rig.mgr.site_breaker(0).state(), CircuitState::kOpen);
}

TEST(FaultToleranceTest, DeferredChecksRecoverWhenOutageEnds) {
  Rig rig;
  rig.injector.ForceOutage(true);
  // Remote r only forbids values >= 1000; the deferred inserts are fine.
  ASSERT_TRUE(rig.mgr.site().db().Insert("r", {V(1000)}).ok());
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(1), V(5)})).ok());
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(6), V(9)})).ok());
  ASSERT_GE(rig.mgr.deferred_queue().size(), 2u);

  rig.injector.ForceOutage(false);
  // Rechecks are gated by the breaker cooldown; ApplyUpdate ticks it.
  auto resolved = rig.mgr.RecheckDeferred();
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  for (int i = 0; i < 20 && !rig.mgr.deferred_queue().empty(); ++i) {
    auto nop = rig.mgr.ApplyUpdate(Update::Insert("audit", {V(i)}));
    ASSERT_TRUE(nop.ok());
  }
  EXPECT_TRUE(rig.mgr.deferred_queue().empty());
  EXPECT_EQ(rig.mgr.stats().deferred_recovered, 2u);
  EXPECT_EQ(rig.mgr.stats().deferred_violations, 0u);
  EXPECT_TRUE(rig.mgr.site().db().Contains("l", {V(1), V(5)}));
}

TEST(FaultToleranceTest, LateViolationDetectedAndRolledBack) {
  Rig rig;
  // Remote r holds 7; inserting l(5,10) forbids it — a genuine violation
  // that T3 would have caught, hidden by the outage.
  ASSERT_TRUE(rig.mgr.site().db().Insert("r", {V(7)}).ok());
  rig.injector.ForceOutage(true);
  auto reports = rig.mgr.ApplyUpdate(Update::Insert("l", {V(5), V(10)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(OutcomeOf(*reports, "fi"), Outcome::kDeferred);
  // Optimistically applied despite the lurking violation.
  EXPECT_TRUE(rig.mgr.site().db().Contains("l", {V(5), V(10)}));

  rig.injector.ForceOutage(false);
  // Drive updates until the breaker half-opens and the recheck runs.
  for (int i = 0; i < 20 && !rig.mgr.deferred_queue().empty(); ++i) {
    ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("audit", {V(i)})).ok());
  }
  EXPECT_TRUE(rig.mgr.deferred_queue().empty());
  EXPECT_EQ(rig.mgr.stats().deferred_violations, 1u);
  // Compensation: the optimistic apply was rolled back.
  EXPECT_FALSE(rig.mgr.site().db().Contains("l", {V(5), V(10)}));
}

TEST(FaultToleranceTest, DeletingAnUnverifiedTupleDropsItsRecheck) {
  Rig rig;
  ASSERT_TRUE(rig.mgr.site().db().Insert("r", {V(1000)}).ok());
  rig.injector.ForceOutage(true);
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(1), V(5)})).ok());
  ASSERT_EQ(rig.mgr.deferred_queue().size(), 1u);
  // The deletion resolves at tier 1 (monotone constraint) and removes the
  // unverified tuple; the queued re-check is moot and must not outlive
  // the effect it was supposed to verify.
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Delete("l", {V(1), V(5)})).ok());
  EXPECT_TRUE(rig.mgr.deferred_queue().empty());
  EXPECT_FALSE(rig.mgr.site().db().Contains("l", {V(1), V(5)}));
}

TEST(FaultToleranceTest, UnverifiedTupleNeverServesAsCoverage) {
  FaultInjector injector{FaultConfig{}};
  ConstraintManager mgr({.local_preds = {"reserved"}});
  ASSERT_TRUE(mgr.AddConstraint(
                     "fi", MustParse("panic :- reserved(P,Lo,Hi) & "
                                     "order(P,Q) & Lo <= Q & Q <= Hi"))
                  .ok());
  mgr.site().set_site_fault_injector(0, &injector);
  ASSERT_TRUE(mgr.site().db().Insert("order", {V("p"), V(1000)}).ok());
  const Update wide = Update::Insert("reserved", {V("p"), V(0), V(100)});
  const Update inner = Update::Insert("reserved", {V("p"), V(10), V(20)});

  injector.ForceOutage(true);
  auto first = mgr.ApplyUpdate(wide);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(OutcomeOf(*first, "fi"), Outcome::kDeferred);
  ASSERT_TRUE(mgr.site().db().Contains("reserved", wide.tuple));
  // The optimistically applied [0,100] covers [10,20] in key p, but it is
  // unverified: the insert must wait for the remote check, not settle
  // at tier 2 on its evidence.
  auto second = mgr.ApplyUpdate(inner);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->size(), 1u);
  EXPECT_NE((*second)[0].tier, Tier::kLocalTest);
  EXPECT_EQ((*second)[0].outcome, Outcome::kDeferred);
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Delete("reserved", inner.tuple)).ok());

  injector.ForceOutage(false);
  for (int i = 0; i < 20 && !mgr.deferred_queue().empty(); ++i) {
    ASSERT_TRUE(mgr.ApplyUpdate(Update::Insert("audit", {V(i)})).ok());
  }
  ASSERT_TRUE(mgr.deferred_queue().empty());
  ASSERT_EQ(mgr.stats().deferred_recovered, 1u);
  // Re-verified, the same row now proves the same insert safe locally.
  auto third = mgr.ApplyUpdate(inner);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  ASSERT_EQ(third->size(), 1u);
  EXPECT_EQ((*third)[0].tier, Tier::kLocalTest);
  EXPECT_EQ((*third)[0].outcome, Outcome::kHolds);
}

TEST(FaultToleranceTest, PendingDeleteNeverServesAsCoverage) {
  // A row deleted under a deferred check is gone from the database. While
  // it existed it proved r(1) absent; once deleted, the remote side may
  // change (here r(1) arrives), so it proves nothing. It used to stay in
  // tier 2's view and answer kHolds for an insert that violates "join".
  FaultInjector injector{FaultConfig{}};
  ConstraintManager mgr({.local_preds = {"l"}});
  ASSERT_TRUE(
      mgr.AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y)")).ok());
  // Recursion keeps tier 1 from settling the delete, so it is deferred.
  ASSERT_TRUE(mgr.AddConstraint("reach",
                                MustParse("panic :- l(X,Y) & path(Y,X)\n"
                                          "path(X,Y) :- edge(X,Y)\n"
                                          "path(X,Y) :- edge(X,Z) & path(Z,Y)"))
                  .ok());
  mgr.site().set_site_fault_injector(0, &injector);
  ASSERT_TRUE(mgr.site().db().Insert("l", {V(5), V(1)}).ok());
  ASSERT_TRUE(mgr.site().db().Insert("edge", {V(7), V(7)}).ok());

  injector.ForceOutage(true);
  auto removed = mgr.ApplyUpdate(Update::Delete("l", {V(5), V(1)}));
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  ASSERT_EQ(OutcomeOf(*removed, "reach"), Outcome::kDeferred);
  ASSERT_FALSE(mgr.site().db().Contains("l", {V(5), V(1)}));
  ASSERT_TRUE(mgr.site().db().Insert("r", {V(1)}).ok());

  auto reports = mgr.ApplyUpdate(Update::Insert("l", {V(0), V(1)}));
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  for (const CheckReport& r : *reports) {
    if (r.constraint != "join") continue;
    EXPECT_NE(r.tier, Tier::kLocalTest);
    EXPECT_NE(r.outcome, Outcome::kHolds);
  }
}

TEST(FaultToleranceTest, RejectPolicyRefusesUnverifiableUpdates) {
  ResilienceConfig resilience;
  resilience.on_unreachable = DeferredPolicy::kReject;
  Rig rig(resilience);
  ASSERT_TRUE(rig.mgr.site().db().Insert("r", {V(1000)}).ok());
  rig.injector.ForceOutage(true);
  auto reports = rig.mgr.ApplyUpdate(Update::Insert("l", {V(5), V(10)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(OutcomeOf(*reports, "fi"), Outcome::kDeferred);
  // Refused: the database is unchanged and nothing is queued.
  EXPECT_FALSE(rig.mgr.site().db().Contains("l", {V(5), V(10)}));
  EXPECT_TRUE(rig.mgr.deferred_queue().empty());
}

TEST(FaultToleranceTest, BreakerOpensAndFailsFastWithoutRemoteTrips) {
  ResilienceConfig resilience;
  resilience.retry.max_attempts = 1;  // isolate breaker behaviour
  resilience.breaker.failure_threshold = 2;
  resilience.breaker.cooldown_ticks = 1000;  // stays open for the test
  Rig rig(resilience);
  ASSERT_TRUE(rig.mgr.site().db().Insert("r", {V(1000)}).ok());
  rig.injector.ForceOutage(true);

  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(1), V(2)})).ok());
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(4), V(5)})).ok());
  EXPECT_EQ(rig.mgr.site_breaker(0).state(), CircuitState::kOpen);

  uint64_t trips_when_opened = rig.injector.stats().trips;
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(7), V(8)})).ok());
  // Open circuit: the check deferred without touching the network.
  EXPECT_EQ(rig.injector.stats().trips, trips_when_opened);
  EXPECT_GT(rig.mgr.stats().breaker_fast_fails, 0u);
}

TEST(FaultToleranceTest, TransientFaultsAreAbsorbedByRetries) {
  ResilienceConfig resilience;
  resilience.retry.max_attempts = 10;
  FaultConfig faults;
  faults.seed = 7;
  faults.transient_rate = 0.5;
  Rig rig(resilience, faults);
  ASSERT_TRUE(rig.mgr.site().db().Insert("r", {V(1000)}).ok());
  // 20 cross-site checks; with 10 attempts each, a 50% transient rate is
  // absorbed with overwhelming probability (deterministic given the seed).
  // The matching delete resolves at tier 1 (deleting from a monotone
  // constraint is independence-safe), so each check pays exactly one
  // remote trip per attempt.
  for (int i = 0; i < 20; ++i) {
    Update ins = Update::Insert("l", {V(10 * i), V(10 * i + 3)});
    auto reports = rig.mgr.ApplyUpdate(ins);
    ASSERT_TRUE(reports.ok());
    EXPECT_EQ(OutcomeOf(*reports, "fi"), Outcome::kHolds);
    ASSERT_TRUE(
        rig.mgr.ApplyUpdate(Update::Delete(ins.pred, ins.tuple)).ok());
  }
  EXPECT_GT(rig.mgr.stats().remote_retries, 0u);
  EXPECT_EQ(rig.mgr.stats().deferred, 0u);
  EXPECT_GT(rig.mgr.stats().access.remote_failures, 0u);
}

TEST(FaultToleranceTest, PerReportRetryCountsSurface) {
  ResilienceConfig resilience;
  resilience.retry.max_attempts = 16;
  FaultConfig faults;
  faults.seed = 3;
  faults.transient_rate = 0.6;
  Rig rig(resilience, faults);
  ASSERT_TRUE(rig.mgr.site().db().Insert("r", {V(1000)}).ok());
  size_t total_retries = 0;
  for (int i = 0; i < 10; ++i) {
    Update ins = Update::Insert("l", {V(10 * i), V(10 * i + 3)});
    auto reports = rig.mgr.ApplyUpdate(ins);
    ASSERT_TRUE(reports.ok());
    for (const CheckReport& r : *reports) total_retries += r.retries;
    ASSERT_TRUE(
        rig.mgr.ApplyUpdate(Update::Delete(ins.pred, ins.tuple)).ok());
  }
  EXPECT_GT(total_retries, 0u);
  EXPECT_EQ(rig.mgr.stats().remote_retries, total_retries);
}

// Accounting audit: every tier-3 attempt lands in the atomic counters AND
// in exactly one per-episode record — CheckReport::retries for ApplyUpdate
// episodes (including ones that exhausted the policy and deferred),
// DeferredResolution::retries for recheck episodes. The two views must
// reconcile exactly; a retry counted twice or dropped is a bug.
TEST(FaultToleranceTest, RetryCountersMatchPerEpisodeRecordsExactly) {
  ResilienceConfig resilience;
  // Generous, budget-unlimited retries: with a modest transient rate no
  // post-outage episode ever exhausts them, so the recheck drain is
  // guaranteed to complete and every retry lands in a surfaced record.
  resilience.retry.max_attempts = 30;
  resilience.retry.episode_budget = 0;
  resilience.breaker.failure_threshold = 1000;  // no fast-fails: every
                                                // episode really attempts
  resilience.auto_recheck = false;  // drain explicitly so every
                                    // DeferredResolution is captured
  // Pinned seed, NOT the CCPI_FAULT_SEED sweep: the identity only holds
  // when no recheck episode exhausts its retries mid-drain (an episode
  // that gives up and requeues surfaces no record for its retries), which
  // this schedule guarantees and an arbitrary one does not.
  FaultConfig faults;
  faults.seed = 11;
  faults.transient_rate = 0.25;
  Rig rig(resilience, faults);
  ASSERT_TRUE(rig.mgr.site().db().Insert("r", {V(1000)}).ok());

  size_t report_retries = 0;
  size_t t3_reports = 0;
  size_t deferred_seen = 0;

  // Phase 1: hard outage — each cross-site check burns its full retry
  // budget and defers. Those retries must surface in its CheckReport.
  rig.injector.ForceOutage(true);
  for (int i = 0; i < 4; ++i) {
    auto reports =
        rig.mgr.ApplyUpdate(Update::Insert("l", {V(10 * i), V(10 * i + 3)}));
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    for (const CheckReport& r : *reports) {
      report_retries += r.retries;
      if (r.tier == Tier::kFullCheck) ++t3_reports;
      if (r.outcome == Outcome::kDeferred) ++deferred_seen;
    }
  }
  ASSERT_GT(deferred_seen, 0u);

  // Phase 2: outage over, transient faults remain — more retried
  // ApplyUpdate episodes, then an explicit drain whose retries must
  // surface in the DeferredResolutions.
  rig.injector.ForceOutage(false);
  for (int i = 0; i < 6; ++i) {
    auto reports = rig.mgr.ApplyUpdate(
        Update::Insert("l", {V(1000 + 10 * i), V(1000 + 10 * i + 3)}));
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    for (const CheckReport& r : *reports) {
      report_retries += r.retries;
      if (r.tier == Tier::kFullCheck) ++t3_reports;
    }
  }
  auto resolved = rig.mgr.RecheckDeferred();
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  ASSERT_TRUE(rig.mgr.deferred_queue().empty());  // the drain completed
  size_t resolution_retries = 0;
  for (const DeferredResolution& res : *resolved) {
    resolution_retries += res.retries;
  }

  ManagerStats stats = rig.mgr.stats();
  // Non-vacuous: both record kinds carried retries in this schedule.
  EXPECT_GT(report_retries, 0u);
  EXPECT_GT(resolution_retries, 0u);
  // The audit identities. Retries: counter == sum over both record kinds.
  EXPECT_EQ(stats.remote_retries, report_retries + resolution_retries);
  // Attempts: one per tier-3 episode (ApplyUpdate fan-out entries that
  // reached T3, plus recheck resolutions) plus the retries.
  EXPECT_EQ(stats.remote_attempts,
            t3_reports + resolved->size() + stats.remote_retries);
}

// Physical-trip audit with the remote-read cache in play: the injector
// decides every logical remote read exactly once, so its trip counter
// must equal billed physical trips plus revalidated cache hits — a read
// double-billed (or served without consuming its draw) breaks this.
TEST(FaultToleranceTest, InjectorTripsReconcileWithAccessCounters) {
  ResilienceConfig resilience;
  resilience.retry.max_attempts = 8;
  resilience.breaker.failure_threshold = 1000;
  FaultConfig faults;
  faults.seed = FaultSeedOr(5);
  faults.transient_rate = 0.3;
  Rig rig(resilience, faults);
  ASSERT_TRUE(rig.mgr.site().db().Insert("r", {V(1000)}).ok());
  ASSERT_TRUE(rig.mgr.site().remote_cache_enabled());
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(
        rig.mgr.ApplyUpdate(Update::Insert("l", {V(10 * i), V(10 * i + 3)}))
            .ok());
  }
  AccessStats access = rig.mgr.stats().access;
  FaultStats injected = rig.injector.stats();
  EXPECT_GT(access.cache_hits, 0u);  // the cache actually engaged
  EXPECT_EQ(injected.trips, access.remote_trips + access.cache_hits);
  // Every injected fault was billed as exactly one failed read.
  EXPECT_EQ(injected.injected(),
            static_cast<uint64_t>(access.remote_failures));
}

TEST(FaultToleranceTest, TransactionAbortDropsQueuedRechecks) {
  ResilienceConfig resilience;
  resilience.breaker.failure_threshold = 1000;  // keep probing; no fast-fail
  Rig rig(resilience);
  ASSERT_TRUE(rig.mgr.site().db().Insert("r", {V(1000)}).ok());
  // cap violates on the third update; the first needs the (dead) remote.
  rig.injector.ForceOutage(true);
  std::vector<Update> txn = {
      Update::Insert("l", {V(1), V(5)}),
      Update::Insert("emp", {V("a"), V("d"), V(100)}),
      Update::Insert("emp", {V("b"), V("d"), V(900)}),  // violates cap
  };
  auto result = rig.mgr.ApplyTransaction(txn);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->committed);
  // Everything rolled back, including the optimistic apply, and the
  // deferred queue holds no stale entries for the dead transaction.
  EXPECT_FALSE(rig.mgr.site().db().Contains("l", {V(1), V(5)}));
  EXPECT_FALSE(rig.mgr.site().db().Contains("emp", {V("a"), V("d"), V(100)}));
  EXPECT_TRUE(rig.mgr.deferred_queue().empty());
}

TEST(FaultToleranceTest, RejectPolicyAbortsTransactionOnOutage) {
  ResilienceConfig resilience;
  resilience.on_unreachable = DeferredPolicy::kReject;
  Rig rig(resilience);
  ASSERT_TRUE(rig.mgr.site().db().Insert("r", {V(1000)}).ok());
  rig.injector.ForceOutage(true);
  std::vector<Update> txn = {
      Update::Insert("emp", {V("a"), V("d"), V(100)}),
      Update::Insert("l", {V(1), V(5)}),  // unverifiable -> refused
  };
  auto result = rig.mgr.ApplyTransaction(txn);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->committed);
  EXPECT_FALSE(rig.mgr.site().db().Contains("emp", {V("a"), V("d"), V(100)}));
}

/// A Rig variant that also takes the budget configuration (queue cap,
/// overflow policy, execution budgets).
struct BudgetRig {
  explicit BudgetRig(BudgetConfig budget, ResilienceConfig resilience = {})
      : injector(FaultConfig{}),
        mgr({.local_preds = {"l", "l2"},
             .resilience = resilience,
             .budget = budget}) {
    EXPECT_TRUE(mgr.AddConstraint(
                       "fi",
                       MustParse(
                           "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
                    .ok());
    mgr.site().set_site_fault_injector(0, &injector);
    EXPECT_TRUE(mgr.site().db().Insert("r", {V(1000)}).ok());
  }
  FaultInjector injector;
  ConstraintManager mgr;
};

TEST(FaultToleranceTest, OverflowRejectUpdateRefusesAtQueueCap) {
  BudgetConfig budget;
  budget.deferred_queue_cap = 2;
  budget.overflow = OverflowPolicy::kRejectUpdate;
  ResilienceConfig resilience;
  resilience.breaker.failure_threshold = 1000;  // isolate the queue cap
  BudgetRig rig(budget, resilience);
  rig.injector.ForceOutage(true);

  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(1), V(2)})).ok());
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(4), V(5)})).ok());
  ASSERT_EQ(rig.mgr.deferred_queue().size(), 2u);

  // The third deferral would exceed the cap: the whole update is refused,
  // its optimistic apply rolled back, and the report says why.
  auto reports = rig.mgr.ApplyUpdate(Update::Insert("l", {V(7), V(8)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(OutcomeOf(*reports, "fi"), Outcome::kDeferred);
  bool flagged = false;
  for (const CheckReport& r : *reports) flagged = flagged || r.queue_overflow;
  EXPECT_TRUE(flagged);
  EXPECT_FALSE(rig.mgr.site().db().Contains("l", {V(7), V(8)}));
  EXPECT_EQ(rig.mgr.deferred_queue().size(), 2u);
  EXPECT_GE(rig.mgr.stats().budget_exhausted, 1u);
  EXPECT_EQ(rig.mgr.stats().deferred_dropped, 0u);
  // The first two optimistic applies stand untouched.
  EXPECT_TRUE(rig.mgr.site().db().Contains("l", {V(1), V(2)}));
  EXPECT_TRUE(rig.mgr.site().db().Contains("l", {V(4), V(5)}));
}

TEST(FaultToleranceTest, OverflowShedOldestDropsFromTheFront) {
  BudgetConfig budget;
  budget.deferred_queue_cap = 2;
  budget.overflow = OverflowPolicy::kShedOldest;
  ResilienceConfig resilience;
  resilience.breaker.failure_threshold = 1000;
  BudgetRig rig(budget, resilience);
  rig.injector.ForceOutage(true);

  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(1), V(2)})).ok());
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(4), V(5)})).ok());
  auto reports = rig.mgr.ApplyUpdate(Update::Insert("l", {V(7), V(8)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(OutcomeOf(*reports, "fi"), Outcome::kDeferred);

  // The newest update was admitted; the *oldest* queue entry was dropped,
  // its optimistic apply left standing, permanently unverified.
  EXPECT_TRUE(rig.mgr.site().db().Contains("l", {V(7), V(8)}));
  EXPECT_TRUE(rig.mgr.site().db().Contains("l", {V(1), V(2)}));
  ASSERT_EQ(rig.mgr.deferred_queue().size(), 2u);
  EXPECT_EQ(rig.mgr.deferred_queue()[0].update.tuple,
            (std::vector<Value>{V(4), V(5)}));
  EXPECT_EQ(rig.mgr.deferred_queue()[1].update.tuple,
            (std::vector<Value>{V(7), V(8)}));
  EXPECT_EQ(rig.mgr.stats().deferred_dropped, 1u);
}

TEST(FaultToleranceTest, OverflowBlockRecheckDrainsToMakeRoom) {
  BudgetConfig budget;
  budget.deferred_queue_cap = 2;
  budget.overflow = OverflowPolicy::kBlockRecheck;
  // A per-check tuple cap that only bites on the recursive constraint:
  // "deep" derives 55 path tuples, "fi" at most one panic tuple.
  budget.per_check.max_derived_tuples = 5;
  ResilienceConfig resilience;
  resilience.breaker.failure_threshold = 1000;
  resilience.auto_recheck = false;  // the only drain is the overflow's own
  BudgetRig rig(budget, resilience);
  ASSERT_TRUE(rig.mgr.AddConstraint(
                     "deep",
                     MustParse("panic :- l2(X) & path(X,Y) & bad(Y)\n"
                               "path(X,Y) :- edge2(X,Y)\n"
                               "path(X,Y) :- edge2(X,Z) & path(Z,Y)"))
                  .ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rig.mgr.site().db().Insert("edge2", {V(i), V(i + 1)}).ok());
  }

  rig.injector.ForceOutage(true);
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(1), V(2)})).ok());
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(4), V(5)})).ok());
  ASSERT_EQ(rig.mgr.deferred_queue().size(), 2u);

  // Site still down: the blocking drain frees nothing, so the policy falls
  // back to refusing like kRejectUpdate.
  auto refused = rig.mgr.ApplyUpdate(Update::Insert("l2", {V(99)}));
  ASSERT_TRUE(refused.ok());
  EXPECT_FALSE(rig.mgr.site().db().Contains("l2", {V(99)}));
  EXPECT_EQ(rig.mgr.deferred_queue().size(), 2u);

  // Site back up: the shed "deep" check still defers (its tuple cap is
  // spent mid-recursion), but now the blocking drain resolves both queued
  // "fi" entries and the fresh entry fits.
  rig.injector.ForceOutage(false);
  auto reports = rig.mgr.ApplyUpdate(Update::Insert("l2", {V(5)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(OutcomeOf(*reports, "deep"), Outcome::kDeferred);
  for (const CheckReport& r : *reports) {
    if (r.constraint == "deep") {
      EXPECT_EQ(r.reason, StatusCode::kResourceExhausted);
      EXPECT_FALSE(r.queue_overflow);
    }
  }
  EXPECT_TRUE(rig.mgr.site().db().Contains("l2", {V(5)}));
  ASSERT_EQ(rig.mgr.deferred_queue().size(), 1u);
  EXPECT_EQ(rig.mgr.deferred_queue()[0].constraint, "deep");
  EXPECT_EQ(rig.mgr.stats().deferred_recovered, 2u);
  EXPECT_GE(rig.mgr.stats().shed_checks, 1u);
}

// Regression for deferred-drain head-of-line blocking: one dead remote
// predicate must not pin re-checks that only need other, reachable
// predicates behind it in the queue.
TEST(FaultToleranceTest, DeadPredDoesNotBlockOtherRechecksBehindIt) {
  ResilienceConfig resilience;
  resilience.breaker.failure_threshold = 1000;
  resilience.auto_recheck = false;  // drain explicitly, assert precisely
  FaultInjector injector{FaultConfig{}};
  ConstraintManager mgr({.local_preds = {"l"}, .resilience = resilience});
  mgr.site().set_site_fault_injector(0, &injector);
  ASSERT_TRUE(mgr.AddConstraint(
                     "a", MustParse("panic :- l(X,Y) & r1(Z) & X <= Z & Z <= Y"))
                  .ok());
  ASSERT_TRUE(mgr.AddConstraint(
                     "b", MustParse("panic :- l(X,Y) & r2(Z) & X <= Z & Z <= Y"))
                  .ok());
  ASSERT_TRUE(mgr.site().db().Insert("r1", {V(1000)}).ok());
  ASSERT_TRUE(mgr.site().db().Insert("r2", {V(1000)}).ok());

  injector.ForceOutage(true);
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Insert("l", {V(1), V(5)})).ok());
  ASSERT_EQ(mgr.deferred_queue().size(), 2u);  // "a" queued ahead of "b"
  ASSERT_EQ(mgr.deferred_queue()[0].constraint, "a");

  // Outage over — except r1, constraint "a"'s remote relation. "a" sits at
  // the head of the queue; the drain must skip past it, resolve "b", and
  // terminate (bounded passes, no spin on the dead entry).
  injector.ForceOutage(false);
  injector.ForcePredOutage("r1", true);
  auto resolved = mgr.RecheckDeferred();
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  ASSERT_EQ(resolved->size(), 1u);
  EXPECT_EQ((*resolved)[0].check.constraint, "b");
  EXPECT_EQ((*resolved)[0].outcome, Outcome::kHolds);
  ASSERT_EQ(mgr.deferred_queue().size(), 1u);
  EXPECT_EQ(mgr.deferred_queue()[0].constraint, "a");

  // r1 recovers: the skipped entry resolves on the next drain.
  injector.ForcePredOutage("r1", false);
  resolved = mgr.RecheckDeferred();
  ASSERT_TRUE(resolved.ok());
  ASSERT_EQ(resolved->size(), 1u);
  EXPECT_EQ((*resolved)[0].check.constraint, "a");
  EXPECT_TRUE(mgr.deferred_queue().empty());
  EXPECT_EQ(mgr.stats().deferred_recovered, 2u);
}

TEST(FaultToleranceTest, ScriptRunReportsDeferredAndRecovers) {
  auto script = ParseScript(
      "local l\n"
      "constraint fi\n"
      "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y\n"
      "fact r(7)\n"
      "insert l(20, 30)\n"   // fine: 7 not in [20,30]
      "insert l(5, 10)\n");  // violation hidden by the outage window
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ScriptOptions& options = script->options;
  options.enable_faults = true;
  // Outage covering the whole stream's remote trips; the shutdown drain
  // runs after it ends (trip indices past the window succeed).
  options.faults.outages.push_back(OutageWindow{0, 3});
  options.manager.resilience.retry.max_attempts = 1;
  options.manager.resilience.breaker.cooldown_ticks = 0;
  options.print_stats = true;
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->updates_deferred, 0u);
  // The shutdown drain re-verified everything: the hidden violation was
  // caught late and compensated.
  EXPECT_EQ(report->deferred_pending, 0u);
  EXPECT_EQ(report->stats.deferred_violations, 1u);
  EXPECT_GE(report->stats.deferred_recovered, 1u);
  EXPECT_NE(report->text.find("deferred:fi"), std::string::npos);
  EXPECT_NE(report->text.find("rolled back"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Outage-window edge cases. Windows are half-open intervals over the trip
// counter in *draw space*: [begin, end) with begin inclusive, end
// exclusive, and a trip inside several windows fails once, not once per
// window. These pins matter because per-site schedules index windows
// independently — an off-by-one here silently shifts every multi-site
// outage experiment.

TEST(OutageWindowTest, ZeroLengthWindowNeverFires) {
  FaultConfig config;
  config.outages.push_back(OutageWindow{3, 3});
  FaultInjector injector(config);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(injector.NextTrip(), FaultKind::kNone) << "trip " << i;
  }
  EXPECT_EQ(injector.stats().outage_faults, 0u);
  EXPECT_EQ(injector.stats().trips, 8u);
}

TEST(OutageWindowTest, BoundariesAreHalfOpen) {
  FaultConfig config;
  config.outages.push_back(OutageWindow{2, 4});
  FaultInjector injector(config);
  EXPECT_EQ(injector.NextTrip(), FaultKind::kNone);    // trip 0
  EXPECT_EQ(injector.NextTrip(), FaultKind::kNone);    // trip 1
  EXPECT_EQ(injector.NextTrip(), FaultKind::kOutage);  // trip 2: begin is in
  EXPECT_EQ(injector.NextTrip(), FaultKind::kOutage);  // trip 3
  EXPECT_EQ(injector.NextTrip(), FaultKind::kNone);    // trip 4: end is out
  EXPECT_EQ(injector.stats().outage_faults, 2u);
}

TEST(OutageWindowTest, AdjacentWindowsAreContiguous) {
  FaultConfig config;
  config.outages.push_back(OutageWindow{0, 3});
  config.outages.push_back(OutageWindow{3, 6});
  FaultInjector injector(config);
  // [0,3) and [3,6) tile [0,6) exactly: no seam at trip 3, no spill past 5.
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(injector.NextTrip(), FaultKind::kOutage) << "trip " << i;
  }
  EXPECT_EQ(injector.NextTrip(), FaultKind::kNone);  // trip 6
  EXPECT_EQ(injector.stats().outage_faults, 6u);
}

TEST(OutageWindowTest, OverlappingWindowsCountEachTripOnce) {
  FaultConfig config;
  config.outages.push_back(OutageWindow{1, 5});
  config.outages.push_back(OutageWindow{3, 8});
  FaultInjector injector(config);
  for (int i = 0; i < 10; ++i) injector.NextTrip();
  // Trips 1..7 fall in the union; the doubly-covered trips 3 and 4 fail
  // once each, so the fault count is the union size, not the sum of sizes.
  EXPECT_EQ(injector.stats().outage_faults, 7u);
  EXPECT_EQ(injector.stats().trips, 10u);
}

TEST(OutageWindowTest, WindowsConsumeDrawsLikeHealthyTrips) {
  // The schedule draws exactly one variate per trip whether or not a
  // window swallows the trip, so the post-window schedule is identical to
  // an injector that never had the window. Compare trip-by-trip.
  FaultConfig with_window;
  with_window.seed = 42;
  with_window.transient_rate = 0.5;
  with_window.outages.push_back(OutageWindow{2, 5});
  FaultConfig without_window;
  without_window.seed = 42;
  without_window.transient_rate = 0.5;
  FaultInjector a(with_window);
  FaultInjector b(without_window);
  for (int i = 0; i < 20; ++i) {
    FaultKind ka = a.NextTrip();
    FaultKind kb = b.NextTrip();
    if (i >= 2 && i < 5) {
      EXPECT_EQ(ka, FaultKind::kOutage) << "trip " << i;
    } else {
      EXPECT_EQ(ka, kb) << "trip " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Multi-site fault domains: one dark site must not take down checks that
// only touch the others, and a returning site must be caught up —
// deferred replay plus poisoned-cache reconciliation.

/// Two remote sites with explicit placement: r1/x1 at site 0, r2/x2 at
/// site 1. Each site gets its own injector (same config shape), so one
/// site's outage is invisible to the other's schedule.
struct TopologyRig {
  explicit TopologyRig(ResilienceConfig resilience)
      : injector0(FaultConfig{}), injector1(FaultConfig{}), mgr([&] {
          TopologyConfig topology;
          topology.sites = 2;
          topology.placement["r1"] = 0;
          topology.placement["r2"] = 1;
          topology.placement["x2"] = 1;
          return ConstraintManager({.local_preds = {"l", "lx"},
                                    .resilience = resilience,
                                    .topology = topology});
        }()) {
    EXPECT_TRUE(mgr.AddConstraint(
                       "a",
                       MustParse("panic :- l(X,Y) & r1(Z) & X <= Z & Z <= Y"))
                    .ok());
    EXPECT_TRUE(mgr.AddConstraint(
                       "b",
                       MustParse("panic :- l(X,Y) & r2(Z) & X <= Z & Z <= Y"))
                    .ok());
    EXPECT_TRUE(mgr.AddConstraint("c", MustParse("panic :- lx(X) & x2(X)"))
                    .ok());
    mgr.site().set_site_fault_injector(0, &injector0);
    mgr.site().set_site_fault_injector(1, &injector1);
    EXPECT_TRUE(mgr.site().db().Insert("r1", {V(1000)}).ok());
    EXPECT_TRUE(mgr.site().db().Insert("r2", {V(1000)}).ok());
    EXPECT_TRUE(mgr.site().db().Insert("x2", {V(5)}).ok());
  }
  FaultInjector injector0;
  FaultInjector injector1;
  ConstraintManager mgr;
};

TEST(FaultToleranceTest, DarkSiteDegradesOnlyChecksThatTouchIt) {
  ResilienceConfig resilience;
  resilience.retry.max_attempts = 1;
  resilience.breaker.failure_threshold = 2;
  resilience.breaker.cooldown_ticks = 2;
  resilience.auto_recheck = false;  // keep the queue inspectable
  TopologyRig rig(resilience);

  rig.injector1.ForceOutage(true);
  // One update fanning out to both sites: the site-0 check completes with
  // a real tier-3 verdict while the site-1 check defers — partial
  // degradation within a single update, the tentpole property.
  auto reports = rig.mgr.ApplyUpdate(Update::Insert("l", {V(1), V(5)}));
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_EQ(OutcomeOf(*reports, "a"), Outcome::kHolds);
  EXPECT_EQ(OutcomeOf(*reports, "b"), Outcome::kDeferred);
  ASSERT_EQ(rig.mgr.deferred_queue().size(), 1u);
  EXPECT_EQ(rig.mgr.deferred_queue()[0].constraint, "b");

  // A second cross-site update opens site 1's breaker; site 0's stays
  // closed and its checks keep resolving at full fidelity.
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(6), V(9)})).ok());
  EXPECT_EQ(rig.mgr.site_breaker(1).state(), CircuitState::kOpen);
  EXPECT_EQ(rig.mgr.site_breaker(0).state(), CircuitState::kClosed);
  reports = rig.mgr.ApplyUpdate(Update::Insert("l", {V(11), V(14)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(OutcomeOf(*reports, "a"), Outcome::kHolds);
  EXPECT_EQ(OutcomeOf(*reports, "b"), Outcome::kDeferred);
  // The dark site cost no trips once its breaker opened (fast-fail), and
  // site 0 kept paying real trips: per-site accounting stayed separate.
  EXPECT_GT(rig.mgr.stats().breaker_fast_fails, 0u);
  EXPECT_EQ(rig.mgr.site().site_stats(0).remote_failures, 0u);
  EXPECT_GT(rig.mgr.site().site_stats(1).remote_failures, 0u);
}

TEST(FaultToleranceTest, ReturningSiteIsCaughtUpDeferredAndCache) {
  ResilienceConfig resilience;
  resilience.retry.max_attempts = 1;
  resilience.breaker.failure_threshold = 2;
  resilience.breaker.cooldown_ticks = 2;
  TopologyRig rig(resilience);

  // Warm site 1's cache for x2 while everything is healthy (constraint
  // "c" reads it; lx(1) does not join x2's contents, so it holds).
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("lx", {V(1)})).ok());
  EXPECT_GT(rig.mgr.site().site_stats(1).remote_trips, 0u);

  // Site 1 goes dark; cross-site updates defer and open its breaker.
  rig.injector1.ForceOutage(true);
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(1), V(5)})).ok());
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(6), V(9)})).ok());
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("l", {V(11), V(14)})).ok());
  ASSERT_EQ(rig.mgr.site_breaker(1).state(), CircuitState::kOpen);
  size_t deferred = rig.mgr.deferred_queue().size();
  ASSERT_GT(deferred, 0u);

  // While the site is dark its x2 relation moves (a write applied at the
  // remote site, invisible to the checker): the cached snapshot is now
  // outdated, and nothing in the deferred queue reads x2, so only the
  // catch-up protocol can reconcile it.
  ASSERT_TRUE(rig.mgr.site().db().Insert("x2", {V(77)}).ok());

  // The site returns. Neutral updates tick the cooldown; the auto drain
  // probes the half-open breaker, replays the deferred checks, closes the
  // breaker, and the dark->closed edge triggers catch-up recovery.
  rig.injector1.ForceOutage(false);
  for (int i = 0; i < 20 && !rig.mgr.deferred_queue().empty(); ++i) {
    ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("audit", {V(i)})).ok());
  }
  EXPECT_TRUE(rig.mgr.deferred_queue().empty());
  EXPECT_EQ(rig.mgr.site_breaker(1).state(), CircuitState::kClosed);
  ManagerStats stats = rig.mgr.stats();
  EXPECT_EQ(stats.deferred_recovered, deferred);
  EXPECT_EQ(stats.deferred_violations, 0u);
  EXPECT_EQ(stats.sites_recovered, 1u);
  // The outdated x2 snapshot was revalidated by recovery, not by a check:
  // a subsequent read is a warm hit at the post-outage version.
  EXPECT_GE(stats.cache_revalidated, 1u);
  size_t trips_after_recovery = rig.mgr.site().site_stats(1).remote_trips;
  ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("lx", {V(2)})).ok());
  EXPECT_EQ(rig.mgr.site().site_stats(1).remote_trips, trips_after_recovery);
}

TEST(FaultToleranceTest, SimultaneousOutagesRecoverIndependently) {
  ResilienceConfig resilience;
  resilience.retry.max_attempts = 1;
  resilience.breaker.failure_threshold = 1;
  resilience.breaker.cooldown_ticks = 2;
  TopologyRig rig(resilience);

  rig.injector0.ForceOutage(true);
  rig.injector1.ForceOutage(true);
  auto reports = rig.mgr.ApplyUpdate(Update::Insert("l", {V(1), V(5)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(OutcomeOf(*reports, "a"), Outcome::kDeferred);
  EXPECT_EQ(OutcomeOf(*reports, "b"), Outcome::kDeferred);

  // Site 0 returns first: its deferred check drains and it alone is
  // recovered; site 1's entry stays queued.
  rig.injector0.ForceOutage(false);
  for (int i = 0; i < 20 && rig.mgr.deferred_queue().size() > 1; ++i) {
    ASSERT_TRUE(rig.mgr.ApplyUpdate(Update::Insert("audit", {V(i)})).ok());
  }
  ASSERT_EQ(rig.mgr.deferred_queue().size(), 1u);
  EXPECT_EQ(rig.mgr.deferred_queue()[0].constraint, "b");
  EXPECT_EQ(rig.mgr.stats().sites_recovered, 1u);
  EXPECT_EQ(rig.mgr.site_breaker(0).state(), CircuitState::kClosed);
  EXPECT_NE(rig.mgr.site_breaker(1).state(), CircuitState::kClosed);

  // Then site 1: the remaining entry drains and the second recovery fires.
  rig.injector1.ForceOutage(false);
  for (int i = 0; i < 20 && !rig.mgr.deferred_queue().empty(); ++i) {
    ASSERT_TRUE(
        rig.mgr.ApplyUpdate(Update::Insert("audit", {V(100 + i)})).ok());
  }
  EXPECT_TRUE(rig.mgr.deferred_queue().empty());
  EXPECT_EQ(rig.mgr.stats().sites_recovered, 2u);
  EXPECT_EQ(rig.mgr.stats().deferred_recovered, 2u);
}

TEST(FaultToleranceTest, LocalOnlyTier3CheckIsNotGatedBySiteBreaker) {
  // A single site is the 1-site topology: a constraint's breaker
  // footprint is the placement of its remote relations. A tier-3
  // constraint that reads no remote relation therefore decides while site
  // 0 is dark, and its local success is no half-open probe verdict — the
  // site never answered it.
  ResilienceConfig resilience;
  resilience.retry.max_attempts = 1;
  resilience.breaker.failure_threshold = 1;
  resilience.breaker.cooldown_ticks = 5;
  resilience.breaker.half_open_successes = 2;
  resilience.auto_recheck = false;
  FaultInjector injector{FaultConfig{}};
  ConstraintManager mgr(
      {.local_preds = {"l", "a", "b"}, .resilience = resilience});
  // Negation keeps tiers 1-2 from settling `neg`: it reaches tier 3 and
  // reads only local relations there.
  ASSERT_TRUE(
      mgr.AddConstraint("neg", MustParse("panic :- a(X) & not b(X)")).ok());
  ASSERT_TRUE(
      mgr.AddConstraint("join", MustParse("panic :- l(X) & r(X)")).ok());
  mgr.site().set_site_fault_injector(0, &injector);
  ASSERT_TRUE(mgr.site().db().Insert("r", {V(100)}).ok());
  ASSERT_TRUE(mgr.site().db().Insert("b", {V(1)}).ok());
  ASSERT_TRUE(mgr.site().db().Insert("b", {V(3)}).ok());

  // The site goes dark: the remote check defers and opens the breaker.
  injector.ForceOutage(true);
  auto reports = mgr.ApplyUpdate(Update::Insert("l", {V(1)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(OutcomeOf(*reports, "join"), Outcome::kDeferred);
  ASSERT_EQ(mgr.site_breaker(0).state(), CircuitState::kOpen);

  // While it is open, the local-only check still decides, both ways.
  reports = mgr.ApplyUpdate(Update::Insert("a", {V(1)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(OutcomeOf(*reports, "neg"), Outcome::kHolds);
  reports = mgr.ApplyUpdate(Update::Insert("a", {V(2)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(OutcomeOf(*reports, "neg"), Outcome::kViolated);
  EXPECT_EQ(mgr.stats().breaker_fast_fails, 0u);
  EXPECT_EQ(mgr.site_breaker(0).state(), CircuitState::kOpen);

  // The site returns: one successful remote probe leaves the breaker
  // half-open (closing takes two).
  injector.ForceOutage(false);
  mgr.TickBreaker(resilience.breaker.cooldown_ticks);
  reports = mgr.ApplyUpdate(Update::Insert("l", {V(2)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(OutcomeOf(*reports, "join"), Outcome::kHolds);
  ASSERT_EQ(mgr.site_breaker(0).state(), CircuitState::kHalfOpen);

  // A local-only success claims no probe: still half-open.
  reports = mgr.ApplyUpdate(Update::Insert("a", {V(3)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(OutcomeOf(*reports, "neg"), Outcome::kHolds);
  EXPECT_EQ(mgr.site_breaker(0).state(), CircuitState::kHalfOpen);
}

}  // namespace
}  // namespace ccpi
