#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "datalog/parser.h"
#include "distsim/fault_injector.h"
#include "manager/active_rules.h"
#include "manager/constraint_manager.h"
#include "manager/view_maint.h"
#include "obs/trace.h"

namespace ccpi {
namespace {

Program MustParse(const char* text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

Tier TierOf(const std::vector<CheckReport>& reports,
            const std::string& name) {
  for (const CheckReport& r : reports) {
    if (r.constraint == name) return r.tier;
  }
  ADD_FAILURE() << "no report for " << name;
  return Tier::kFullCheck;
}

Outcome OutcomeOf(const std::vector<CheckReport>& reports,
                  const std::string& name) {
  for (const CheckReport& r : reports) {
    if (r.constraint == name) return r.outcome;
  }
  ADD_FAILURE() << "no report for " << name;
  return Outcome::kUnknown;
}

TEST(ManagerTest, SubsumedConstraintDropped) {
  ConstraintManager mgr({.local_preds = {"l"}});
  auto first = mgr.AddConstraint("strong", MustParse("panic :- p(X)"));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(*first);
  auto second =
      mgr.AddConstraint("weak", MustParse("panic :- p(X) & q(X)"));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(*second);  // subsumed at registration

  auto reports = mgr.ApplyUpdate(Update::Insert("q", {V(1)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "weak"), Tier::kSubsumed);
}

TEST(ManagerTest, AddConstraintRejectsARegisteredName) {
  // Reports, deferred entries and plan-cache keys name a constraint by its
  // name. A second "c" used to be registered beside the first, and tier 3
  // then evaluated the first one's compiled program for both, so the
  // insert below was applied although the second "c" forbids it.
  ConstraintManager mgr({.local_preds = {"l"}});
  ASSERT_TRUE(
      mgr.AddConstraint("c", MustParse("panic :- l(X) & r(X) & s(X)")).ok());
  auto again = mgr.AddConstraint("c", MustParse("panic :- l(X) & r(X)"));
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
  // A subsumed registration keeps its name too.
  auto weak = mgr.AddConstraint("weak", MustParse("panic :- l(X) & r(X) & "
                                                  "s(X) & t(X)"));
  ASSERT_TRUE(weak.ok());
  EXPECT_TRUE(*weak);
  EXPECT_FALSE(mgr.AddConstraint("weak", MustParse("panic :- l(X)")).ok());

  ASSERT_TRUE(mgr.site().db().Insert("r", {V(1)}).ok());
  auto reports = mgr.ApplyUpdate(Update::Insert("l", {V(1)}));
  ASSERT_TRUE(reports.ok());
  // Only the first "c" was registered: s is empty, so it holds.
  ASSERT_EQ(reports->size(), 2u);  // "c" and "weak", once each
  EXPECT_EQ(OutcomeOf(*reports, "c"), Outcome::kHolds);
  EXPECT_TRUE(mgr.site().db().Contains("l", {V(1)}));
}

TEST(ManagerTest, AddConstraintRejectsAnUnsafeProgram) {
  // X occurs only under negation, so the evaluator refuses the program.
  // It used to be registered anyway: inserts into l settled at tier 1 and
  // the run went on until an update first reached tier 3 and failed there.
  ConstraintManager mgr({.local_preds = {"l"}});
  auto unsafe = mgr.AddConstraint("c", MustParse("panic :- r(Y) & not l(X)"));
  ASSERT_FALSE(unsafe.ok());
  EXPECT_EQ(unsafe.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unsafe.status().message().find("unsafe"), std::string::npos)
      << unsafe.status().message();
  // Unstratifiable: p and q depend on each other through negation.
  auto cyclic = mgr.AddConstraint(
      "d", MustParse("panic :- l(X) & p(X)\n"
                     "p(X) :- l(X) & not q(X)\n"
                     "q(X) :- l(X) & not p(X)"));
  ASSERT_FALSE(cyclic.ok());
  EXPECT_EQ(cyclic.status().code(), StatusCode::kInvalidArgument);

  // Nothing was registered: an update is checked against no constraint.
  ASSERT_TRUE(mgr.site().db().Insert("r", {V(1)}).ok());
  ASSERT_TRUE(mgr.site().db().Insert("l", {V(1)}).ok());
  auto none = mgr.ApplyUpdate(Update::Insert("l", {V(2)}));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  // And the name is still free for a safe program, which is checked.
  ASSERT_TRUE(
      mgr.AddConstraint("c", MustParse("panic :- r(Y) & not l(Y)")).ok());
  auto reports = mgr.ApplyUpdate(Update::Delete("l", {V(1)}));
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  ASSERT_EQ(reports->size(), 1u);
  EXPECT_EQ(OutcomeOf(*reports, "c"), Outcome::kViolated);
  EXPECT_TRUE(mgr.site().db().Contains("l", {V(1)}));
}

TEST(ManagerTest, UnaffectedTier) {
  ConstraintManager mgr({.local_preds = {"l"}});
  ASSERT_TRUE(mgr.AddConstraint("c", MustParse("panic :- p(X) & q(X)")).ok());
  auto reports = mgr.ApplyUpdate(Update::Insert("other", {V(1)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "c"), Tier::kUnaffected);
  EXPECT_EQ(OutcomeOf(*reports, "c"), Outcome::kHolds);
}

TEST(ManagerTest, IndependenceTierOnSafeInsert) {
  ConstraintManager mgr({.local_preds = {"emp"}});
  ASSERT_TRUE(
      mgr.AddConstraint("cap", MustParse("panic :- emp(E,D,S) & S > 100"))
          .ok());
  auto reports =
      mgr.ApplyUpdate(Update::Insert("emp", {V("a"), V("d"), V(50)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "cap"), Tier::kIndependence);
  EXPECT_EQ(OutcomeOf(*reports, "cap"), Outcome::kHolds);
}

TEST(ManagerTest, LocalTestTierForForbiddenIntervals) {
  ConstraintManager mgr({.local_preds = {"l"}});
  ASSERT_TRUE(mgr.AddConstraint(
                     "fi",
                     MustParse("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
                  .ok());
  // Seed L (each insert is itself checked; the first ones go to full
  // evaluation since nothing covers them and remote r is empty).
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Insert("l", {V(3), V(6)})).ok());
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Insert("l", {V(5), V(10)})).ok());
  // (4,8) is covered by local data alone: resolved at the local tier.
  auto reports = mgr.ApplyUpdate(Update::Insert("l", {V(4), V(8)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "fi"), Tier::kLocalTest);
  EXPECT_EQ(OutcomeOf(*reports, "fi"), Outcome::kHolds);
  EXPECT_TRUE(mgr.site().db().Contains("l", {V(4), V(8)}));
}

TEST(ManagerTest, FullCheckDetectsAndRejectsViolation) {
  ConstraintManager mgr({.local_preds = {"l"}});
  ASSERT_TRUE(mgr.AddConstraint(
                     "fi",
                     MustParse("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
                  .ok());
  // Remote relation r lives on the other site; populate it directly.
  ASSERT_TRUE(mgr.site().db().Insert("r", {V(7)}).ok());
  // Inserting (5,10) forbids 7, which exists remotely: violation.
  auto reports = mgr.ApplyUpdate(Update::Insert("l", {V(5), V(10)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "fi"), Tier::kFullCheck);
  EXPECT_EQ(OutcomeOf(*reports, "fi"), Outcome::kViolated);
  // The update was rejected.
  EXPECT_FALSE(mgr.site().db().Contains("l", {V(5), V(10)}));
  EXPECT_EQ(mgr.stats().violations, 1u);
}

TEST(ManagerTest, LocalOnlyConstraintViolatedAtLocalTier) {
  ConstraintManager mgr({.local_preds = {"l"}});
  ASSERT_TRUE(
      mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
  auto ok = mgr.ApplyUpdate(Update::Insert("l", {V(1), V(2)}));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(OutcomeOf(*ok, "ord"), Outcome::kHolds);
  auto bad = mgr.ApplyUpdate(Update::Insert("l", {V(5), V(2)}));
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(OutcomeOf(*bad, "ord"), Outcome::kViolated);
  EXPECT_EQ(TierOf(*bad, "ord"), Tier::kLocalTest);
  EXPECT_FALSE(mgr.site().db().Contains("l", {V(5), V(2)}));
}

TEST(ManagerTest, NoopUpdateResolvesTrivially) {
  ConstraintManager mgr({.local_preds = {"l"}});
  ASSERT_TRUE(
      mgr.AddConstraint("c", MustParse("panic :- l(X) & r(X)")).ok());
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Delete("l", {V(1)})).ok());  // absent
  auto reports = mgr.ApplyUpdate(Update::Delete("l", {V(1)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "c"), Tier::kUnaffected);
}

TEST(ManagerTest, DeletionOfMonotoneConstraintIndependent) {
  ConstraintManager mgr({.local_preds = {"l"}});
  ASSERT_TRUE(
      mgr.AddConstraint("c", MustParse("panic :- l(X) & r(X)")).ok());
  ASSERT_TRUE(mgr.site().db().Insert("l", {V(1)}).ok());
  auto reports = mgr.ApplyUpdate(Update::Delete("l", {V(1)}));
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(TierOf(*reports, "c"), Tier::kIndependence);
  EXPECT_FALSE(mgr.site().db().Contains("l", {V(1)}));
}

TEST(ManagerTest, AccessAccountingSeparatesSites) {
  ConstraintManager mgr({.local_preds = {"l"}});
  ASSERT_TRUE(mgr.AddConstraint(
                     "fi",
                     MustParse("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
                  .ok());
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Insert("l", {V(0), V(10)})).ok());
  AccessStats after_seed = mgr.stats().access;
  // A covered insert resolves locally: remote counters must not move.
  ASSERT_TRUE(mgr.ApplyUpdate(Update::Insert("l", {V(2), V(8)})).ok());
  EXPECT_EQ(mgr.stats().access.remote_tuples, after_seed.remote_tuples);
  EXPECT_EQ(mgr.stats().access.remote_trips, after_seed.remote_trips);
  EXPECT_GT(mgr.stats().access.local_tuples, after_seed.local_tuples);
}

TEST(ManagerTest, Fig61TestBillsOnlyTheInsertedKeyGroup) {
  ConstraintManager mgr({.local_preds = {"l"}});
  ASSERT_TRUE(mgr.AddConstraint(
                     "fi", MustParse("panic :- l(K,X,Y) & r(K,Z) & "
                                     "X <= Z & Z <= Y"))
                  .ok());
  // Three keys with four intervals each: [0,5], [10,15], [20,25], [30,35].
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          mgr.site().db().Insert("l", {V(k), V(10 * i), V(10 * i + 5)}).ok());
    }
  }
  AccessStats before = mgr.stats().access;
  auto reports = mgr.ApplyUpdate(Update::Insert("l", {V(1), V(11), V(14)}));
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  EXPECT_EQ(TierOf(*reports, "fi"), Tier::kLocalTest);
  EXPECT_EQ(OutcomeOf(*reports, "fi"), Outcome::kHolds);
  // Only key 1's four rows can cover the insert, and only they are read.
  EXPECT_EQ(mgr.stats().access.local_tuples - before.local_tuples, 4u);
}

// --- Episode pipeline scheduler --------------------------------------------

/// A depth-4 pipelined manager over one local and one remote predicate.
ConstraintManager MakePipelinedManager(size_t depth) {
  return ConstraintManager({.local_preds = {"l"},
                            .parallel = {.threads = 2},
                            .pipeline = {.depth = depth}});
}

TEST(ManagerTest, AsyncDrainMatchesApplyUpdate) {
  std::vector<Update> stream = {
      Update::Insert("l", {V(1), V(2)}),
      Update::Insert("r", {V(2)}),
      Update::Insert("l", {V(5), V(3)}),  // violates ord
      Update::Insert("l", {V(4), V(2)}),  // joins with remote r(2)
  };
  auto setup = [](ConstraintManager* mgr) {
    ASSERT_TRUE(
        mgr->AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
    ASSERT_TRUE(
        mgr->AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y)")).ok());
  };
  ConstraintManager serial = MakePipelinedManager(1);
  setup(&serial);
  std::vector<std::vector<CheckReport>> expected;
  for (const Update& u : stream) {
    auto reports = serial.ApplyUpdate(u);
    ASSERT_TRUE(reports.ok());
    expected.push_back(*reports);
  }

  ConstraintManager piped = MakePipelinedManager(4);
  setup(&piped);
  for (const Update& u : stream) piped.ApplyUpdateAsync(u);
  auto results = piped.Drain();
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
    ASSERT_EQ(results[i]->size(), expected[i].size()) << "update " << i;
    for (size_t c = 0; c < expected[i].size(); ++c) {
      EXPECT_EQ((*results[i])[c].constraint, expected[i][c].constraint);
      EXPECT_EQ((*results[i])[c].outcome, expected[i][c].outcome);
      EXPECT_EQ((*results[i])[c].tier, expected[i][c].tier);
    }
  }
  EXPECT_EQ(piped.site().db().ToString(), serial.site().db().ToString());
  // Drain is destructive: a second call returns nothing new.
  EXPECT_TRUE(piped.Drain().empty());
}

/// Every ManagerStats field, access accounting included, as one line.
std::string StatsText(const ManagerStats& s) {
  std::ostringstream out;
  for (const auto& [tier, n] : s.resolved_by) {
    out << TierToString(tier) << "=" << n << " ";
  }
  out << "violations=" << s.violations << " attempts=" << s.remote_attempts
      << " retries=" << s.remote_retries << " failed=" << s.remote_failures
      << " deferred=" << s.deferred << " fast_fails=" << s.breaker_fast_fails
      << " recovered=" << s.deferred_recovered
      << " late_violations=" << s.deferred_violations
      << " t3=" << s.t3_admitted << " shed=" << s.shed_checks
      << " exhausted=" << s.budget_exhausted
      << " dropped=" << s.deferred_dropped
      << " sites_recovered=" << s.sites_recovered
      << " revalidated=" << s.cache_revalidated
      << " hedges=" << s.hedges_issued << "/" << s.hedges_won << "/"
      << s.hedges_wasted << " latency_shed=" << s.latency_shed
      << " local=" << s.access.local_tuples
      << " remote=" << s.access.remote_tuples
      << " trips=" << s.access.remote_trips
      << " failed_trips=" << s.access.remote_failures
      << " cache_hits=" << s.access.cache_hits
      << " cached=" << s.access.cached_tuples;
  return out.str();
}

std::string ReportText(const CheckReport& r) {
  std::ostringstream out;
  out << r.constraint << ":" << OutcomeToString(r.outcome) << "@"
      << TierToString(r.tier) << " retries=" << r.retries
      << " reason=" << static_cast<int>(r.reason)
      << " overflow=" << r.queue_overflow;
  return out.str();
}

TEST(ManagerTest, SyncAndDepthOneAsyncShareOneCommitTurn) {
  // ApplyUpdate and depth-1 ApplyUpdateAsync admit and retire an episode
  // through the same commit turn, so interleaving them must reproduce an
  // all-ApplyUpdate run exactly — through an outage that defers checks,
  // trips the breaker, and later drains the queue by auto-recheck — and
  // neither may touch the pipeline's counters.
  std::vector<Update> stream;
  for (int i = 0; i < 24; ++i) {
    // [10i, 10i+5]: i = 5 covers the remote r(50) and is violated.
    stream.push_back(Update::Insert("l", {V(10 * i), V(10 * i + 5)}));
    if (i % 4 == 3) {
      stream.push_back(Update::Delete("l", {V(10 * (i - 1)), V(10 * i - 5)}));
    }
    if (i % 6 == 0) stream.push_back(Update::Delete("l", {V(-1), V(-1)}));
    if (i == 10) stream.push_back(Update::Insert("l", {V(9), V(1)}));
  }
  struct Run {
    std::vector<std::string> reports;
    std::vector<std::string> queue;
    std::string stats;
    std::string db;
    ManagerStats counts;
    uint64_t pipeline_counts = 0;
  };
  auto run = [&stream](bool interleave) {
    FaultConfig faults;
    faults.outages.push_back(OutageWindow{2, 12});
    faults.outages.push_back(OutageWindow{20, 1000});
    FaultInjector injector(faults);
    ResilienceConfig resilience;
    resilience.retry.max_attempts = 1;
    resilience.breaker.failure_threshold = 2;
    resilience.breaker.cooldown_ticks = 3;
    ConstraintManager mgr({.local_preds = {"l"}, .resilience = resilience});
    mgr.site().set_site_fault_injector(0, &injector);
    EXPECT_TRUE(mgr.AddConstraint(
                       "fi", MustParse(
                                 "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
                    .ok());
    EXPECT_TRUE(
        mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
    EXPECT_TRUE(mgr.site().db().Insert("r", {V(50)}).ok());
    EXPECT_TRUE(mgr.site().db().Insert("r", {V(1000)}).ok());

    Run out;
    std::vector<std::vector<CheckReport>> results(stream.size());
    std::vector<size_t> parked;  // stream positions awaiting Drain
    auto drain = [&]() {
      std::vector<Result<std::vector<CheckReport>>> drained = mgr.Drain();
      EXPECT_EQ(drained.size(), parked.size());
      for (size_t k = 0; k < drained.size() && k < parked.size(); ++k) {
        EXPECT_TRUE(drained[k].ok()) << drained[k].status().ToString();
        if (drained[k].ok()) results[parked[k]] = *drained[k];
      }
      parked.clear();
    };
    for (size_t i = 0; i < stream.size(); ++i) {
      if (interleave && i % 3 != 0) {
        mgr.ApplyUpdateAsync(stream[i]);
        parked.push_back(i);
        if (i % 7 == 0) drain();
        continue;
      }
      Result<std::vector<CheckReport>> reports = mgr.ApplyUpdate(stream[i]);
      EXPECT_TRUE(reports.ok()) << reports.status().ToString();
      if (reports.ok()) results[i] = *reports;
    }
    drain();
    for (const std::vector<CheckReport>& reports : results) {
      std::string line;
      for (const CheckReport& r : reports) line += ReportText(r) + "; ";
      out.reports.push_back(line);
    }
    for (const DeferredCheck& d : mgr.deferred_queue()) {
      out.queue.push_back(d.update.ToString() + " " + d.constraint + " #" +
                          std::to_string(d.sequence));
    }
    out.counts = mgr.stats();
    out.stats = StatsText(out.counts);
    out.db = mgr.site().db().ToString();
    for (const char* name :
         {"manager.pipeline.admitted", "manager.pipeline.committed"}) {
      out.pipeline_counts += mgr.metrics().GetCounter(name)->value();
    }
    return out;
  };

  const Run serial = run(false);
  const Run mixed = run(true);
  // The stream really exercised the fault path: checks were deferred,
  // fast-failed and re-verified, one update was violated at tier 3, and
  // entries were still queued at the end.
  EXPECT_GT(serial.counts.deferred, 0u) << serial.stats;
  EXPECT_GT(serial.counts.breaker_fast_fails, 0u) << serial.stats;
  EXPECT_GT(serial.counts.deferred_recovered, 0u) << serial.stats;
  EXPECT_GT(serial.counts.resolved_by.count(Tier::kFullCheck), 0u);
  EXPECT_GT(serial.counts.violations, 0u) << serial.stats;
  EXPECT_FALSE(serial.queue.empty()) << serial.stats;
  EXPECT_EQ(mixed.reports, serial.reports);
  EXPECT_EQ(mixed.queue, serial.queue);
  EXPECT_EQ(mixed.stats, serial.stats);
  EXPECT_EQ(mixed.db, serial.db);
  EXPECT_EQ(serial.pipeline_counts, 0u);
  EXPECT_EQ(mixed.pipeline_counts, 0u);
}

TEST(ManagerTest, AddConstraintDrainsInFlightEpisodes) {
  ConstraintManager mgr = MakePipelinedManager(4);
  ASSERT_TRUE(
      mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
  mgr.ApplyUpdateAsync(Update::Insert("l", {V(1), V(2)}));
  mgr.ApplyUpdateAsync(Update::Insert("l", {V(5), V(3)}));
  // Registering a constraint mid-stream retires every in-flight episode
  // first (documented precondition): the new constraint only ever checks
  // updates admitted after it, and never races a speculation.
  ASSERT_TRUE(
      mgr.AddConstraint("cap", MustParse("panic :- l(X,Y) & Y > 90")).ok());
  EXPECT_EQ(mgr.in_flight(), 0u);
  auto results = mgr.Drain();
  ASSERT_EQ(results.size(), 2u);
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(OutcomeOf(*results[0], "ord"), Outcome::kHolds);
  EXPECT_EQ(OutcomeOf(*results[1], "ord"), Outcome::kViolated);
}

TEST(ManagerTest, ResetStatsDrainsAndZeroesCounters) {
  ConstraintManager mgr = MakePipelinedManager(4);
  ASSERT_TRUE(
      mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
  mgr.ApplyUpdateAsync(Update::Insert("l", {V(5), V(3)}));
  mgr.ResetStats();
  // ResetStats drains first, so the in-flight episode's violation was
  // fully booked — and then wiped with everything else.
  EXPECT_EQ(mgr.in_flight(), 0u);
  ManagerStats s = mgr.stats();
  EXPECT_EQ(s.violations, 0u);
  EXPECT_TRUE(s.resolved_by.empty());
  // The episode's *result* survives: only statistics were reset.
  auto results = mgr.Drain();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].ok());
  EXPECT_EQ(OutcomeOf(*results[0], "ord"), Outcome::kViolated);
}

TEST(ManagerTest, PipelinedStressRetiresEpisodesSafely) {
  // Many short episodes through a wide pipeline on four lanes: the
  // committer retires (and frees) each episode the moment its
  // speculation publishes `done`, so a speculation task that touched its
  // episode after publishing would be a use-after-free — the sanitizer
  // jobs catch it. Mostly no-op deletes (every admission speculates),
  // with a sprinkling of real inserts.
  ConstraintManager mgr({.local_preds = {"l", "k"},
                         .parallel = {.threads = 4},
                         .pipeline = {.depth = 8}});
  ASSERT_TRUE(
      mgr.AddConstraint("ord", MustParse("panic :- l(X,Y) & X > Y")).ok());
  ASSERT_TRUE(
      mgr.AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y)")).ok());
  constexpr int kEpisodes = 4000;
  int inserts = 0;
  for (int i = 0; i < kEpisodes; ++i) {
    if (i % 16 == 0) {
      mgr.ApplyUpdateAsync(Update::Insert("k", {V(i)}));
      ++inserts;
    } else {
      mgr.ApplyUpdateAsync(Update::Delete("l", {V(i), V(i)}));
    }
  }
  auto results = mgr.Drain();
  ASSERT_EQ(results.size(), static_cast<size_t>(kEpisodes));
  for (const auto& r : results) ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(mgr.in_flight(), 0u);
  EXPECT_EQ(mgr.site().db().Get("k", 1).size(),
            static_cast<size_t>(inserts));
  EXPECT_GT(
      mgr.metrics().GetCounter("manager.pipeline.committed")->value(), 0u);
}

TEST(ManagerTest, PhaseOneErrorLeavesNoTrace) {
  // `insert l(1)` does not match l's arity, so tier 1 answers a hard error
  // at constraint `a`, after `u` (which cannot see l) already settled as
  // unaffected. The episode returns the error and leaves nothing behind:
  // no write, no queue entry, no stats and no plan counts, not even the
  // unaffected `u`. The following updates get the reports of a run that
  // never saw the bad one — also when it is in flight together with them.
  const Update bad = Update::Insert("l", {V(1)});
  const std::vector<Update> after = {Update::Insert("l", {V(2), V(3)}),
                                     Update::Insert("m", {V(7)})};
  struct State {
    std::string db, queue, stats, plan;
  };
  for (size_t depth : {1, 8}) {
    for (size_t threads : {1, 4}) {
      SCOPED_TRACE("depth " + std::to_string(depth) + " threads " +
                   std::to_string(threads));
      auto make = [&]() {
        auto mgr = std::make_unique<ConstraintManager>(
            ManagerConfig{.local_preds = {"l"},
                          .parallel = {.threads = threads},
                          .pipeline = {.depth = depth}});
        EXPECT_TRUE(
            mgr->AddConstraint("u", MustParse("panic :- m(X) & X > 5")).ok());
        EXPECT_TRUE(
            mgr->AddConstraint("a", MustParse("panic :- l(X,Y) & r(Y)")).ok());
        EXPECT_TRUE(mgr->site().db().Insert("r", {V(9)}).ok());
        return mgr;
      };
      auto state = [](ConstraintManager& mgr) {
        State s{mgr.site().db().ToString(), "", StatsText(mgr.stats()), ""};
        for (const DeferredCheck& d : mgr.deferred_queue()) {
          s.queue += d.update.ToString() + " " + d.constraint + "; ";
        }
        for (const char* name :
             {"plan.compiles", "plan.hits", "plan.delta_tuples"}) {
          s.plan += std::to_string(
                        mgr.metrics().GetCounter(name)->value()) + " ";
        }
        return s;
      };
      auto apply = [](ConstraintManager& mgr, std::vector<Update> updates) {
        for (const Update& u : updates) mgr.ApplyUpdateAsync(u);
        return mgr.Drain();
      };
      auto text = [](const Result<std::vector<CheckReport>>& reports) {
        if (!reports.ok()) return reports.status().ToString();
        std::string line;
        for (const CheckReport& r : *reports) line += ReportText(r) + "; ";
        return line;
      };

      std::unique_ptr<ConstraintManager> ref = make();
      ASSERT_TRUE(apply(*ref, {Update::Insert("l", {V(1), V(2)})})[0].ok());
      std::vector<std::string> expected;
      for (const auto& reports : apply(*ref, after)) {
        expected.push_back(text(reports));
      }

      std::unique_ptr<ConstraintManager> mgr = make();
      ASSERT_TRUE(apply(*mgr, {Update::Insert("l", {V(1), V(2)})})[0].ok());
      const State before = state(*mgr);
      auto failed = apply(*mgr, {bad});
      ASSERT_EQ(failed.size(), 1u);
      ASSERT_FALSE(failed[0].ok());
      EXPECT_EQ(failed[0].status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(failed[0].status().message().find(
                    "update arity mismatch on l"),
                std::string::npos)
          << failed[0].status().ToString();
      const State now = state(*mgr);
      EXPECT_EQ(now.db, before.db);
      EXPECT_EQ(now.queue, before.queue);
      EXPECT_EQ(now.stats, before.stats);
      EXPECT_EQ(now.plan, before.plan);

      std::vector<Update> stream = {bad};
      stream.insert(stream.end(), after.begin(), after.end());
      auto results = apply(*mgr, stream);
      ASSERT_EQ(results.size(), 3u);
      EXPECT_FALSE(results[0].ok());
      EXPECT_EQ(text(results[1]), expected[0]);
      EXPECT_EQ(text(results[2]), expected[1]);
      EXPECT_EQ(mgr->site().db().ToString(), ref->site().db().ToString());
      EXPECT_EQ(StatsText(mgr->stats()), StatsText(ref->stats()));
    }
  }
}

TEST(ManagerTest, SpeculationStagesWhatTheTier1MemoLeavesOpen) {
  // A speculation predicts the tier-3 worklist from the constraints, the
  // update and the tier-1 memo, without reading data. A delete from l can
  // never violate `join` (tier 1 holds), but only the memo can say so
  // before the commit turn: once an earlier episode of the same pattern
  // stored that hold, an admission stages nothing, although `join` reads
  // the still-cold remote r. Without the memo entry, the first delete
  // stages r's batch and the second, admitted at the same versions, does
  // not sleep it again. Either way the reports and stats are the serial
  // run's.
  const std::vector<Update> stream = {Update::Delete("l", {V(3), V(4)}),
                                      Update::Delete("l", {V(5), V(6)})};
  auto run = [&](size_t depth, bool warm_memo, size_t* staged) {
    ConstraintManager mgr({.local_preds = {"l"},
                           .parallel = {.threads = 1},
                           .pipeline = {.depth = depth}});
    EXPECT_TRUE(
        mgr.AddConstraint("join", MustParse("panic :- l(X,Y) & r(Y)")).ok());
    for (int k : {1, 3, 5}) {
      EXPECT_TRUE(mgr.site().db().Insert("l", {V(k), V(k + 1)}).ok());
    }
    EXPECT_TRUE(mgr.site().db().Insert("r", {V(9)}).ok());
    if (warm_memo) {
      // Same order type as the stream's deletes; settles at tier 1, so r
      // stays cold.
      auto reports = mgr.ApplyUpdate(Update::Delete("l", {V(1), V(2)}));
      EXPECT_TRUE(reports.ok());
      if (reports.ok()) {
        EXPECT_EQ(TierOf(*reports, "join"), Tier::kIndependence);
      }
    }
    obs::TraceRecorder recorder;
    recorder.Install();
    for (const Update& u : stream) mgr.ApplyUpdateAsync(u);
    auto results = mgr.Drain();
    recorder.Uninstall();
    *staged = 0;
    for (const obs::TraceEvent& e : recorder.events()) {
      *staged += e.name == "distsim.stage_batch";
    }
    std::string text;
    for (const auto& reports : results) {
      EXPECT_TRUE(reports.ok());
      if (!reports.ok()) continue;
      for (const CheckReport& r : *reports) text += ReportText(r) + "; ";
      text += "\n";
    }
    return text + StatsText(mgr.stats());
  };
  for (bool warm_memo : {true, false}) {
    SCOPED_TRACE(warm_memo ? "memo hold" : "memo miss");
    size_t serial_staged = 0;
    const std::string serial = run(1, warm_memo, &serial_staged);
    EXPECT_EQ(serial_staged, 0u);  // depth 1 never speculates
    size_t staged = 0;
    EXPECT_EQ(run(8, warm_memo, &staged), serial);
    EXPECT_EQ(staged, warm_memo ? 0u : 1u);
  }
}

// --- Active rules (application 2) ------------------------------------------

TEST(ActiveRulesTest, FiresWhenConditionBecomesTrue) {
  Database db;
  ActiveRuleEngine engine(&db);
  int fired = 0;
  ASSERT_TRUE(engine
                  .AddRule("audit", MustParse("panic :- emp(E,D,S) & S > 100"),
                           [&fired](Database*) { ++fired; })
                  .ok());
  auto r1 = engine.ProcessUpdate(
      Update::Insert("emp", {V("a"), V("d"), V(50)}));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(fired, 0);
  // Below-threshold insert is provably irrelevant: not even re-evaluated.
  EXPECT_EQ(r1->skipped_irrelevant.size(), 1u);
  auto r2 = engine.ProcessUpdate(
      Update::Insert("emp", {V("b"), V("d"), V(500)}));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(r2->fired.size(), 1u);
}

TEST(ActiveRulesTest, NoPriorSatisfactionAssumed) {
  // Unlike integrity constraints, the condition may already be true; the
  // engine must re-fire rather than conclude "held before, still holds".
  Database db;
  ASSERT_TRUE(db.Insert("emp", {V("x"), V("d"), V(900)}).ok());
  ActiveRuleEngine engine(&db);
  int fired = 0;
  ASSERT_TRUE(engine
                  .AddRule("audit", MustParse("panic :- emp(E,D,S) & S > 100"),
                           [&fired](Database*) { ++fired; })
                  .ok());
  auto r = engine.ProcessUpdate(
      Update::Insert("emp", {V("y"), V("d"), V(700)}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(fired, 1);
}

TEST(ActiveRulesTest, ActionMayModifyDatabase) {
  Database db;
  ActiveRuleEngine engine(&db);
  ASSERT_TRUE(engine
                  .AddRule("log", MustParse("panic :- emp(E,D,S) & S > 100"),
                           [](Database* d) {
                             ASSERT_TRUE(d->Insert("flag", {V(1)}).ok());
                           })
                  .ok());
  ASSERT_TRUE(
      engine.ProcessUpdate(Update::Insert("emp", {V("a"), V("d"), V(500)}))
          .ok());
  EXPECT_TRUE(db.Contains("flag", {V(1)}));
}

// --- View maintenance (application 3) ---------------------------------------

TEST(ViewMaintTest, IrrelevantUpdateDetected) {
  Program view = MustParse("v(E) :- emp(E,D,S) & S > 100");
  view.goal = "v";
  // Inserting a low-salary employee cannot change the view.
  auto low = IrrelevantUpdate(
      view, Update::Insert("emp", {V("a"), V("d"), V(50)}));
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  EXPECT_EQ(*low, Outcome::kHolds);
  // A high-salary insert can.
  auto high = IrrelevantUpdate(
      view, Update::Insert("emp", {V("a"), V("d"), V(500)}));
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(*high, Outcome::kUnknown);
}

TEST(ViewMaintTest, IrrelevantMeansViewNeverChanges) {
  Program view = MustParse("v(E) :- emp(E,D,S) & S > 100");
  view.goal = "v";
  Update u = Update::Insert("emp", {V("a"), V("d"), V(50)});
  ASSERT_EQ(*IrrelevantUpdate(view, u), Outcome::kHolds);
  Database db;
  ASSERT_TRUE(db.Insert("emp", {V("x"), V("d"), V(200)}).ok());
  auto changed = ViewChanges(view, u, db);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(*changed);
}

TEST(ViewMaintTest, RelevantUpdateChangesView) {
  Program view = MustParse("v(E) :- emp(E,D,S) & S > 100");
  view.goal = "v";
  Update u = Update::Insert("emp", {V("a"), V("d"), V(500)});
  Database db;
  auto changed = ViewChanges(view, u, db);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(*changed);
}

TEST(ViewMaintTest, DeletionIrrelevantWhenFilteredOut) {
  Program view = MustParse("v(E) :- emp(E,D,S) & S > 100");
  view.goal = "v";
  auto del = IrrelevantUpdate(
      view, Update::Delete("emp", {V("a"), V("d"), V(50)}));
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(*del, Outcome::kHolds);
  auto del_high = IrrelevantUpdate(
      view, Update::Delete("emp", {V("a"), V("d"), V(500)}));
  ASSERT_TRUE(del_high.ok());
  EXPECT_EQ(*del_high, Outcome::kUnknown);
}

}  // namespace
}  // namespace ccpi
