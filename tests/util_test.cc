#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "util/budget.h"
#include "util/circuit_breaker.h"
#include "util/outcome.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace ccpi {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad arity");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad arity");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad arity");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument,
        StatusCode::kUnsupported, StatusCode::kNotFound,
        StatusCode::kInternal, StatusCode::kResourceExhausted}) {
    EXPECT_NE(std::string(StatusCodeToString(code)), "Unknown");
  }
}

TEST(StatusTest, ResourceExhaustedIsNotRetriable) {
  // Retrying a budget-exhausted operation would spend the same exhausted
  // envelope again; the caller must shed or re-budget instead.
  EXPECT_FALSE(IsRetriable(StatusCode::kResourceExhausted));
  Status st = Status::ResourceExhausted("deadline");
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(st.ToString(), "Resource exhausted: deadline");
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_TRUE(ok.status().ok());

  Result<int> err = Status::NotFound("nope");
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  CCPI_ASSIGN_OR_RETURN(int half, Half(x));
  CCPI_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto q = Quarter(8);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringsTest, VariableConvention) {
  EXPECT_TRUE(IsVariableName("X"));
  EXPECT_TRUE(IsVariableName("Salary"));
  EXPECT_FALSE(IsVariableName("emp"));
  EXPECT_FALSE(IsVariableName(""));
  EXPECT_FALSE(IsVariableName("_x"));
}

TEST(StringsTest, Identifier) {
  EXPECT_TRUE(IsIdentifier("emp_1"));
  EXPECT_TRUE(IsIdentifier("_private"));
  EXPECT_FALSE(IsIdentifier("1emp"));
  EXPECT_FALSE(IsIdentifier("a-b"));
  EXPECT_FALSE(IsIdentifier(""));
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(1);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.Range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(RngTest, BelowBound) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(rng.Below(7), 7u);
  }
}

TEST(OutcomeTest, Names) {
  EXPECT_STREQ(OutcomeToString(Outcome::kHolds), "holds");
  EXPECT_STREQ(OutcomeToString(Outcome::kUnknown), "unknown");
  EXPECT_STREQ(OutcomeToString(Outcome::kViolated), "violated");
}

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  CircuitBreaker breaker(config);
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  // A success in between resets the consecutive count.
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_EQ(breaker.times_opened(), 1u);
  EXPECT_FALSE(breaker.AllowRequest());
}

TEST(CircuitBreakerTest, HalfOpensAfterCooldown) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_ticks = 4;
  CircuitBreaker breaker(config);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  breaker.Tick(3);
  EXPECT_FALSE(breaker.AllowRequest());  // cooldown not yet elapsed
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  breaker.Tick(1);
  EXPECT_TRUE(breaker.AllowRequest());  // transitions to half-open
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
}

TEST(CircuitBreakerTest, FailedProbeReopensAndRestartsCooldown) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_ticks = 4;
  CircuitBreaker breaker(config);
  breaker.RecordFailure();
  breaker.Tick(4);
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
  breaker.RecordFailure();  // probe fails
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);
  // The cooldown restarted at the probe failure, not the original trip.
  breaker.Tick(3);
  EXPECT_FALSE(breaker.AllowRequest());
  breaker.Tick(1);
  EXPECT_TRUE(breaker.AllowRequest());
}

TEST(CircuitBreakerTest, ClosesAfterEnoughProbeSuccesses) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_ticks = 2;
  config.half_open_successes = 2;
  CircuitBreaker breaker(config);
  breaker.RecordFailure();
  breaker.Tick(2);
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);  // needs 2 successes
  EXPECT_TRUE(breaker.AllowRequest());  // half-open keeps allowing probes
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  // Fully recovered: failures count from zero again.
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsExactlyOneProbe) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_ticks = 1;
  CircuitBreaker breaker(config);
  breaker.RecordFailure();
  breaker.Tick(1);
  EXPECT_TRUE(breaker.AllowRequest());  // claims the probe slot
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
  EXPECT_FALSE(breaker.AllowRequest());  // slot taken: no second probe
  EXPECT_FALSE(breaker.WouldAllow());
  breaker.RecordSuccess();  // verdict releases the slot
  EXPECT_TRUE(breaker.WouldAllow());
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordFailure();  // failed probe also releases (and reopens)
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
}

TEST(CircuitBreakerTest, CancelProbeReleasesWithoutVerdict) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_ticks = 1;
  config.half_open_successes = 2;
  CircuitBreaker breaker(config);
  breaker.RecordFailure();
  breaker.Tick(1);
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_FALSE(breaker.AllowRequest());
  breaker.CancelProbe();  // e.g. the admitted episode was shed by budget
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);  // no verdict counted
  EXPECT_TRUE(breaker.AllowRequest());  // slot free again
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);  // still needs 2
  EXPECT_TRUE(breaker.AllowRequest());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
  // Outside half-open the cancel is a no-op.
  breaker.CancelProbe();
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), CircuitState::kClosed);
}

TEST(CircuitBreakerTest, WouldAllowIsPure) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.cooldown_ticks = 2;
  CircuitBreaker breaker(config);
  EXPECT_TRUE(breaker.WouldAllow());
  breaker.RecordFailure();
  EXPECT_FALSE(breaker.WouldAllow());
  breaker.Tick(2);
  // Cooldown elapsed: the gate answers yes but does NOT transition — the
  // open->half-open edge belongs to the claiming AllowRequest.
  EXPECT_TRUE(breaker.WouldAllow());
  EXPECT_EQ(breaker.state(), CircuitState::kOpen);
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
}

TEST(CircuitBreakerTest, HalfOpenSingleProbeUnderConcurrentRequests) {
  // N threads race AllowRequest() against a half-open breaker: exactly
  // one may claim the probe slot. Run under TSan in CI.
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    CircuitBreakerConfig config;
    config.failure_threshold = 1;
    config.cooldown_ticks = 1;
    CircuitBreaker breaker(config);
    breaker.RecordFailure();
    breaker.Tick(1);
    EXPECT_TRUE(breaker.AllowRequest());
    EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
    breaker.CancelProbe();  // half-open, slot free, probes may race
    std::atomic<int> admitted{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&breaker, &admitted] {
        if (breaker.AllowRequest()) admitted.fetch_add(1);
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(admitted.load(), 1);
    EXPECT_EQ(breaker.state(), CircuitState::kHalfOpen);
    breaker.RecordSuccess();  // release so the next round starts clean
  }
}

TEST(RetryTest, ZeroEpisodeBudgetMeansUnlimited) {
  // episode_budget == 0 is documented as *unlimited*, not "no budget to
  // spend": all max_attempts tries run no matter how much simulated
  // backoff accumulates.
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.initial_backoff = 1000;  // would instantly blow any small budget
  policy.max_backoff = 1000;
  policy.episode_budget = 0;
  policy.jitter = 0;
  Rng rng(1);
  size_t calls = 0;
  RetryOutcome out = RunWithRetry(policy, &rng, [&] {
    ++calls;
    return Status::Unavailable("down");
  });
  EXPECT_EQ(calls, 5u);
  EXPECT_EQ(out.attempts, 5u);
  EXPECT_EQ(out.backoff_spent, 4000u);

  // Contrast: a tiny nonzero budget (smaller than initial_backoff) permits
  // the first attempt but never a retry.
  policy.episode_budget = 1;
  calls = 0;
  out = RunWithRetry(policy, &rng, [&] {
    ++calls;
    return Status::Unavailable("down");
  });
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(out.backoff_spent, 0u);
}

TEST(BudgetTest, InertScopePassesEveryCheckpoint) {
  BudgetScope scope;
  EXPECT_FALSE(scope.active());
  EXPECT_FALSE(scope.has_deadline());
  EXPECT_TRUE(scope.OnFixpointRound().ok());
  EXPECT_TRUE(scope.OnDerivedTuples(1u << 20).ok());
  EXPECT_TRUE(scope.Check().ok());
  EXPECT_EQ(scope.checkpoints(), 0u);  // inert scopes count nothing
}

TEST(BudgetTest, UnarmedBudgetImposesNothing) {
  ExecutionBudget none;
  EXPECT_FALSE(none.armed());
  BudgetScope scope = BudgetScope::Start(none);
  EXPECT_FALSE(scope.active());
  EXPECT_TRUE(scope.OnFixpointRound().ok());
}

TEST(BudgetTest, FixpointRoundCap) {
  ExecutionBudget budget;
  budget.max_fixpoint_rounds = 3;
  BudgetScope scope = BudgetScope::Start(budget);
  EXPECT_TRUE(scope.active());
  EXPECT_TRUE(scope.OnFixpointRound().ok());
  EXPECT_TRUE(scope.OnFixpointRound().ok());
  EXPECT_TRUE(scope.OnFixpointRound().ok());
  Status st = scope.OnFixpointRound();  // round 4 exceeds the cap
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // Exhaustion is sticky: the counter only grows.
  EXPECT_EQ(scope.OnFixpointRound().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetTest, DerivedTupleCapCountsBatches) {
  ExecutionBudget budget;
  budget.max_derived_tuples = 100;
  BudgetScope scope = BudgetScope::Start(budget);
  EXPECT_TRUE(scope.OnDerivedTuples(60).ok());
  EXPECT_TRUE(scope.OnDerivedTuples(40).ok());  // exactly at the cap is fine
  EXPECT_EQ(scope.OnDerivedTuples(1).code(),
            StatusCode::kResourceExhausted);
}

TEST(BudgetTest, ExpiredDeadlineFailsEveryCheckpoint) {
  ExecutionBudget budget;
  budget.deadline_ms = 1;
  BudgetScope scope = BudgetScope::Start(budget);
  EXPECT_TRUE(scope.has_deadline());
  // The deadline is an absolute instant: sleeping comfortably past it is
  // deterministic at any machine speed or sanitizer slowdown.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(scope.Check().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scope.OnFixpointRound().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scope.OnDerivedTuples(1).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(scope.remaining_ms(), 0u);
}

TEST(BudgetTest, CancellationTripsEveryCheckpoint) {
  CancellationToken token;
  BudgetScope scope = BudgetScope::Start(ExecutionBudget{}, &token);
  EXPECT_TRUE(scope.active());  // armed by the token alone
  EXPECT_TRUE(scope.Check().ok());
  token.Cancel();
  EXPECT_EQ(scope.Check().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(scope.OnFixpointRound().code(), StatusCode::kResourceExhausted);
  token.Reset();
  EXPECT_TRUE(scope.Check().ok());
}

TEST(BudgetTest, ChildrenCountIndependently) {
  ExecutionBudget budget;
  budget.max_fixpoint_rounds = 2;
  BudgetScope parent = BudgetScope::Start(budget);
  BudgetScope a = parent.Child({});
  BudgetScope b = parent.Child({});
  // Children depend only on (budget, extra), never sibling progress.
  EXPECT_EQ(a.budget().max_fixpoint_rounds, 2u);
  EXPECT_EQ(b.budget().max_fixpoint_rounds, 2u);
  EXPECT_EQ(a.budget().max_derived_tuples, 0u);  // unlimited stays unlimited
  // Spending one child leaves the other and the parent untouched.
  EXPECT_TRUE(a.OnFixpointRound().ok());
  EXPECT_TRUE(a.OnFixpointRound().ok());
  EXPECT_EQ(a.OnFixpointRound().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(b.OnFixpointRound().ok());
  EXPECT_TRUE(parent.OnFixpointRound().ok());
}

TEST(BudgetTest, ChildSharesTheParentDeadlineAndToken) {
  CancellationToken token;
  ExecutionBudget budget;
  budget.deadline_ms = 60'000;
  BudgetScope parent = BudgetScope::Start(budget, &token);
  BudgetScope child = parent.Child({});
  EXPECT_TRUE(child.has_deadline());
  EXPECT_LE(child.remaining_ms(), parent.remaining_ms());
  EXPECT_TRUE(child.Check().ok());
  token.Cancel();
  EXPECT_EQ(child.Check().code(), StatusCode::kResourceExhausted);
}

TEST(BudgetTest, ChildFoldsInPerCheckExtraTightestWins) {
  ExecutionBudget episode;
  episode.max_fixpoint_rounds = 100;
  ExecutionBudget extra;
  extra.max_fixpoint_rounds = 2;  // tighter than 100
  BudgetScope parent = BudgetScope::Start(episode);
  BudgetScope child = parent.Child(extra);
  EXPECT_EQ(child.budget().max_fixpoint_rounds, 2u);

  // An inert parent's child with a per-check budget is armed by it alone.
  BudgetScope inert;
  BudgetScope solo = inert.Child(extra);
  EXPECT_TRUE(solo.active());
  EXPECT_TRUE(solo.OnFixpointRound().ok());
  EXPECT_TRUE(solo.OnFixpointRound().ok());
  EXPECT_EQ(solo.OnFixpointRound().code(),
            StatusCode::kResourceExhausted);
}

TEST(CircuitBreakerTest, StateNames) {
  EXPECT_STREQ(CircuitStateToString(CircuitState::kClosed), "closed");
  EXPECT_STREQ(CircuitStateToString(CircuitState::kOpen), "open");
  EXPECT_STREQ(CircuitStateToString(CircuitState::kHalfOpen), "half-open");
}

}  // namespace
}  // namespace ccpi
