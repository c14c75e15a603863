#ifndef CCPI_MANAGER_CONSTRAINT_MANAGER_H_
#define CCPI_MANAGER_CONSTRAINT_MANAGER_H_

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "datalog/ast.h"
#include "distsim/site_db.h"
#include "eval/engine.h"
#include "obs/metrics.h"
#include "plan/plan_cache.h"
#include "plan/update_signature.h"
#include "updates/update.h"
#include "util/budget.h"
#include "util/circuit_breaker.h"
#include "util/outcome.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ccpi {

/// Which level of the paper's information hierarchy settled a constraint
/// for one update.
enum class Tier {
  kSubsumed,      // level 0: dropped at registration, never checked
  kUnaffected,    // level 1 prefilter: constraint does not mention the pred
  kIndependence,  // level 1: constraints + update (Section 4)
  kLocalTest,     // level 2: constraints + update + local data (Sections 5-6)
  kFullCheck,     // level 3: full evaluation, remote data included
};

const char* TierToString(Tier tier);

/// What the manager does with an update whose tier-3 check could not reach
/// the remote site.
enum class DeferredPolicy {
  /// Apply the update now and enqueue the undecided checks for automatic
  /// re-verification once the remote site answers again; a late violation
  /// is compensated by rolling the update back. Sound because tiers 0-2
  /// are *complete* where they apply: anything that reaches tier 3 was
  /// already not refutable from local information alone.
  kOptimisticApply,
  /// Refuse the update (database unchanged). Conservative: availability of
  /// writes degrades with the remote link, but the database never holds
  /// unverified data.
  kReject,
};

/// Knobs of the fault-tolerant remote-access path (tier 3).
struct ResilienceConfig {
  RetryPolicy retry;
  CircuitBreakerConfig breaker;
  DeferredPolicy on_unreachable = DeferredPolicy::kOptimisticApply;
  /// Drain the deferred-recheck queue automatically at the start of each
  /// ApplyUpdate once the circuit allows remote traffic again.
  bool auto_recheck = true;
};

/// Size of the manager's thread pool, which serves three uses: the tier-3
/// fan-out inside one episode, the per-site batched prefetch, and
/// pipeline speculation. Phase 1 (tiers 0-2) runs inline on the
/// committing (or speculating) thread. Each tier-3 check is a pure
/// function of (constraint, post-update database), so the fan-out merges
/// verdicts in constraint order and is report-equivalent to the
/// sequential order at any thread count; it runs in parallel only when no
/// fault injector is attached and every breaker is plainly closed — the
/// cases where remote verdicts depend on global arrival order (see
/// docs/concurrency.md).
struct ParallelConfig {
  /// Total pool threads, counting the thread that called ApplyUpdate.
  /// 0 and 1 both mean sequential (no worker threads are spawned).
  size_t threads = 1;
};

/// Remote-read options. Every remote read goes through the snapshot cache
/// (see docs/remote_cache.md); what a caller configures is hedging.
struct RemoteCacheConfig {
  /// Hedged batched reads (`ccpi_check --hedge-after=N`): when a batched
  /// per-site prefetch's drawn latency exceeds `hedge_after` times that
  /// site's observed latency EWMA, the simulator issues one deterministic
  /// backup attempt and takes the faster of the two, billing exactly one
  /// extra remote trip per issued hedge (see docs/distsim.md "Hedged
  /// reads"). 0 (the default) disables hedging: no extra trips,
  /// byte-identical behavior. Hedging only ever engages on sites with a
  /// non-fixed latency model.
  uint64_t hedge_after = 0;
};

/// Empty: the compiled-plan cache (docs/plan_cache.md) is always on and
/// has nothing to configure. Kept only so that perfbench/main.cc, which
/// passes `PlanCacheConfig{}` positionally and changes only with a
/// re-baselined benchmark, still compiles; it goes with the 9-argument
/// ConstraintManager overload (ROADMAP item 7).
struct PlanCacheConfig {};

/// The pipelined episode scheduler (see docs/concurrency.md). With depth
/// D > 1, ApplyUpdateAsync admits up to D update episodes at once: each
/// admission takes an immutable MVCC snapshot of the database (a cheap
/// copy-on-write Database copy) and speculates on the thread pool against
/// it, running phase 1 only to predict the tier-3 worklist and sleep that
/// worklist's remote round trips ahead of time (staged trips). Episodes
/// retire strictly in admission order through the commit turn every
/// episode takes, ApplyUpdate's included, which runs phase 1 live and
/// decides everything; a staged trip only spares the commit's prefetch a
/// sleep when it fetches exactly the same data. Reports, ManagerStats,
/// the deferred queue, breaker admissions, and fault-schedule draws are
/// therefore byte-identical to depth-1 execution per seed at any depth
/// and thread count.
struct PipelineConfig {
  /// Maximum episodes in flight; 1 (the default) disables speculation:
  /// each episode is admitted and retired at once. Budget-armed managers
  /// always run at depth 1: wall-clock deadlines are admission-order
  /// sensitive, so speculation is never attempted under budgets.
  size_t depth = 1;
};

/// What to do when a new deferred re-check would push the queue past
/// BudgetConfig::deferred_queue_cap.
enum class OverflowPolicy {
  /// Refuse the whole update (the tentative apply is rolled back), exactly
  /// as DeferredPolicy::kReject would: no unverified work is admitted once
  /// the backlog is full. The refused update's deferred reports carry
  /// CheckReport::queue_overflow.
  kRejectUpdate,
  /// Drop the oldest queued entries to make room. The dropped entries'
  /// optimistic applies stay standing *unverified* — availability is
  /// preserved at the price of bounded, oldest-first verification debt
  /// (counted in manager.deferred.dropped / ManagerStats::deferred_dropped).
  kShedOldest,
  /// Try one synchronous RecheckDeferred pass to make room; if the queue is
  /// still full afterwards (site still down, or the drain's own budget
  /// spent), fall back to refusing the update like kRejectUpdate.
  kBlockRecheck,
};

/// Resource governance of the checking pipeline (see docs/budgets.md).
/// Default-constructed, everything is off and the manager behaves exactly
/// as before budgets existed — the hot path pays one branch on a null
/// scope, no clock reads, no allocations.
struct BudgetConfig {
  /// Wall-clock deadline of one whole ApplyUpdate episode, measured from
  /// its commit turn's start (0 = none). It bounds the batched prefetch
  /// and every tier-3 check and re-check the episode runs.
  uint64_t episode_deadline_ms = 0;
  /// Envelope over each single tier-3 evaluation (and each deferred
  /// re-check), folded into the episode deadline; tightest limit wins.
  /// Each check counts its own rounds and tuples, so reports stay
  /// byte-identical at any thread count.
  ExecutionBudget per_check;
  /// Optional cooperative cancellation honored at every budget checkpoint.
  /// Not owned; must outlive the manager's episodes.
  const CancellationToken* cancel = nullptr;
  /// Bound on the deferred re-check queue (0 = unbounded, the pre-budget
  /// behavior).
  size_t deferred_queue_cap = 0;
  /// Applied when an enqueue would exceed deferred_queue_cap.
  OverflowPolicy overflow = OverflowPolicy::kRejectUpdate;

  bool armed() const {
    return episode_deadline_ms != 0 || per_check.armed() || cancel != nullptr;
  }
};

/// Everything a ConstraintManager is built from, one field per concern.
/// An aggregate: name the fields that differ from their defaults with
/// designated initializers, in declaration order, and leave out the rest
/// (every field has a default member initializer, so leaving one out is
/// not a missing initializer):
///
///     ConstraintManager mgr({.local_preds = {"emp"},
///                            .parallel = {.threads = 4}});
struct ManagerConfig {
  /// Predicates held at this site; every other predicate is remote.
  std::set<std::string> local_preds = {};
  /// Access pricing of every site (the topology may override a site's
  /// latency distribution).
  CostModel costs = {};
  ResilienceConfig resilience = {};
  ParallelConfig parallel = {};
  RemoteCacheConfig remote_cache = {};
  BudgetConfig budget = {};
  TopologyConfig topology = {};
  PipelineConfig pipeline = {};
};

/// Aggregate statistics across updates. This is a *snapshot view*: the
/// source of truth is the obs::MetricsRegistry the manager's site owns
/// (see metrics()), and stats() materializes one of these from the
/// registry's counters on each call.
struct ManagerStats {
  std::map<Tier, size_t> resolved_by;
  size_t violations = 0;
  /// Tier-3 evaluation attempts actually issued (including retries).
  size_t remote_attempts = 0;
  /// Attempts beyond the first of their episode.
  size_t remote_retries = 0;
  /// Episodes that exhausted the retry policy without an answer.
  size_t remote_failures = 0;
  /// Checks resolved as kDeferred because the remote site was unreachable.
  size_t deferred = 0;
  /// Deferred checks skipped without a remote attempt (circuit open).
  size_t breaker_fast_fails = 0;
  /// Deferred checks later re-verified as holding.
  size_t deferred_recovered = 0;
  /// Deferred checks later found violated (the optimistic apply was
  /// compensated by rollback). Counted in `violations` too.
  size_t deferred_violations = 0;
  /// Tier-3 checks admitted to the resolution loop. Accounting invariant
  /// (absent hard errors): t3_admitted == resolved_by[kFullCheck] +
  /// deferred + shed_checks.
  size_t t3_admitted = 0;
  /// Tier-3 checks shed with kResourceExhausted (execution budget spent) —
  /// disjoint from `deferred`, which counts unreachable-site deferrals.
  size_t shed_checks = 0;
  /// Budget-exhaustion events observed anywhere in the pipeline (fan-out
  /// sheds, exhausted deferred re-checks, queue-overflow refusals).
  size_t budget_exhausted = 0;
  /// Queue entries dropped by OverflowPolicy::kShedOldest.
  size_t deferred_dropped = 0;
  /// Catch-up recoveries observed: a site's breaker re-closing after an
  /// outage (multi-site topologies only; a 1-site manager never counts
  /// these).
  size_t sites_recovered = 0;
  /// Cache entries revalidated by recovery reconciliation passes.
  size_t cache_revalidated = 0;
  /// Hedged batched reads issued / won / wasted (hedging on only; each
  /// issued hedge billed one extra remote trip, and issued == won +
  /// wasted always holds).
  size_t hedges_issued = 0;
  size_t hedges_won = 0;
  size_t hedges_wasted = 0;
  /// Tier-3 checks shed because a member site's latency EWMA said the
  /// trip could not finish inside the episode's remaining deadline — the
  /// refuse-before-pay rule extended to latency: the trip is never paid.
  /// A subset of shed_checks (the t3 accounting invariant is unchanged).
  size_t latency_shed = 0;
  AccessStats access;
};

/// The per-constraint verdict for one update.
struct CheckReport {
  std::string constraint;
  Outcome outcome = Outcome::kUnknown;
  Tier tier = Tier::kFullCheck;
  /// Remote attempts beyond the first consumed by this check (tier 3).
  size_t retries = 0;
  /// Why a kDeferred outcome was deferred: kUnavailable/kDeadlineExceeded
  /// when the remote site was unreachable, kResourceExhausted when the
  /// execution budget shed the check. kOk for any other outcome.
  StatusCode reason = StatusCode::kOk;
  /// Set on the deferred reports of an update that was refused because the
  /// deferred queue was full (OverflowPolicy::kRejectUpdate, or
  /// kBlockRecheck whose drain could not make room).
  bool queue_overflow = false;
};

/// One enqueued re-verification: `constraint` must be re-checked because
/// the remote site was unreachable when `update` was (optimistically)
/// applied.
struct DeferredCheck {
  Update update;
  std::string constraint;
  /// Position in the update stream, for reports.
  uint64_t sequence = 0;
};

/// How one deferred check was eventually resolved.
struct DeferredResolution {
  DeferredCheck check;
  Outcome outcome = Outcome::kUnknown;  // kHolds or kViolated
  /// Whether the late-detected violation was compensated by rolling the
  /// update back (false when a later update already removed its effect).
  bool rolled_back = false;
  /// Remote attempts beyond the first consumed by the resolving
  /// re-evaluation — the recheck counterpart of CheckReport::retries, so
  /// every counted retry surfaces in exactly one per-episode record.
  size_t retries = 0;
};

/// Integrity-constraint manager implementing the paper's tiered checking
/// discipline (Section 2, "Limits on Available Information"):
///
///   T0 at registration: constraints subsumed by the rest are dropped
///      (Theorem 3.1) — they can never be the first to break.
///   T1 per update: query-independence using only the constraint and the
///      update (Section 4). Free of any data access.
///   T2 per update: the complete local test using local data only
///      (Theorem 5.2; the Fig 6.1 interval programs and the Theorem 5.3 RA
///      tests are used through the same entry point when they apply).
///      Charged at local-access prices.
///   T3 fallback: full evaluation of the rewritten state, touching remote
///      relations at remote prices. The only tier that can answer
///      "violated" for constraints over remote data.
///
/// Updates are checked BEFORE being applied; a violated update is rejected
/// (the database is left unchanged) and reported.
///
/// Tier 3 is the only tier that depends on the remote site, and the remote
/// site may be down (attach a FaultInjector to site() to simulate that).
/// The manager degrades gracefully: T3 evaluations run under a retry
/// policy with exponential backoff, a circuit breaker fails fast while the
/// site is known-dead, and checks that remain unanswerable resolve as
/// Outcome::kDeferred — the update is optimistically applied (or rejected,
/// per DeferredPolicy) and enqueued for automatic re-verification when the
/// circuit closes, with rollback compensation if the late check finds a
/// violation.
class ConstraintManager {
 public:
  // Defined in the .cc: the body (and unwind paths) needs the complete
  // Admission type behind inflight_.
  explicit ConstraintManager(ManagerConfig config);
  /// perfbench/main.cc's positional form; forwards to the ManagerConfig
  /// constructor. Deleted with PlanCacheConfig in ROADMAP item 7.
  ConstraintManager(std::set<std::string> local_preds, CostModel costs,
                    ResilienceConfig resilience, ParallelConfig parallel,
                    RemoteCacheConfig remote_cache, BudgetConfig budget,
                    TopologyConfig topology, PlanCacheConfig,
                    PipelineConfig pipeline);

  /// Drains any in-flight pipelined episodes (uncommitted speculation is
  /// discarded, never applied) before tearing down the thread pool.
  ~ConstraintManager();

  /// Registers a constraint. If the already-registered constraints subsume
  /// it, it is recorded as redundant (never checked) and `subsumed` is set
  /// in the returned flag. Names are unique: a name already registered,
  /// subsumed or not, is kInvalidArgument (reports, deferred entries and
  /// plan-cache keys all name constraints by it). A program the evaluator
  /// refuses (unsafe or unstratifiable) is rejected with that error and
  /// nothing is registered.
  ///
  /// Everything that depends on the constraint alone is built here, once:
  /// the tier-3 CompiledProgram and the tier-2 artifacts of every local
  /// predicate it mentions. Episodes only read them.
  ///
  /// Drain-first precondition: must not be called with episodes in flight
  /// (registration changes the active set every speculation quantifies
  /// over). The manager drains the pipeline itself on entry, so callers
  /// mixing ApplyUpdateAsync with AddConstraint observe the registration
  /// strictly after every admitted episode.
  Result<bool> AddConstraint(const std::string& name, Program constraint);

  SiteDatabase& site() { return site_; }
  const SiteDatabase& site() const { return site_; }

  /// Checks all active constraints against `u`, applies it if no
  /// violation was found, and reports the verdict per constraint. A report
  /// with outcome kDeferred means the remote site could not be reached;
  /// whether the update was applied is governed by the DeferredPolicy.
  ///
  /// Drains any in-flight pipelined episodes first, so the synchronous and
  /// asynchronous entry points interleave safely (the serial order is
  /// admission order either way).
  Result<std::vector<CheckReport>> ApplyUpdate(const Update& u);

  /// Admits `u` into the episode pipeline. With PipelineConfig::depth 1
  /// (or a budget-armed manager) this is ApplyUpdate with the result
  /// parked for Drain(). With depth D > 1, up to D episodes are in flight
  /// at once: admission snapshots the database and speculates on the
  /// thread pool to stage the episode's remote trips, and when the
  /// pipeline is full the oldest episode is retired through the commit
  /// turn to make room. Results are produced in admission order and
  /// collected by Drain(). See PipelineConfig for the equivalence
  /// guarantee.
  void ApplyUpdateAsync(const Update& u);

  /// Retires every in-flight episode in admission order and returns the
  /// accumulated per-update results (one entry per ApplyUpdateAsync call
  /// since the last Drain, in admission order). Idempotent; an empty
  /// pipeline yields an empty vector.
  std::vector<Result<std::vector<CheckReport>>> Drain();

  /// Zeroes every counter behind stats() (histograms/gauges and the
  /// site's cumulative AccessStats cost are untouched). Drains the
  /// pipeline first: resetting mid-episode would split one episode's
  /// counts across the boundary.
  void ResetStats();

  /// The outcome of an atomic multi-update transaction.
  struct TransactionResult {
    /// Per-update reports, in order, up to and including the first
    /// rejected update (later updates are not checked).
    std::vector<std::vector<CheckReport>> reports;
    bool committed = false;
  };

  /// Applies a sequence of updates atomically: each is checked in order
  /// against the constraints; if any would cause a violation (or is
  /// refused by DeferredPolicy::kReject during an outage), every
  /// previously applied update of the sequence is rolled back and the
  /// database is left exactly as before the call. Drains any in-flight
  /// pipelined episodes first (transactions are serial by definition).
  Result<TransactionResult> ApplyTransaction(const std::vector<Update>& updates);

  /// Attempts to re-verify every queued deferred check by full evaluation
  /// against the current database. An entry whose remote reads still fail
  /// (or whose re-check budget is exhausted) is skipped and re-queued at
  /// the back, so one dead site never pins entries for other, reachable
  /// sites behind it; draining makes bounded passes over the queue until a
  /// pass resolves nothing. Returns the entries decided by this call; late
  /// violations are compensated by rolling the offending update back.
  /// Drains any in-flight pipelined episodes first (the queue is
  /// order-sensitive shared state).
  Result<std::vector<DeferredResolution>> RecheckDeferred();

  /// Pending re-verifications, oldest first.
  const std::deque<DeferredCheck>& deferred_queue() const {
    return deferred_;
  }

  /// The breaker of remote site `site` (one per site; a 1-site manager
  /// has just site_breaker(0)).
  const CircuitBreaker& site_breaker(size_t site) const {
    return *breakers_[site];
  }
  /// Number of remote sites (>= 1).
  size_t sites() const { return site_.sites(); }

  /// The pipeline configuration this manager was built with.
  const PipelineConfig& pipeline() const { return config_.pipeline; }
  /// Episodes currently admitted but not yet retired.
  size_t in_flight() const { return inflight_.size(); }

  /// Snapshot of the aggregate statistics, materialized from the metrics
  /// registry (plus the site's AccessStats). `resolved_by` carries only
  /// tiers that resolved at least one check.
  ManagerStats stats() const;

  /// The manager's metrics registry, owned by its site — every counter
  /// behind stats(), plus the latency histograms and the
  /// distsim/eval/ra/plan counters of the components this manager drives,
  /// all registered at construction whatever the configuration. Per
  /// manager, so concurrent managers (tests, benchmarks) never share
  /// counts. See docs/observability.md for the catalog.
  obs::MetricsRegistry& metrics() { return site_.metrics(); }
  const obs::MetricsRegistry& metrics() const { return site_.metrics(); }

  /// Advances the failure-detector clocks (every site's) without applying
  /// an update (they normally tick once per ApplyUpdate). Lets an idle
  /// caller wait out an open circuit's cooldown before draining the
  /// deferred queue.
  void TickBreaker(uint64_t steps = 1) {
    for (auto& b : breakers_) b->Tick(steps);
  }

 private:
  // Tier-2 artifacts per (constraint, updated local predicate): the
  // unfolded single-CQ form, the Fig 6.1 interval compilation when
  // applicable, and the normalized CQC for the general Theorem 5.2 test.
  // Defined in the .cc.
  struct Tier2Artifacts;

  /// One registered constraint. Built by AddConstraint and immutable
  /// afterwards, so episodes (speculative ones included) share it
  /// read-only.
  struct Registered {
    std::string name;
    /// The program with its safety/stratification analysis done: what
    /// tier 3 evaluates.
    CompiledProgram compiled;
    bool subsumed = false;
    /// The remote base relations a tier-3 evaluation of this constraint
    /// may read, computed once at registration — the episode prefetch
    /// unions these over the tier-3 worklist.
    std::set<std::string> remote_edb;
    /// The sites those relations live at — the placement footprint that
    /// breaker gating, failure blame and the latency shed use at every
    /// site count. A constraint touching no dark site checks normally
    /// while the rest of the topology burns (partial degradation), and a
    /// constraint with no remote relations is never gated at all.
    std::set<size_t> remote_sites;
    /// Keyed by the updated local predicate; active constraints only. A
    /// predicate with no entry has no applicable tier-2 test.
    std::map<std::string, std::shared_ptr<const Tier2Artifacts>> tier2;
  };

  /// Registers the manager's whole metric catalog in metrics() and
  /// resolves the handles. Called once from the constructor; handles are
  /// stable thereafter.
  void InitObservability();

  static size_t TierIndex(Tier tier) { return static_cast<size_t>(tier); }

  /// One update episode in its commit turn, built on the stack by
  /// whoever retires it: ApplyUpdate (and so depth-1 ApplyUpdateAsync)
  /// with nothing staged, CommitHeadToPending with its admission's staged
  /// trips. The phase functions below fill it in order. Defined in the
  /// .cc.
  struct Episode;
  /// One pipelined admission: the update's own copy, its admission
  /// snapshot, the staged trips, and the retire handshake. Defined in the
  /// .cc.
  struct Admission;

  /// Where a check reads from and who observes the reads: the live
  /// database + the site observer + the live deferred queue in the commit
  /// turn, or an admission's snapshot + a discarding observer + the queue
  /// as-of-admission on the speculative path. Defined in the .cc.
  struct CheckContext;

  /// Phase-1 output of one episode: every constraint settled as far as
  /// local information allows (tier-3 candidates stay kFullCheck).
  struct Phase1 {
    /// The update leaves the database unchanged (nothing is checked).
    bool noop = false;
    std::vector<CheckReport> reports;

    /// The tier-3 worklist: the constraints left at kFullCheck, in
    /// constraint order.
    std::vector<size_t> Worklist() const;
    bool Violated() const;
  };

  /// What one tier-3 attempt came to. Defined in the .cc.
  struct Tier3Attempt;

  /// Phase 1 (read-only) through `ctx`: the noop probe, the update's
  /// plan signature, and CheckOne per constraint in constraint order, on
  /// the calling thread. The first check error ends it.
  Result<Phase1> RunPhase1(const Update& u, const CheckContext& ctx);

  /// CheckOne wraps CheckOneImpl with a span and the per-tier latency
  /// histogram. `sig` is the episode's update signature, the per-pattern
  /// component of every plan-cache key the tiers look up. `ctx` routes
  /// every tier-1/2 read (see CheckContext).
  Result<CheckReport> CheckOne(const Registered& r, const Update& u,
                               const UpdateSignature& sig,
                               const CheckContext& ctx);
  Result<CheckReport> CheckOneImpl(const Registered& r, const Update& u,
                                   const UpdateSignature& sig,
                                   const CheckContext& ctx);
  /// Tier 1: whether `r` holds after `u` given the other active
  /// constraints (Section 4), memoized per order type under `key`.
  Result<bool> Tier1Holds(const Registered& r, const Update& u,
                          const std::string& key, const CheckContext& ctx);
  /// Tier 2: the complete local test of an insert (Sections 5-6) through
  /// the registration-time artifacts `t2`; kUnknown when no applicable
  /// test decides.
  Result<Outcome> Tier2Decide(const Tier2Artifacts& t2, const Update& u,
                              const std::string& key, const CheckContext& ctx);
  /// Tier-2 evaluation through a cached RA plan template: binds the
  /// update's tuple into the template and evaluates it. Answers what
  /// RaLocalTestOnInsert answers for that tuple, charging the same reads
  /// (see docs/plan_cache.md). Reads through `ctx`.
  Result<Outcome> EvalPlannedRa(const RaPlanTemplate& tpl, const Update& u,
                                const CheckContext& ctx);

  /// --- The commit turn: every episode retires through CommitTurn, in
  /// --- admission order, on the admitting thread.

  /// The instrumented commit turn (span, latency histogram, queue gauge)
  /// around RetireEpisode.
  Result<std::vector<CheckReport>> CommitTurn(Episode& e);
  /// The phases of one episode, in order; returns its reports.
  Result<std::vector<CheckReport>> RetireEpisode(Episode& e);
  /// Prelude: breaker ticks and the auto-recheck drain.
  Status EpisodePrelude(Episode& e);
  /// Phase 1, live: runs it, bills its plan work, counts what it settled
  /// and derives the tier-3 worklist. A check error returns before the
  /// plan work is billed or any constraint is counted.
  Status SettleLocally(Episode& e);
  /// The tentative apply, the batched remote prefetch of the worklist,
  /// and the worklist's per-check budget scopes.
  Status TentativeApply(Episode& e);
  /// Tier 3 over the worklist, fanned out where verdicts cannot depend on
  /// arrival order; verdicts and counters merge in constraint order.
  Status RunTier3(Episode& e);
  /// Commit and queue policy: rolls the tentative apply back on a
  /// violation or a refusal, else queues the deferred checks.
  Status ApplyQueuePolicy(Episode& e);

  /// One tier-3 attempt at `reg` over `db` — the only place that decides
  /// what an attempt's status means: a verdict, a fast fail, a shed, an
  /// unreachable site or a hard error. Gates on the breakers of the
  /// constraint's sites (a dark site fails fast), optionally sheds when
  /// the sites' latency EWMA already exceeds `scope`'s remaining deadline
  /// (`project_latency`), then claims the sites and runs EvaluateRemote.
  Tier3Attempt AttemptTier3(const Registered& reg, const Database& db,
                            const BudgetScope* scope, bool project_latency);
  /// Runs one tier-3 evaluation of `program` over `db` under the retry
  /// policy and the breakers of `gsites` — the sites the constraint may
  /// touch, whose probe slots the caller has already claimed via
  /// AllowRequest (no-op claims while closed). Exactly one of
  /// RecordSuccess / RecordFailure / CancelProbe is issued per site on
  /// every exit path. OK Result carries the violation verdict; a
  /// kUnavailable/kDeadlineExceeded Result means the episode gave up (the
  /// caller defers); kResourceExhausted means the budget `scope` (null =
  /// unbudgeted) was spent — never retried, never counted against any
  /// breaker (the sites did nothing wrong). `retries_out` receives the
  /// extra attempts consumed.
  Result<bool> EvaluateRemote(const CompiledProgram& program,
                              const Database& db,
                              const std::set<size_t>& gsites,
                              size_t* retries_out, const BudgetScope* scope);
  /// RecheckDeferred body; `episode` (may be null) is the enclosing
  /// ApplyUpdate's budget scope, folded into each re-check's envelope.
  Result<std::vector<DeferredResolution>> RecheckDeferredImpl(
      const BudgetScope* episode);
  /// One re-check of `entry`: replays its update into the drain's
  /// `scratch` pre-state, then attempts tier 3 over it under the entry's
  /// own budget envelope.
  Tier3Attempt RecheckEntry(const DeferredCheck& entry, Database* scratch,
                            const BudgetScope* episode);

  /// Undoes an applied `u` in the live database: every rollback and
  /// refusal.
  Status Undo(const Update& u);

  /// --- Episode scheduler (PipelineConfig; all private state below is
  /// --- touched only by the admitting thread except Admission internals).

  /// Launches the admission's speculation on the thread pool.
  void SpeculateEpisode(Admission* a);
  /// The speculation body: phase 1 against the admission snapshot, its
  /// reads and plan work discarded, to predict the tier-3 worklist whose
  /// remote trips it stages. Runs on a pool worker (or inline on
  /// sequential pools).
  void SpeculatePhase1(Admission* a);
  /// Retires inflight_.front() through the commit turn: waits for its
  /// speculation and appends the result to pending_results_.
  void CommitHeadToPending();
  /// Retires every in-flight episode in admission order.
  void DrainInflightInternal();
  /// Waits for in-flight speculations and discards them uncommitted
  /// (destructor path only).
  void AbandonInflight();

  /// Whether any site's breaker would admit a request (the deferred-drain
  /// gate).
  bool AnyBreakerWouldAllow() const;
  /// What the episode prefetch fetches for a tier-3 `worklist`
  /// (constraint indexes): the remote relations they read at sites whose
  /// breaker is closed. A non-closed site's checks fast-fail without
  /// reading, so prefetching for them would pay trips the uncached path
  /// never pays.
  std::set<std::string> PrefetchPreds(
      const std::vector<size_t>& worklist) const;
  bool AllBreakersClosed() const;
  /// End-of-episode catch-up hook (multi-site only): detects sites whose
  /// breaker re-closed after being observed dark, reconciles their cache
  /// entries poisoned during the outage, and emits recovery metrics. The
  /// queued deferred entries naming the site drain through the normal
  /// auto-recheck on the next update.
  void DetectRecoveries();

  /// Whether reports mean the update was refused (violated, deferred
  /// under DeferredPolicy::kReject, or refused by the queue cap).
  bool UpdateRefused(const std::vector<CheckReport>& reports) const;

  SiteDatabase site_;
  ManagerConfig config_;
  /// config_.budget.armed(), precomputed: the unbudgeted hot path pays exactly
  /// one branch on this flag.
  bool budget_armed_ = false;
  /// One breaker per remote site (heap-allocated: a breaker owns a mutex
  /// and is not movable).
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  /// Recovery bookkeeping: whether site s was observed non-closed at a
  /// detection point since it last recovered (see DetectRecoveries).
  std::vector<bool> site_was_dark_;
  // Only drawn from inside EvaluateRemote on a retriable failure, which
  // requires a fault injector; the parallel tier-3 path (taken only with
  // no injector attached) therefore never touches it concurrently.
  Rng retry_rng_;
  std::vector<Registered> constraints_;
  /// The pattern-keyed plan cache (see docs/plan_cache.md). Wholesale
  /// invalidated on AddConstraint: registration changes the active set
  /// that tier-1 decisions quantify over and the signature constant pool.
  PlanCache plans_;
  /// The distinguished-constant pool of the active constraint set, sorted
  /// and deduped — input to ShapeSignature. Rebuilt on AddConstraint.
  std::vector<Value> plan_constants_;
  std::deque<DeferredCheck> deferred_;
  uint64_t update_sequence_ = 0;

  /// Admitted, not yet retired, in admission order (== commit order).
  std::deque<std::unique_ptr<Admission>> inflight_;
  /// The prefetch batches in-flight speculations slept, each with the
  /// sequence of the admission that slept it. A speculation does not
  /// sleep a batch that an earlier in-flight admission slept at the same
  /// versions (SameFetch): that sleep ends before the earlier admission's
  /// commit turn, hence before its own. Speculations run on pool workers,
  /// so the list has its own lock; an admission's entries leave when it
  /// retires.
  std::mutex staged_mu_;
  std::vector<std::pair<uint64_t, SiteDatabase::SiteBatch>> staged_inflight_;
  /// Results of retired episodes since the last Drain, admission order.
  std::vector<Result<std::vector<CheckReport>>> pending_results_;

  std::unique_ptr<ThreadPool> pool_;

  // Handles into metrics(), resolved once in InitObservability; hot paths
  // pay only the atomic increment. Indexed by TierIndex where per-tier.
  std::array<obs::Counter*, 5> ctr_resolved_{};
  std::array<obs::Histogram*, 5> hist_check_{};
  obs::Counter* ctr_violations_ = nullptr;
  obs::Counter* ctr_remote_attempts_ = nullptr;
  obs::Counter* ctr_remote_retries_ = nullptr;
  obs::Counter* ctr_remote_failures_ = nullptr;
  obs::Counter* ctr_deferred_ = nullptr;
  obs::Counter* ctr_fast_fails_ = nullptr;
  obs::Counter* ctr_deferred_recovered_ = nullptr;
  obs::Counter* ctr_deferred_violations_ = nullptr;
  obs::Counter* ctr_t3_admitted_ = nullptr;
  obs::Counter* ctr_shed_ = nullptr;
  obs::Counter* ctr_budget_exhausted_ = nullptr;
  obs::Counter* ctr_deferred_dropped_ = nullptr;
  obs::Counter* ctr_sites_recovered_ = nullptr;
  obs::Counter* ctr_cache_revalidated_ = nullptr;
  /// Per-site recovery counters ("manager.recovery.site<k>").
  std::vector<obs::Counter*> ctr_site_recovered_;
  /// Hedged-read counters ("manager.hedge.*"), counted by the site.
  obs::Counter* ctr_hedge_issued_ = nullptr;
  obs::Counter* ctr_hedge_won_ = nullptr;
  obs::Counter* ctr_hedge_wasted_ = nullptr;
  obs::Counter* ctr_latency_shed_ = nullptr;
  /// Every counter behind stats() except the site's access counters: what
  /// ResetStats zeroes.
  std::vector<obs::Counter*> stat_counters_;
  /// True iff any site's effective cost model draws latency (non-fixed):
  /// the gate on the EWMA-projection shed.
  bool latency_aware_ = false;
  /// Plan-cache instrumentation. Not part of stats(): ManagerStats reports
  /// what the checks did, not how their plans were obtained.
  obs::Counter* ctr_plan_compiles_ = nullptr;
  obs::Counter* ctr_plan_hits_ = nullptr;
  obs::Counter* ctr_plan_delta_ = nullptr;
  obs::Histogram* hist_plan_compile_ = nullptr;
  obs::Histogram* hist_budget_remaining_ = nullptr;
  obs::Histogram* hist_apply_ = nullptr;
  obs::Histogram* hist_remote_eval_ = nullptr;
  obs::Gauge* gauge_deferred_len_ = nullptr;
  /// Pipeline instrumentation; every increment site is on a pipelined
  /// path, so at depth 1 these read zero. NOT part of stats().
  obs::Counter* ctr_pipe_admitted_ = nullptr;
  obs::Counter* ctr_pipe_committed_ = nullptr;
  obs::Gauge* gauge_pipe_in_flight_ = nullptr;
  obs::Histogram* hist_pipe_commit_wait_ = nullptr;
};

}  // namespace ccpi

#endif  // CCPI_MANAGER_CONSTRAINT_MANAGER_H_
