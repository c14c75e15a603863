#include "manager/constraint_manager.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <optional>

#include "core/cqc_form.h"
#include "core/icq_compiler.h"
#include "core/local_test.h"
#include "datalog/unfold.h"
#include "eval/engine.h"
#include "obs/trace.h"
#include "ra/ra_eval.h"
#include "subsumption/subsumption.h"
#include "updates/independence.h"

namespace ccpi {

const char* TierToString(Tier tier) {
  switch (tier) {
    case Tier::kSubsumed:
      return "subsumed";
    case Tier::kUnaffected:
      return "unaffected";
    case Tier::kIndependence:
      return "independence";
    case Tier::kLocalTest:
      return "local-test";
    case Tier::kFullCheck:
      return "full-check";
  }
  return "?";
}

namespace {

bool Mentions(const Program& p, const std::string& pred) {
  for (const Rule& r : p.rules) {
    for (const Literal& l : r.body) {
      if (!l.is_comparison() && l.atom.pred == pred) return true;
    }
  }
  return false;
}

Update InverseOf(const Update& u) {
  return u.kind == Update::Kind::kInsert ? Update::Delete(u.pred, u.tuple)
                                         : Update::Insert(u.pred, u.tuple);
}

/// Whether the effect of `u` is visible in `db`. After `u` was applied
/// this says nothing has undone or superseded it (compensation never
/// "rolls back" an update whose effect is already gone); before, it says
/// `u` is a no-op (an insert of a present tuple or a delete of an absent
/// one), which cannot change any constraint.
bool EffectPresent(const Update& u, const Database& db) {
  bool contains = db.Contains(u.pred, u.tuple);
  return u.kind == Update::Kind::kInsert ? contains : !contains;
}

/// Seed of the retry policy's jitter stream.
constexpr uint64_t kRetrySeed = 0x5eed;

constexpr Tier kAllTiers[] = {Tier::kSubsumed, Tier::kUnaffected,
                              Tier::kIndependence, Tier::kLocalTest,
                              Tier::kFullCheck};

/// Observer of a speculative phase 1: its reads are never charged, since
/// the commit turn runs phase 1 again and charges its own.
struct DiscardingObserver : AccessObserver {
  Status OnRead(const std::string&, size_t) override { return Status::OK(); }
};

/// Plan-cache work of one phase 1: the entries it consulted, billed to the
/// plan.* counters in the commit turn, like its local reads. Billing asks
/// each entry whether an earlier commit billed it already (a hit) or not
/// (a compile), so the counts follow the serial order whatever stored the
/// entry: a speculation's tally is dropped, and the commit turn's phase 1
/// counts what a serial run would.
struct PlanTally {
  /// Called once, in the episode's commit turn.
  void Bill(PlanCache& cache, obs::Counter* compiles, obs::Counter* hits,
            obs::Counter* delta) const {
    uint64_t compiled = 0;
    for (const std::string& key : tier1) compiled += cache.BillTier1(key);
    for (const std::string& key : templates) {
      compiled += cache.BillTemplate(key);
    }
    compiles->Add(compiled);
    hits->Add(tier1.size() + templates.size() - compiled);
    delta->Add(delta_tuples);
  }

  std::vector<std::string> tier1;
  std::vector<std::string> templates;
  uint64_t delta_tuples = 0;
};

}  // namespace

/// Read routing of one constraint check. The commit turn reads the live
/// database, charges the site observer, and consults the live deferred
/// queue; a speculative phase 1 reads its admission snapshot, discards its
/// charges, and consults the queue as of admission. Either way its
/// plan-cache work goes to `plans`. Check latencies and RA counters go to
/// `metrics`, which is null on the speculative path, so a pipelined
/// episode's phase 1 is counted once, by its commit turn.
struct ConstraintManager::CheckContext {
  const Database* db;
  AccessObserver* observer;
  const std::deque<DeferredCheck>* deferred;
  PlanTally* plans;
  obs::MetricsRegistry* metrics;
};

/// One pipelined admission. Admission state is written by the admitting
/// thread before the speculation task is launched; `staged` is written
/// only by the task; the done/cv handshake publishes it back to the
/// committing (admitting) thread. After `done`, the admission is owned by
/// the committer again.
struct ConstraintManager::Admission {
  Update update;
  uint64_t sequence = 0;
  /// Admission-time MVCC snapshot (copy-on-write Database copy).
  Database snapshot;
  /// The deferred queue as of admission; tier 2's verified-data adjustment
  /// reads it.
  std::deque<DeferredCheck> deferred_snapshot;
  /// The speculation's output (valid once `done`): per-site prefetch
  /// batches staged for the predicted tier-3 worklist, latency already
  /// slept; billed or silently discarded at the commit turn.
  std::vector<SiteDatabase::SiteBatch> staged;

  // ---- Retire handshake.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
};

/// One update episode in its commit turn. Nothing here allocates until a
/// phase needs it, so the episode of ApplyUpdate costs no more than the
/// locals of one function.
struct ConstraintManager::Episode {
  Episode(const Update& u, uint64_t seq,
          const std::vector<SiteDatabase::SiteBatch>& staged_batches)
      : update(u), sequence(seq), staged(staged_batches) {}

  const Update& update;
  /// The serial position, drawn at admission.
  const uint64_t sequence;
  /// Prefetch batches a pipelined admission's speculation already slept
  /// (empty for ApplyUpdate): a hint for TentativeApply, never a verdict.
  const std::vector<SiteDatabase::SiteBatch>& staged;
  /// The execution envelope: inert unless budgets are armed, in which
  /// case `budget` points at it.
  BudgetScope scope;
  const BudgetScope* budget = nullptr;
  Phase1 phase1;
  /// Constraint indexes left for tier 3, in constraint order.
  std::vector<size_t> worklist;
  bool violated = false;
  bool any_deferred = false;
  /// Budget-armed episodes only: the per-check children of `scope`, one
  /// per worklist entry.
  std::vector<BudgetScope> check_scopes;
};

/// The result of one tier-3 attempt (see AttemptTier3).
struct ConstraintManager::Tier3Attempt {
  /// kHolds or kViolated when the evaluation answered, else kDeferred.
  Outcome outcome = Outcome::kDeferred;
  /// Why a kDeferred attempt has no verdict: kResourceExhausted when the
  /// budget (or the latency projection) shed it, else the unreachable
  /// site's kUnavailable/kDeadlineExceeded.
  StatusCode reason = StatusCode::kOk;
  /// A breaker refused the attempt: nothing was evaluated.
  bool fast_fail = false;
  /// Shed by the latency projection before paying a trip.
  bool latency_shed = false;
  size_t retries = 0;
  /// A hard error: neither a verdict nor a deferral; the caller fails.
  Status error;
};

std::vector<size_t> ConstraintManager::Phase1::Worklist() const {
  std::vector<size_t> worklist;
  for (size_t i = 0; i < reports.size(); ++i) {
    if (reports[i].tier == Tier::kFullCheck) worklist.push_back(i);
  }
  return worklist;
}

bool ConstraintManager::Phase1::Violated() const {
  return std::any_of(reports.begin(), reports.end(), [](const CheckReport& r) {
    return r.outcome == Outcome::kViolated;
  });
}

void ConstraintManager::InitObservability() {
  obs::MetricsRegistry& m = metrics();
  // The counters behind stats(); ResetStats zeroes exactly these.
  auto stat = [&](const std::string& name) {
    stat_counters_.push_back(m.GetCounter(name));
    return stat_counters_.back();
  };
  for (Tier tier : kAllTiers) {
    std::string suffix = TierToString(tier);
    ctr_resolved_[TierIndex(tier)] = stat("manager.resolved." + suffix);
    hist_check_[TierIndex(tier)] =
        m.GetHistogram("manager.check_latency_ns." + suffix);
  }
  ctr_violations_ = stat("manager.violations");
  ctr_remote_attempts_ = stat("manager.remote.attempts");
  ctr_remote_retries_ = stat("manager.remote.retries");
  ctr_remote_failures_ = stat("manager.remote.failed_episodes");
  ctr_deferred_ = stat("manager.deferred.total");
  ctr_fast_fails_ = stat("manager.deferred.fast_fail");
  ctr_deferred_recovered_ = stat("manager.deferred.recovered");
  ctr_deferred_violations_ = stat("manager.deferred.violations");
  ctr_t3_admitted_ = stat("manager.t3_admitted");
  ctr_shed_ = stat("manager.shed_checks");
  ctr_budget_exhausted_ = stat("manager.budget_exhausted");
  ctr_deferred_dropped_ = stat("manager.deferred.dropped");
  ctr_hedge_issued_ = stat("manager.hedge.issued");
  ctr_hedge_won_ = stat("manager.hedge.won");
  ctr_hedge_wasted_ = stat("manager.hedge.wasted");
  ctr_latency_shed_ = stat("manager.latency_shed");
  ctr_sites_recovered_ = stat("manager.recovery.sites");
  ctr_cache_revalidated_ = stat("manager.recovery.revalidated");
  for (size_t s = 0; s < site_.sites(); ++s) {
    ctr_site_recovered_.push_back(
        stat("manager.recovery.site" + std::to_string(s)));
  }
  ctr_plan_compiles_ = m.GetCounter("plan.compiles");
  ctr_plan_hits_ = m.GetCounter("plan.hits");
  ctr_plan_delta_ = m.GetCounter("plan.delta_tuples");
  hist_plan_compile_ = m.GetHistogram("plan.compile_latency_ns");
  // Millisecond-scale bounds: the registry's default ladder is tuned for
  // nanosecond latencies, while this histogram records wall-clock budget
  // left when a deadlined episode completes.
  hist_budget_remaining_ = m.GetHistogram(
      "manager.budget_remaining_ms",
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
  hist_apply_ = m.GetHistogram("manager.apply_latency_ns");
  hist_remote_eval_ = m.GetHistogram("manager.remote_eval_latency_ns");
  gauge_deferred_len_ = m.GetGauge("manager.deferred_queue_len");
  ctr_pipe_admitted_ = m.GetCounter("manager.pipeline.admitted");
  ctr_pipe_committed_ = m.GetCounter("manager.pipeline.committed");
  gauge_pipe_in_flight_ = m.GetGauge("manager.pipeline.in_flight");
  hist_pipe_commit_wait_ = m.GetHistogram("manager.pipeline.commit_wait_ns");
  // The components this manager drives count into the same registry on
  // first use; naming them here keeps the catalog fixed from the start.
  for (const char* name :
       {"eval.evaluations", "eval.rule_evals", "eval.fixpoint_rounds",
        "eval.tuples_derived", "eval.budget_checks", "ra.evaluations",
        "ra.nodes_evaluated"}) {
    m.GetCounter(name);
  }
}

ConstraintManager::ConstraintManager(ManagerConfig config)
    : site_(config.local_preds, config.topology),
      config_(std::move(config)),
      budget_armed_(config_.budget.armed()),
      retry_rng_(kRetrySeed),
      pool_(std::make_unique<ThreadPool>(config_.parallel.threads)) {
  // One independent fault domain per site: each gets its own breaker
  // (same config) and its own recovery bookkeeping.
  breakers_.reserve(site_.sites());
  for (size_t s = 0; s < site_.sites(); ++s) {
    breakers_.push_back(
        std::make_unique<CircuitBreaker>(config_.resilience.breaker));
  }
  site_was_dark_.assign(site_.sites(), false);
  // Price every site with the manager's cost model, folding in the
  // topology's per-site latency overrides (the billing weights stay
  // uniform; only the latency distribution is per-site). Without this the
  // sites keep the default CostModel{}, which silently zeroes
  // trip_latency_us — the simulated round trips would be billed but never
  // block, and latency-hiding machinery could not be measured.
  const auto& latency_overrides = site_.topology().config().site_latency;
  for (size_t s = 0; s < site_.sites(); ++s) {
    CostModel priced = config_.costs;
    auto it = latency_overrides.find(s);
    if (it != latency_overrides.end()) {
      const SiteLatencyOverride& o = it->second;
      priced.latency_model = o.model;
      if (o.model == LatencyModel::kFixed) priced.trip_latency_us = o.fixed_us;
      priced.latency_lo_us = o.lo_us;
      priced.latency_hi_us = o.hi_us;
      priced.latency_slow_share = o.slow_share;
    }
    if (priced.latency_model != LatencyModel::kFixed) latency_aware_ = true;
    site_.set_site_cost_model(s, priced);
  }
  InitObservability();
  site_.set_hedge(config_.remote_cache.hedge_after);
}

ConstraintManager::ConstraintManager(
    std::set<std::string> local_preds, CostModel costs,
    ResilienceConfig resilience, ParallelConfig parallel,
    RemoteCacheConfig remote_cache, BudgetConfig budget,
    TopologyConfig topology, PlanCacheConfig, PipelineConfig pipeline)
    : ConstraintManager(ManagerConfig{std::move(local_preds), costs,
                                      resilience, parallel, remote_cache,
                                      budget, std::move(topology), pipeline}) {}

ConstraintManager::~ConstraintManager() { AbandonInflight(); }

void ConstraintManager::ResetStats() {
  // Resetting mid-flight would split one episode's counts across the
  // boundary; retire everything first.
  DrainInflightInternal();
  CCPI_DCHECK(inflight_.empty());
  for (obs::Counter* c : stat_counters_) c->Reset();
}

ManagerStats ConstraintManager::stats() const {
  ManagerStats s;
  for (Tier tier : kAllTiers) {
    uint64_t n = ctr_resolved_[TierIndex(tier)]->value();
    if (n > 0) s.resolved_by[tier] = n;
  }
  s.violations = ctr_violations_->value();
  s.remote_attempts = ctr_remote_attempts_->value();
  s.remote_retries = ctr_remote_retries_->value();
  s.remote_failures = ctr_remote_failures_->value();
  s.deferred = ctr_deferred_->value();
  s.breaker_fast_fails = ctr_fast_fails_->value();
  s.deferred_recovered = ctr_deferred_recovered_->value();
  s.deferred_violations = ctr_deferred_violations_->value();
  s.t3_admitted = ctr_t3_admitted_->value();
  s.shed_checks = ctr_shed_->value();
  s.budget_exhausted = ctr_budget_exhausted_->value();
  s.deferred_dropped = ctr_deferred_dropped_->value();
  s.sites_recovered = ctr_sites_recovered_->value();
  s.cache_revalidated = ctr_cache_revalidated_->value();
  s.hedges_issued = ctr_hedge_issued_->value();
  s.hedges_won = ctr_hedge_won_->value();
  s.hedges_wasted = ctr_hedge_wasted_->value();
  s.latency_shed = ctr_latency_shed_->value();
  s.access = site_.stats();
  return s;
}

struct ConstraintManager::Tier2Artifacts {
  Rule rule;                            // the unfolded single-CQ form
  bool arithmetic_free = false;         // Theorem 5.3 applies
  std::optional<IcqCompilation> icq;    // Fig 6.1 machinery, if applicable
  std::optional<Cqc> cqc;               // general Theorem 5.2 form
};

Result<bool> ConstraintManager::AddConstraint(const std::string& name,
                                              Program constraint) {
  for (const Registered& r : constraints_) {
    if (r.name == name) {
      return Status::InvalidArgument("constraint " + name +
                                     " is already registered");
    }
  }
  // Tier 3's analysis (safety, stratification, predicate partition)
  // depends on the program alone: run it once, here, so a program the
  // evaluator refuses is rejected before anything is registered rather
  // than failing whichever episode first reaches tier 3.
  Registered reg;
  reg.name = name;
  CCPI_ASSIGN_OR_RETURN(reg.compiled, CompileProgram(std::move(constraint)));
  // Registration changes the active set every speculation quantifies over
  // (tier-1 assumptions, the signature constant pool): retire in-flight
  // episodes before touching it.
  DrainInflightInternal();
  CCPI_DCHECK(inflight_.empty());
  std::vector<Program> active;
  for (const Registered& r : constraints_) {
    if (!r.subsumed) active.push_back(r.compiled.program);
  }
  if (!active.empty()) {
    Result<ContainmentDecision> decision =
        Subsumes(reg.compiled.program, active);
    if (decision.ok()) {
      reg.subsumed = decision->outcome == Outcome::kHolds;
    } else if (decision.status().code() != StatusCode::kUnsupported) {
      return decision.status();
    }
  }
  // Registration-time footprint: which remote relations a tier-3
  // evaluation of this constraint may touch (prefetch unions them), and
  // the sites they live at, for breaker gating — so a constraint with no
  // remote reads is never gated.
  for (const std::string& pred : reg.compiled.edb_preds) {
    if (site_.IsLocal(pred)) continue;
    reg.remote_edb.insert(pred);
    reg.remote_sites.insert(site_.SiteOf(pred));
  }
  // Tier 2 is asked only about inserts into a local relation the
  // constraint mentions, and only for active constraints: compile those
  // artifacts now, one entry per predicate some test applies to.
  Result<UCQ> unfolded = UnfoldToUCQ(reg.compiled.program);
  if (!reg.subsumed && unfolded.ok() && unfolded->size() == 1 &&
      !(*unfolded)[0].HasNegation()) {
    const Rule rule = (*unfolded)[0].ToRule();
    const bool arithmetic_free = !(*unfolded)[0].HasArithmetic();
    for (const Rule& r : reg.compiled.program.rules) {
      for (const Literal& l : r.body) {
        const std::string& pred = l.atom.pred;
        if (l.is_comparison() || !site_.IsLocal(pred) ||
            reg.tier2.count(pred) > 0) {
          continue;
        }
        auto built = std::make_shared<Tier2Artifacts>();
        built->rule = rule;
        built->arithmetic_free = arithmetic_free;
        Result<IcqCompilation> icq = AnalyzeIcq(rule, pred);
        if (icq.ok()) built->icq = std::move(*icq);
        Result<Cqc> cqc = MakeCqc(rule, pred);
        if (cqc.ok()) built->cqc = std::move(*cqc);
        if (built->icq.has_value() || built->cqc.has_value() ||
            arithmetic_free) {
          reg.tier2.emplace(pred, std::move(built));
        }
      }
    }
  }
  const bool subsumed = reg.subsumed;
  constraints_.push_back(std::move(reg));
  // Registration is a plan-cache epoch: the tier-1 memo quantifies over
  // the set of active constraints, which just changed, so every cached
  // decision (and, wholesale for simplicity, every RA template) is
  // dropped. The distinguished-constant pool the order-type keys are taken
  // against is refreshed too (see docs/plan_cache.md).
  plans_.Invalidate();
  std::vector<const Program*> active_programs;
  for (const Registered& r : constraints_) {
    if (!r.subsumed) active_programs.push_back(&r.compiled.program);
  }
  plan_constants_ = CollectProgramConstants(active_programs);
  return subsumed;
}

Result<CheckReport> ConstraintManager::CheckOne(const Registered& r,
                                                const Update& u,
                                                const UpdateSignature& sig,
                                                const CheckContext& ctx) {
  obs::Span span("manager.check", "manager");
  obs::Stopwatch sw;
  Result<CheckReport> report = CheckOneImpl(r, u, sig, ctx);
  if (report.ok()) {
    if (span.active()) {
      span.Attr("constraint", r.name);
      span.Attr("tier", TierToString(report->tier));
      span.Attr("outcome", OutcomeToString(report->outcome));
    }
    if (ctx.metrics != nullptr) {
      sw.RecordTo(hist_check_[TierIndex(report->tier)]);
    }
  }
  return report;
}

Result<CheckReport> ConstraintManager::CheckOneImpl(
    const Registered& r, const Update& u, const UpdateSignature& sig,
    const CheckContext& ctx) {
  CheckReport report{r.name, Outcome::kHolds, Tier::kUnaffected};
  // Tier 1 prefilter: the constraint cannot see the updated relation.
  if (!Mentions(r.compiled.program, u.pred)) return report;

  // The plan-cache key for this (constraint, update pattern).
  const std::string pattern_key = r.name + '\x1f' + sig.Key();
  CCPI_ASSIGN_OR_RETURN(bool independent, Tier1Holds(r, u, pattern_key, ctx));
  if (independent) {
    report.tier = Tier::kIndependence;
    return report;
  }

  // Tier 2: complete local test with local data — insertions into a local
  // relation, single-CQ constraints (Sections 5 and 6), through the
  // artifacts AddConstraint compiled per (constraint, predicate). Local
  // reads never fail: tiers 0-2 keep answering through any remote outage.
  auto found = r.tier2.find(u.pred);
  if (u.kind == Update::Kind::kInsert && found != r.tier2.end()) {
    CCPI_ASSIGN_OR_RETURN(report.outcome,
                          Tier2Decide(*found->second, u, pattern_key, ctx));
    if (report.outcome != Outcome::kUnknown) {
      report.tier = Tier::kLocalTest;
      return report;
    }
  }

  report.outcome = Outcome::kUnknown;  // needs the full (remote) check
  report.tier = Tier::kFullCheck;
  return report;
}

Result<bool> ConstraintManager::Tier1Holds(const Registered& r,
                                           const Update& u,
                                           const std::string& key,
                                           const CheckContext& ctx) {
  // Constraints + update only (Section 4). The decision is a pure
  // function of (constraint, update pattern, active constraint set): it
  // relates the update's values to each other and to the constraints'
  // constants only by equality and by their place in a dense order, so two
  // updates of the same order type get the same verdict — memoizable per
  // pattern (see docs/plan_cache.md). AddConstraint invalidates the memo
  // wholesale.
  std::optional<PlanCache::Tier1Decision> memo = plans_.FindTier1(key);
  if (!memo.has_value()) {
    obs::Stopwatch compile_sw;
    std::vector<Program> assumed;
    for (const Registered& other : constraints_) {
      if (!other.subsumed && other.name != r.name) {
        assumed.push_back(other.compiled.program);
      }
    }
    Result<ContainmentDecision> independent =
        HoldsAfterUpdate(r.compiled.program, u, assumed);
    if (!independent.ok() &&
        independent.status().code() != StatusCode::kUnsupported) {
      return independent.status();
    }
    // Memoize both verdicts — holds and falls-through (kUnsupported
    // included) — but never a hard error, which returned above.
    memo = PlanCache::Tier1Decision{independent.ok() &&
                                    independent->outcome == Outcome::kHolds};
    plans_.StoreTier1(key, *memo);
    compile_sw.RecordTo(hist_plan_compile_);
  }
  ctx.plans->tier1.push_back(key);
  return memo->holds;
}

Result<Outcome> ConstraintManager::Tier2Decide(const Tier2Artifacts& t2,
                                               const Update& u,
                                               const std::string& key,
                                               const CheckContext& ctx) {
  // Tier 2 may only trust *verified* local data. A tuple inserted
  // optimistically while its own check is still deferred must not serve
  // as evidence (e.g. interval coverage) for accepting further updates:
  // one unverified insert could otherwise launder arbitrarily many
  // dependents past the local test, and its late rollback would leave
  // them standing unchecked. A row deleted under a deferred check is
  // simply absent: it proves nothing about the remote data, which may
  // have changed since the delete. The overlay hides the pending inserts;
  // later queue entries win.
  const Relation& live = ctx.db->Get(u.pred, u.tuple.size());
  VerifiedOverlay pending;
  bool has_pending = false;
  for (const DeferredCheck& d : *ctx.deferred) {
    if (d.update.pred != u.pred) continue;
    has_pending = true;
    if (d.update.kind == Update::Kind::kInsert) {
      pending[d.update.tuple] = false;
    } else {
      pending.erase(d.update.tuple);
    }
  }

  // Fastest applicable method first: the Fig 6.1 interval machinery, then
  // the Theorem 5.3 RA test, then the general Theorem 5.2 test. The first
  // that applies decides, kUnknown included.
  if (t2.icq.has_value()) {
    size_t rows_read = 0;
    Result<Outcome> o =
        IcqDirectTestOnInsert(*t2.icq, live, pending, u.tuple, &rows_read);
    if (o.ok()) {
      // t's key group only, always a local read.
      CCPI_RETURN_IF_ERROR(ctx.observer->OnRead(u.pred, rows_read));
      return *o;
    }
  }
  // The RA and Theorem 5.2 tests step aside while any update of L is
  // pending: they read L from the database directly, where unverified
  // tuples would be visible, and with several local subgoals the new tuple
  // can join a hidden insert, or a deleted row whose delete is later
  // rolled back, so the verified rows alone do not decide.
  if (has_pending) return Outcome::kUnknown;
  if (t2.arithmetic_free) {
    // The Theorem 5.3 compilation happens once per update pattern: the
    // compiled template is cached and later same-shape tuples are *bound*
    // into it (delta evaluation) instead of recompiling. The bound test
    // (which reports its own reads) is evaluated on every update.
    std::shared_ptr<const RaPlanTemplate> tpl = plans_.FindTemplate(key);
    if (tpl == nullptr) {
      obs::Stopwatch compile_sw;
      Result<RaPlanTemplate> built = CompileRaPlan(t2.rule, u.pred, u.tuple);
      // A failed compile falls through undecided and is neither cached
      // nor billed, so error behavior stays per-update.
      if (built.ok()) {
        tpl = plans_.StoreTemplate(
            key, std::make_shared<const RaPlanTemplate>(std::move(*built)));
        compile_sw.RecordTo(hist_plan_compile_);
      }
    }
    if (tpl != nullptr) {
      ctx.plans->templates.push_back(key);
      Result<Outcome> o = EvalPlannedRa(*tpl, u, ctx);
      if (o.ok()) return *o;
    }
  }
  if (t2.cqc.has_value()) {
    Result<LocalTestResult> o =
        CompleteLocalTestOnInsert(*t2.cqc, u.tuple, live);
    if (o.ok()) {
      CCPI_RETURN_IF_ERROR(ctx.observer->OnRead(u.pred, live.size()));
      return o->outcome;
    }
  }
  return Outcome::kUnknown;
}

Result<Outcome> ConstraintManager::EvalPlannedRa(const RaPlanTemplate& tpl,
                                                 const Update& u,
                                                 const CheckContext& ctx) {
  // RaLocalTestOnInsert over a prebuilt template: trivial outcomes are
  // shape-stable, so they transfer to every bound tuple.
  if (tpl.trivially_holds) return Outcome::kHolds;
  if (tpl.trivially_violated) return Outcome::kViolated;
  RaExprPtr bound = tpl.Bind(u.tuple);
  ++ctx.plans->delta_tuples;
#ifndef NDEBUG
  // The locality guarantee RaLocalTestOnInsert enforces: a bound Theorem
  // 5.3 test reads only the updated local relation.
  {
    std::set<std::string> scans;
    bound->CollectScanPreds(&scans);
    for (const std::string& pred : scans) CCPI_CHECK(pred == u.pred);
  }
#endif
  CCPI_ASSIGN_OR_RETURN(bool nonempty,
                        RaNonempty(*bound, *ctx.db, ctx.observer, ctx.metrics));
  return nonempty ? Outcome::kHolds : Outcome::kUnknown;
}

std::set<std::string> ConstraintManager::PrefetchPreds(
    const std::vector<size_t>& worklist) const {
  std::set<std::string> preds;
  for (size_t idx : worklist) {
    for (const std::string& pred : constraints_[idx].remote_edb) {
      if (breakers_[site_.SiteOf(pred)]->state() == CircuitState::kClosed) {
        preds.insert(pred);
      }
    }
  }
  return preds;
}

bool ConstraintManager::AnyBreakerWouldAllow() const {
  return std::any_of(breakers_.begin(), breakers_.end(),
                     [](const auto& b) { return b->WouldAllow(); });
}

bool ConstraintManager::AllBreakersClosed() const {
  return std::all_of(breakers_.begin(), breakers_.end(), [](const auto& b) {
    return b->state() == CircuitState::kClosed;
  });
}

Result<bool> ConstraintManager::EvaluateRemote(const CompiledProgram& program,
                                               const Database& db,
                                               const std::set<size_t>& gsites,
                                               size_t* retries_out,
                                               const BudgetScope* scope) {
  obs::Span span("manager.evaluate_remote", "manager");
  if (scope != nullptr) {
    // Admission: a check whose envelope is already spent performs no
    // attempt at all — no retry episode, no breaker traffic, no span
    // timing. The caller sheds it.
    Status admit = scope->Check();
    if (!admit.ok()) {
      if (retries_out != nullptr) *retries_out = 0;
      ctr_budget_exhausted_->Add(1);
      for (size_t s : gsites) breakers_[s]->CancelProbe();
      return admit;
    }
  }
  // Per-site blame needs to know which sites actually failed during this
  // episode. The snapshot/delta read is race-free because the retriable
  // path below only exists under fault injection, which forces tier 3
  // sequential.
  std::vector<size_t> failures_before;
  failures_before.reserve(gsites.size());
  for (size_t s : gsites) {
    failures_before.push_back(site_.site_stats(s).remote_failures);
  }
  obs::Stopwatch sw;
  bool violated = false;
  RetryOutcome episode =
      RunWithRetry(config_.resilience.retry, &retry_rng_, [&]() -> Status {
        EvalOptions options;
        options.observer = &site_;
        options.metrics = &metrics();
        options.budget = scope;
        CCPI_ASSIGN_OR_RETURN(violated, IsViolated(program, db, options));
        return Status::OK();
      });
  sw.RecordTo(hist_remote_eval_);
  ctr_remote_attempts_->Add(episode.attempts);
  if (episode.attempts > 0) {
    ctr_remote_retries_->Add(episode.attempts - 1);
  }
  if (span.active()) {
    span.Attr("attempts", static_cast<int64_t>(episode.attempts));
  }
  if (retries_out != nullptr) {
    *retries_out = episode.attempts > 0 ? episode.attempts - 1 : 0;
  }
  if (!episode.status.ok()) {
    const bool retriable = IsRetriable(episode.status.code());
    if (retriable) ctr_remote_failures_->Add(1);
    // A kResourceExhausted episode was stopped by the budget, not the
    // site: never retried (retrying would spend the same exhausted
    // envelope) and never blamed on the breaker (the site did nothing
    // wrong).
    if (episode.status.code() == StatusCode::kResourceExhausted) {
      ctr_budget_exhausted_->Add(1);
    }
    // Blame exactly the sites whose trips failed during a retriable
    // episode; every other gated site releases its probe claim without a
    // verdict.
    size_t i = 0;
    for (size_t s : gsites) {
      if (retriable &&
          site_.site_stats(s).remote_failures > failures_before[i]) {
        breakers_[s]->RecordFailure();
      } else {
        breakers_[s]->CancelProbe();
      }
      ++i;
    }
    if (span.active()) span.Attr("gave_up", episode.status.message());
    return episode.status;
  }
  // Success feeds every gated site unconditionally — not only the sites
  // whose cached reads happened to pay a trip this time. Delta-gating
  // would read racy per-site counters under the tier-3 fan-out and make
  // breaker state depend on thread count.
  for (size_t s : gsites) breakers_[s]->RecordSuccess();
  return violated;
}

bool ConstraintManager::UpdateRefused(
    const std::vector<CheckReport>& reports) const {
  for (const CheckReport& r : reports) {
    if (r.outcome == Outcome::kViolated) return true;
    if (r.queue_overflow) return true;
    if (r.outcome == Outcome::kDeferred &&
        config_.resilience.on_unreachable == DeferredPolicy::kReject) {
      return true;
    }
  }
  return false;
}

Status ConstraintManager::Undo(const Update& u) {
  return InverseOf(u).ApplyTo(&site_.db());
}

Result<std::vector<CheckReport>> ConstraintManager::ApplyUpdate(
    const Update& u) {
  // The synchronous and asynchronous entry points share one serial order:
  // everything admitted earlier commits first. Admitted here, retired at
  // once: the episode of a depth-1 pipeline, with nothing staged.
  DrainInflightInternal();
  static const std::vector<SiteDatabase::SiteBatch> kUnstaged;
  Episode e(u, update_sequence_++, kUnstaged);
  return CommitTurn(e);
}

Result<std::vector<CheckReport>> ConstraintManager::CommitTurn(Episode& e) {
  obs::Span span("manager.apply_update", "manager");
  if (span.active()) {
    span.Attr("pred", e.update.pred);
    span.Attr("kind",
              e.update.kind == Update::Kind::kInsert ? "insert" : "delete");
  }
  obs::Stopwatch sw;
  Result<std::vector<CheckReport>> reports = RetireEpisode(e);
  sw.RecordTo(hist_apply_);
  gauge_deferred_len_->Set(static_cast<int64_t>(deferred_.size()));
  return reports;
}

Result<std::vector<CheckReport>> ConstraintManager::RetireEpisode(
    Episode& e) {
  // The episode's execution envelope, armed from configuration alone: an
  // unbudgeted manager never reads the clock here — the scope stays inert
  // and every checkpoint downstream is one branch on a null scope.
  if (budget_armed_) {
    e.scope = BudgetScope::Start(
        {.deadline_ms = config_.budget.episode_deadline_ms},
        config_.budget.cancel);
    e.budget = &e.scope;
  }
  CCPI_RETURN_IF_ERROR(EpisodePrelude(e));
  CCPI_RETURN_IF_ERROR(SettleLocally(e));
  if (!e.worklist.empty() && !e.violated) {
    // Tentatively apply, evaluate the undecided constraints on the new
    // state (remote reads charged), roll back on violation. A constraint
    // whose evaluation cannot reach the remote site resolves as kDeferred
    // instead of blocking or failing the whole update.
    CCPI_RETURN_IF_ERROR(TentativeApply(e));
    CCPI_RETURN_IF_ERROR(RunTier3(e));
    CCPI_RETURN_IF_ERROR(ApplyQueuePolicy(e));
  } else if (!e.violated && !e.phase1.noop) {
    CCPI_RETURN_IF_ERROR(e.update.ApplyTo(&site_.db()));
  }

  std::vector<CheckReport>& reports = e.phase1.reports;
  if (!e.phase1.noop && !UpdateRefused(reports)) {
    // An applied update supersedes any queued re-check of its exact
    // inverse: that check's effect no longer exists, so there is nothing
    // left to verify or roll back (and tier 2 never trusted it).
    const Update& u = e.update;
    std::erase_if(deferred_, [&](const DeferredCheck& d) {
      return d.sequence != e.sequence && d.update.pred == u.pred &&
             d.update.tuple == u.tuple && d.update.kind != u.kind;
    });
  }
  if (e.violated) ctr_violations_->Add(1);
  if (e.scope.has_deadline()) {
    hist_budget_remaining_->Observe(e.scope.remaining_ms());
  }
  DetectRecoveries();
  return std::move(reports);
}

Status ConstraintManager::EpisodePrelude(Episode& e) {
  for (std::unique_ptr<CircuitBreaker>& b : breakers_) b->Tick();
  // Opportunistically drain the deferred queue first: once a remote site
  // answers again, earlier optimistic applies are re-verified before new
  // work builds on them. Any reachable site is reason enough to try — the
  // drain itself skips entries whose own sites are still dark.
  if (config_.resilience.auto_recheck && !deferred_.empty() &&
      AnyBreakerWouldAllow()) {
    return RecheckDeferredImpl(e.budget).status();
  }
  return Status::OK();
}

Status ConstraintManager::SettleLocally(Episode& e) {
  // Phase 1 always runs here, live, after the prelude (whose breaker ticks
  // and auto-recheck drain may have changed the database or the queue):
  // a pipelined episode's verdicts are a depth-1 episode's by construction.
  PlanTally plans;
  const CheckContext ctx{&site_.db(), &site_, &deferred_, &plans,
                         &metrics()};
  CCPI_ASSIGN_OR_RETURN(e.phase1, RunPhase1(e.update, ctx));
  plans.Bill(plans_, ctr_plan_compiles_, ctr_plan_hits_, ctr_plan_delta_);
  for (const CheckReport& report : e.phase1.reports) {
    if (report.tier != Tier::kFullCheck) {
      ctr_resolved_[TierIndex(report.tier)]->Add(1);
    }
  }
  e.worklist = e.phase1.Worklist();
  e.violated = e.phase1.Violated();
  return Status::OK();
}

Status ConstraintManager::TentativeApply(Episode& e) {
  CCPI_RETURN_IF_ERROR(e.update.ApplyTo(&site_.db()));
  // Every admitted check is completed, deferred or shed:
  // t3_admitted == resolved_by[kFullCheck] + deferred + shed_checks,
  // plan-cache hits or not (regression-tested in plan_cache_test).
  ctr_t3_admitted_->Add(e.worklist.size());

  // Batched prefetch: coalesce the worklist's remote relations into one
  // round trip per site, before any evaluation, so the per-constraint
  // evaluations (parallel or not) read them as cache hits instead of each
  // paying its own trip. Runs at every thread count — the cache's hit and
  // trip counts must not depend on the fan-out width — but never under
  // fault injection (PrefetchRemoteBatched declines: each logical read
  // must consume its own draw of the failure schedule in evaluation
  // order). A pipelined episode's speculation already slept the trips of
  // its staged batches; those still exactly what is fetched here are
  // billed without sleeping again. A passed episode deadline or a
  // cancelled token refuses each batch before its trip is paid.
  site_.PrefetchRemoteBatched(PrefetchPreds(e.worklist), pool_.get(), e.budget,
                              e.staged);

  // Every undecided constraint gets an *identical* child scope: the
  // episode's absolute deadline and cancellation token, tightened by the
  // per-check envelope (whose own deadline counts from here, after the
  // prefetch). A child depends only on configuration, never on sibling
  // progress, so verdicts cannot depend on the fan-out width.
  if (budget_armed_) {
    e.check_scopes.assign(e.worklist.size(),
                          e.scope.Child(config_.budget.per_check));
  }
  return Status::OK();
}

Status ConstraintManager::RunTier3(Episode& e) {
  // Tier 3 may fan out only when remote verdicts cannot depend on arrival
  // order: the fault injector consumes one RNG draw per remote trip in
  // global order, and an open/half-open breaker admits episodes by
  // arrival — either would make interleaved evaluations
  // seed-irreproducible. With neither in play, each evaluation is a pure
  // function of (program, post-update database) and verdicts merge in
  // constraint order below.
  const size_t n = e.worklist.size();
  const bool parallel = pool_->thread_count() > 1 && n > 1 &&
                        !site_.any_fault_injector() && AllBreakersClosed();
  std::vector<Tier3Attempt> attempts(n);
  auto attempt = [&](size_t k) -> Status {
    attempts[k] = AttemptTier3(constraints_[e.worklist[k]], site_.db(),
                               budget_armed_ ? &e.check_scopes[k] : nullptr,
                               /*project_latency=*/true);
    return Status::OK();
  };
  if (parallel) CCPI_RETURN_IF_ERROR(pool_->ParallelFor(n, attempt));
  for (size_t k = 0; k < n; ++k) {
    if (!parallel) (void)attempt(k);
    const Tier3Attempt& a = attempts[k];
    CCPI_RETURN_IF_ERROR(a.error);
    CheckReport& report = e.phase1.reports[e.worklist[k]];
    report.outcome = a.outcome;
    report.reason = a.reason;
    report.retries = a.retries;
    if (a.outcome != Outcome::kDeferred) {
      ctr_resolved_[TierIndex(Tier::kFullCheck)]->Add(1);
      e.violated = e.violated || a.outcome == Outcome::kViolated;
      continue;
    }
    // No verdict: the optimistic apply stands and the check joins the
    // deferred queue. A shed (the envelope spent before a verdict) is
    // counted apart from an unreachable-site deferral — the site is fine,
    // the budget is not.
    e.any_deferred = true;
    if (a.reason == StatusCode::kResourceExhausted) {
      ctr_shed_->Add(1);
      if (a.latency_shed) ctr_latency_shed_->Add(1);
    } else {
      ctr_deferred_->Add(1);
      if (a.fast_fail) ctr_fast_fails_->Add(1);
    }
  }
  return Status::OK();
}

Status ConstraintManager::ApplyQueuePolicy(Episode& e) {
  // A definite violation wins over any deferral; the conservative policy
  // refuses updates it cannot fully verify.
  if (e.violated) return Undo(e.update);
  if (!e.any_deferred) return Status::OK();
  if (config_.resilience.on_unreachable == DeferredPolicy::kReject) {
    return Undo(e.update);
  }
  // Keep the optimistic apply; queue each undecided constraint for
  // re-verification once the remote site answers — unless the queue cap
  // says the backlog of unverified work is already at its bound.
  std::vector<CheckReport>& reports = e.phase1.reports;
  const size_t fresh =
      std::count_if(reports.begin(), reports.end(), [](const CheckReport& r) {
        return r.outcome == Outcome::kDeferred;
      });
  const BudgetConfig& budget = config_.budget;
  const size_t cap = budget.deferred_queue_cap;
  bool over = cap != 0 && deferred_.size() + fresh > cap;
  if (over && budget.overflow == OverflowPolicy::kBlockRecheck &&
      AnyBreakerWouldAllow()) {
    // Block: one synchronous drain pass to make room, then re-check
    // occupancy; falls back to refusal below if it freed nothing.
    CCPI_RETURN_IF_ERROR(RecheckDeferredImpl(e.budget).status());
    over = deferred_.size() + fresh > cap;
  }
  if (over && budget.overflow != OverflowPolicy::kShedOldest) {
    // The queue bounds the optimistic, still-unverified state this site
    // carries; refuse to exceed it (kRejectUpdate, or a kBlockRecheck
    // drain that could not make room).
    CCPI_RETURN_IF_ERROR(Undo(e.update));
    ctr_budget_exhausted_->Add(1);
    for (CheckReport& r : reports) {
      if (r.outcome == Outcome::kDeferred) r.queue_overflow = true;
    }
    return Status::OK();
  }
  for (const CheckReport& r : reports) {
    if (r.outcome == Outcome::kDeferred) {
      deferred_.push_back(DeferredCheck{e.update, r.constraint, e.sequence});
    }
  }
  // Shed-oldest: admit the fresh entries and drop from the front. A
  // dropped entry's optimistic apply stays standing, permanently
  // unverified — availability bought with bounded, oldest-first
  // verification debt.
  while (cap != 0 && deferred_.size() > cap) {
    deferred_.pop_front();
    ctr_deferred_dropped_->Add(1);
  }
  return Status::OK();
}

ConstraintManager::Tier3Attempt ConstraintManager::AttemptTier3(
    const Registered& reg, const Database& db, const BudgetScope* scope,
    bool project_latency) {
  Tier3Attempt out;
  const std::set<size_t>& sites = reg.remote_sites;
  if (!std::all_of(sites.begin(), sites.end(), [&](size_t s) {
        return breakers_[s]->WouldAllow();
      })) {
    // Circuit open: a site this check needs is known-dead; fail fast.
    // Checks whose sites are all healthy still run — tier-3 degradation
    // is partial, per fault domain.
    out.reason = StatusCode::kUnavailable;
    out.fast_fail = true;
    return out;
  }
  if (project_latency && latency_aware_ && scope != nullptr &&
      scope->has_deadline()) {
    // The refuse-before-pay rule extended from spent budgets to projected
    // latency: when a member site's observed-latency EWMA already says one
    // round trip cannot finish inside the check's remaining deadline, the
    // check is shed *before* paying the trip (no draw consumed, no trip
    // billed), instead of paying it and shedding at the next checkpoint.
    uint64_t worst_us = 0;
    for (size_t s : sites) {
      worst_us = std::max(worst_us, site_.site_latency_ewma_us(s));
    }
    // No observation yet (worst_us == 0): try the trip.
    if (worst_us != 0 && worst_us / 1000 >= scope->remaining_ms()) {
      out.reason = StatusCode::kResourceExhausted;
      out.latency_shed = true;
      return out;
    }
  }
  // Claim the gated sites (no-op claims while closed, which the tier-3
  // fan-out requires). No breaker traffic happened since the gate, so the
  // claim cannot be refused.
  for (size_t s : sites) {
    bool admitted = breakers_[s]->AllowRequest();
    CCPI_DCHECK(admitted);
    (void)admitted;
  }
  Result<bool> violated =
      EvaluateRemote(reg.compiled, db, sites, &out.retries, scope);
  if (violated.ok()) {
    out.outcome = *violated ? Outcome::kViolated : Outcome::kHolds;
    return out;
  }
  // A spent budget sheds; a site unreachable after retries degrades
  // instead of erroring out. Anything else is a hard error.
  const StatusCode code = violated.status().code();
  if (code == StatusCode::kResourceExhausted || IsRetriable(code)) {
    out.reason = code;
  } else {
    out.error = violated.status();
  }
  return out;
}

void ConstraintManager::DetectRecoveries() {
  if (site_.sites() <= 1) return;
  for (size_t s = 0; s < breakers_.size(); ++s) {
    if (breakers_[s]->state() != CircuitState::kClosed) {
      site_was_dark_[s] = true;
      continue;
    }
    if (!site_was_dark_[s]) continue;
    // Outage→closed edge: the site is answering again. Deferred entries
    // naming it drain through the normal auto-recheck rotation; what must
    // happen here is cache reconciliation — entries poisoned by failed
    // reads during the outage are refetched so the first post-recovery
    // checks do not pay surprise misses (or trust nothing).
    site_was_dark_[s] = false;
    obs::Span span("manager.site_recovery", "manager");
    if (span.active()) span.Attr("site", static_cast<int64_t>(s));
    ctr_sites_recovered_->Add(1);
    ctr_site_recovered_[s]->Add(1);
    std::set<std::string> preds;
    for (const Registered& r : constraints_) {
      for (const std::string& pred : r.remote_edb) {
        if (site_.SiteOf(pred) == s) preds.insert(pred);
      }
    }
    size_t revalidated = site_.RecoverSiteCache(s, preds);
    if (revalidated > 0) ctr_cache_revalidated_->Add(revalidated);
    if (span.active()) {
      span.Attr("revalidated", static_cast<int64_t>(revalidated));
    }
  }
}

Result<std::vector<DeferredResolution>> ConstraintManager::RecheckDeferred() {
  // The queue is order-sensitive shared state; retire in-flight episodes
  // before draining it.
  DrainInflightInternal();
  Result<std::vector<DeferredResolution>> resolved = RecheckDeferredImpl(nullptr);
  // An explicit drain is also a recovery observation point: the caller is
  // typically polling after an outage, often with no further updates
  // flowing through ApplyUpdate.
  if (resolved.ok()) DetectRecoveries();
  return resolved;
}

Result<std::vector<DeferredResolution>>
ConstraintManager::RecheckDeferredImpl(const BudgetScope* episode) {
  std::vector<DeferredResolution> resolved;
  if (deferred_.empty()) return resolved;
  obs::Span span("manager.recheck_deferred", "manager");
  if (span.active()) {
    span.Attr("queued", static_cast<int64_t>(deferred_.size()));
  }

  // Re-verify each deferred update against the state it was checked in:
  // a scratch copy of the database with every still-pending optimistic
  // effect removed, then replayed in sequence order. Checking against the
  // raw current state instead would blame the oldest queued update for a
  // violation actually introduced by a younger one.
  Database scratch = site_.db();
  for (const DeferredCheck& entry : deferred_) {
    if (EffectPresent(entry.update, scratch)) {
      CCPI_RETURN_IF_ERROR(InverseOf(entry.update).ApplyTo(&scratch));
    }
  }

  // The evaluations below read `scratch`, not the live database, so cache
  // decisions must key off scratch's relation versions: a scratch relation
  // whose pending effects were just removed carries a fresh version and
  // correctly misses, while untouched relations still share the live
  // version and hit. Restored on every exit path.
  site_.set_cache_db(&scratch);
  struct CacheDbRestore {
    SiteDatabase* site;
    ~CacheDbRestore() { site->set_cache_db(nullptr); }
  } restore_cache_db{&site_};

  // Rotation drain: an entry whose site is still down — or whose re-check
  // budget was spent — is requeued at the back instead of pinning the
  // head, so one dead site never blocks entries for other, reachable
  // sites queued behind it. Each pass visits at most the entries present
  // when it started; draining stops once a full pass resolves nothing.
  bool progress = true;
  while (progress && !deferred_.empty() && AnyBreakerWouldAllow()) {
    progress = false;
    size_t pass = deferred_.size();
    for (size_t i = 0; i < pass && !deferred_.empty(); ++i) {
      if (!AnyBreakerWouldAllow()) break;
      DeferredCheck entry = deferred_.front();
      Tier3Attempt attempt = RecheckEntry(entry, &scratch, episode);
      CCPI_RETURN_IF_ERROR(attempt.error);
      deferred_.pop_front();
      if (attempt.outcome == Outcome::kDeferred) {
        // A site still dark or unreachable, or the budget spent: requeue
        // without touching `progress`, so a queue of only-undecidable
        // entries ends the pass; the next entry may be reachable.
        deferred_.push_back(std::move(entry));
        continue;
      }
      progress = true;
      DeferredResolution res{std::move(entry), attempt.outcome, false,
                             attempt.retries};
      if (res.outcome == Outcome::kViolated) {
        // Late-detected violation: compensate by undoing the optimistic
        // apply — in the replay state and, unless a later update already
        // removed its effect, in the real database.
        ctr_deferred_violations_->Add(1);
        ctr_violations_->Add(1);
        CCPI_RETURN_IF_ERROR(InverseOf(res.check.update).ApplyTo(&scratch));
        if (EffectPresent(res.check.update, site_.db())) {
          CCPI_RETURN_IF_ERROR(Undo(res.check.update));
          res.rolled_back = true;
        }
      } else {
        ctr_deferred_recovered_->Add(1);
      }
      resolved.push_back(std::move(res));
    }
  }
  gauge_deferred_len_->Set(static_cast<int64_t>(deferred_.size()));
  return resolved;
}

ConstraintManager::Tier3Attempt ConstraintManager::RecheckEntry(
    const DeferredCheck& entry, Database* scratch,
    const BudgetScope* episode) {
  // Names are unique and registration is permanent, so every queued entry
  // names a registered constraint.
  auto reg = std::find_if(
      constraints_.begin(), constraints_.end(),
      [&](const Registered& r) { return r.name == entry.constraint; });
  CCPI_CHECK(reg != constraints_.end());
  // Replay this entry's update into the scratch pre-state before its
  // verdict is attempted — a requeued entry keeps its effect replayed, so
  // younger entries are still judged against the state their check
  // originally saw. (A no-op for a second constraint of the same update,
  // or for an update a late rollback already rejected; EffectPresent
  // keeps the replay idempotent across passes.)
  if (!EffectPresent(entry.update, *scratch)) {
    Status applied = entry.update.ApplyTo(scratch);
    if (!applied.ok()) return Tier3Attempt{.error = applied};
  }
  // Each re-check runs under its own envelope: the per-check budget,
  // tightened by the enclosing episode's scope when the drain happens
  // inside a budgeted ApplyUpdate.
  BudgetScope recheck_scope;
  if (episode != nullptr) {
    recheck_scope = episode->Child(config_.budget.per_check);
  } else if (budget_armed_) {
    recheck_scope =
        BudgetScope::Start(config_.budget.per_check, config_.budget.cancel);
  }
  const BudgetScope* scope = recheck_scope.active() ? &recheck_scope : nullptr;
  return AttemptTier3(*reg, *scratch, scope, /*project_latency=*/false);
}

Result<ConstraintManager::TransactionResult> ConstraintManager::ApplyTransaction(
    const std::vector<Update>& updates) {
  // Transactions are serial by definition; retire in-flight episodes so
  // first_sequence below really is the first sequence this call draws.
  DrainInflightInternal();
  TransactionResult result;
  uint64_t first_sequence = update_sequence_;
  // Remember which updates actually change state, for exact rollback.
  std::vector<Update> applied;
  for (const Update& u : updates) {
    bool noop = EffectPresent(u, site_.db());
    CCPI_ASSIGN_OR_RETURN(std::vector<CheckReport> reports, ApplyUpdate(u));
    bool refused = UpdateRefused(reports);
    result.reports.push_back(std::move(reports));
    if (refused) {
      // ApplyUpdate already refused this update; undo the earlier ones in
      // reverse order and drop any re-check entries this transaction
      // enqueued (their updates no longer exist).
      for (auto it = applied.rbegin(); it != applied.rend(); ++it) {
        CCPI_RETURN_IF_ERROR(Undo(*it));
      }
      std::erase_if(deferred_, [&](const DeferredCheck& d) {
        return d.sequence >= first_sequence;
      });
      result.committed = false;
      return result;
    }
    if (!noop) applied.push_back(u);
  }
  result.committed = true;
  return result;
}

// ---------------------------------------------------------------------------
// Episode scheduler: ApplyUpdateAsync admissions, speculative trip staging,
// and retirement in admission order through the commit turn. All scheduler
// state is owned by the admitting thread; speculation tasks touch only
// their own Admission (plus internally thread-safe shared components) and
// publish through the done/cv handshake.

void ConstraintManager::ApplyUpdateAsync(const Update& u) {
  // Budget-armed managers never pipeline: wall-clock deadlines are
  // admission-order sensitive, so speculation could change which checks a
  // deadline sheds.
  const size_t depth = budget_armed_ ? 1 : config_.pipeline.depth;
  if (depth <= 1) {
    // Depth 1: nothing is ever in flight, and the episode is admitted and
    // retired at once, exactly as ApplyUpdate does; the result is parked
    // for Drain.
    pending_results_.push_back(ApplyUpdate(u));
    return;
  }
  // Full pipeline: retire the oldest episode through the commit turn to
  // make room before admitting.
  while (inflight_.size() >= depth) CommitHeadToPending();

  auto a = std::make_unique<Admission>();
  a->update = u;
  // Numbered at admission: admission order == commit order == the serial
  // order, so sequences match depth-1 execution exactly.
  a->sequence = update_sequence_++;
  // The MVCC admission snapshot: a copy-on-write Database copy —
  // O(#relations) shared_ptr bumps, no tuple copying.
  a->snapshot = site_.db();
  a->deferred_snapshot = deferred_;
  ctr_pipe_admitted_->Add(1);
  Admission* raw = a.get();
  inflight_.push_back(std::move(a));
  gauge_pipe_in_flight_->Set(static_cast<int64_t>(inflight_.size()));
  SpeculateEpisode(raw);
}

std::vector<Result<std::vector<CheckReport>>> ConstraintManager::Drain() {
  DrainInflightInternal();
  std::vector<Result<std::vector<CheckReport>>> out;
  out.swap(pending_results_);
  return out;
}

void ConstraintManager::SpeculateEpisode(Admission* a) {
  pool_->Submit([this, a]() {
    try {
      SpeculatePhase1(a);
    } catch (...) {
      // Never expected (the checking code reports through Status); a
      // stray exception just leaves the episode's trips unstaged.
    }
    // Notify while holding the lock: once `done` is visible the committer
    // may retire and free the admission, so nothing may touch `a` after
    // the lock is released.
    std::lock_guard<std::mutex> lock(a->mu);
    a->done = true;
    a->cv.notify_all();
  });
}

Result<ConstraintManager::Phase1> ConstraintManager::RunPhase1(
    const Update& u, const CheckContext& ctx) {
  Phase1 out;
  out.noop = EffectPresent(u, *ctx.db);
  // The episode's update signature — the per-pattern plan-cache key
  // component shared by every constraint's check below. A no-op update
  // checks nothing and needs none.
  std::optional<UpdateSignature> sig;
  if (!out.noop) sig = MakeUpdateSignature(u, plan_constants_);
  out.reports.reserve(constraints_.size());
  for (const Registered& r : constraints_) {
    if (r.subsumed) {
      out.reports.push_back({r.name, Outcome::kHolds, Tier::kSubsumed});
    } else if (out.noop) {
      out.reports.push_back({r.name, Outcome::kHolds, Tier::kUnaffected});
    } else {
      CCPI_ASSIGN_OR_RETURN(CheckReport report, CheckOne(r, u, *sig, ctx));
      out.reports.push_back(std::move(report));
    }
  }
  return out;
}

void ConstraintManager::SpeculatePhase1(Admission* a) {
  const Update& u = a->update;
  // Phase 1 against the snapshot, on this worker, only to predict the
  // tier-3 worklist: its reads, plan work and metrics are dropped, since
  // the commit turn runs phase 1 again live. A check error stages nothing;
  // the commit turn's phase 1 surfaces it.
  DiscardingObserver discard;
  PlanTally unbilled;
  const CheckContext ctx{&a->snapshot, &discard, &a->deferred_snapshot,
                         &unbilled, nullptr};
  Result<Phase1> phase1 = RunPhase1(u, ctx);
  if (!phase1.ok() || phase1->noop || phase1->Violated()) return;

  // Staged remote prefetch: pay the predicted worklist's simulated round
  // trips NOW, on this worker, where they overlap other episodes' stages —
  // the latency-hiding that makes the pipeline beat depth 1 in wall-clock.
  // Only where the commit turn would itself prefetch (no injector —
  // StageRemoteBatches declines otherwise — and the owning site's breaker
  // closed) and never under budgets (budget-armed managers do not
  // pipeline at all). The commit-time tentative apply re-stamps the
  // updated relation's version, so a batch carrying it could never match
  // the commit-time batch: its whole site is left unstaged. A wrong
  // prediction costs only its sleep: the commit turn pays in full every
  // batch that is not exactly a staged one. A batch an earlier in-flight
  // admission already slept is staged without a second sleep (see
  // staged_inflight_); otherwise every admission whose snapshot predates
  // the first commit's cache fill would sleep the same cold trip.
  std::set<std::string> preds = PrefetchPreds(phase1->Worklist());
  if (preds.count(u.pred) > 0) {
    const size_t updated_site = site_.SiteOf(u.pred);
    std::erase_if(preds, [&](const std::string& pred) {
      return site_.SiteOf(pred) == updated_site;
    });
  }
  a->staged = site_.StageRemoteBatches(
      preds, a->snapshot, [&](const SiteDatabase::SiteBatch& batch) {
        std::lock_guard<std::mutex> lock(staged_mu_);
        for (const auto& [sequence, slept] : staged_inflight_) {
          if (sequence < a->sequence && slept.SameFetch(batch)) return false;
        }
        staged_inflight_.emplace_back(a->sequence, batch);
        return true;
      });
}

void ConstraintManager::CommitHeadToPending() {
  if (inflight_.empty()) return;
  Admission* a = inflight_.front().get();
  {
    // Wait for the speculation to publish its staged batches. The wait is
    // the pipeline's only synchronization point.
    obs::Stopwatch sw;
    std::unique_lock<std::mutex> lock(a->mu);
    a->cv.wait(lock, [a]() { return a->done; });
    sw.RecordTo(hist_pipe_commit_wait_);
  }
  Episode e(a->update, a->sequence, a->staged);
  pending_results_.push_back(CommitTurn(e));
  ctr_pipe_committed_->Add(1);
  {
    std::lock_guard<std::mutex> lock(staged_mu_);
    std::erase_if(staged_inflight_,
                  [a](const auto& entry) { return entry.first == a->sequence; });
  }
  inflight_.pop_front();
  gauge_pipe_in_flight_->Set(static_cast<int64_t>(inflight_.size()));
}

void ConstraintManager::DrainInflightInternal() {
  while (!inflight_.empty()) CommitHeadToPending();
}

void ConstraintManager::AbandonInflight() {
  // Destructor path: wait for speculation tasks (they touch this
  // manager's members) but commit nothing — uncommitted episodes are
  // discarded, never applied.
  for (std::unique_ptr<Admission>& a : inflight_) {
    std::unique_lock<std::mutex> lock(a->mu);
    a->cv.wait(lock, [&a]() { return a->done; });
  }
  inflight_.clear();
  staged_inflight_.clear();
}

}  // namespace ccpi
