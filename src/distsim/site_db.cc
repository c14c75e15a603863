#include "distsim/site_db.h"

#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ccpi {

namespace {

void SleepUs(uint64_t us) {
  if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
}

/// Bucket edges of the per-site latency histograms, in microseconds
/// (1us..100ms in 1-2-5 steps); the default registry ladder is scaled for
/// nanoseconds and would crush every realistic trip into one bucket.
std::vector<uint64_t> LatencyBoundsUs() {
  return {1,    2,    5,    10,    20,    50,    100,   200,
          500,  1000, 2000, 5000,  10000, 20000, 50000, 100000};
}

/// Debug-only occupancy tracking of the read path (see ResetStats).
class ActiveReadGuard {
 public:
  explicit ActiveReadGuard(std::atomic<int>* count) : count_(count) {
#ifndef NDEBUG
    count_->fetch_add(1, std::memory_order_acq_rel);
#endif
  }
  ~ActiveReadGuard() {
#ifndef NDEBUG
    count_->fetch_sub(1, std::memory_order_acq_rel);
#endif
  }
  ActiveReadGuard(const ActiveReadGuard&) = delete;
  ActiveReadGuard& operator=(const ActiveReadGuard&) = delete;

 private:
  [[maybe_unused]] std::atomic<int>* count_;
};

}  // namespace

SiteDatabase::SiteDatabase(std::set<std::string> local_preds,
                           TopologyConfig topology)
    : local_preds_(std::move(local_preds)), topology_(std::move(topology)) {
  site_states_.reserve(topology_.sites());
  for (size_t s = 0; s < topology_.sites(); ++s) {
    const std::string prefix = "distsim.site" + std::to_string(s) + ".";
    auto counter = [&](const std::string& what) {
      return SiteCounter{metrics_.GetCounter("distsim." + what),
                         metrics_.GetCounter(prefix + what)};
    };
    auto st = std::make_unique<SiteState>();
    st->remote_tuples = counter("remote_tuples");
    st->remote_trips = counter("remote_trips");
    st->remote_failures = counter("remote_failures");
    st->cache_hits = counter("cache_hits");
    st->cached_tuples = counter("cached_tuples");
    st->latency_us =
        metrics_.GetHistogram(prefix + "latency_us", LatencyBoundsUs());
    site_states_.push_back(std::move(st));
  }
}

void SiteDatabase::ResetStats() {
  CCPI_DCHECK(active_reads_.load(std::memory_order_acquire) == 0);
  for (obs::Counter* c : {local_tuples_, cache_misses_, cache_invalidations_,
                          hedges_issued_, hedges_won_, hedges_wasted_}) {
    c->Reset();
  }
  // Latency draw counters and EWMAs survive a stats reset on purpose:
  // they are simulation state (the position in the deterministic latency
  // schedule), not observability.
  for (auto& st : site_states_) {
    for (const SiteCounter* c : {&st->remote_tuples, &st->remote_trips,
                                 &st->remote_failures, &st->cache_hits,
                                 &st->cached_tuples}) {
      c->Reset();
    }
  }
}

Status SiteDatabase::OnRead(const std::string& pred, size_t count) {
  if (IsLocal(pred)) {
    ActiveReadGuard guard(&active_reads_);
    local_tuples_->Add(count);
    return Status::OK();
  }
  return ReadRemote(pred, count);
}

Status SiteDatabase::ReadRemote(const std::string& pred, size_t count) {
  ActiveReadGuard guard(&active_reads_);
  const size_t site = topology_.SiteOf(pred);
  SiteState& st = *site_states_[site];
  if (st.budget != nullptr) {
    // Deadline/cancellation gate before any trip accounting or injector
    // draw, so a hit and a miss refuse at the same point. The trip cap
    // itself is charged in FetchRemote, where the physical trip is paid.
    CCPI_RETURN_IF_ERROR(st.budget->Check());
  }
  const uint64_t version = cache_source().Get(pred, 0).version();
  switch (st.cache.Find(pred, version)) {
    case RemoteReadCache::Lookup::kHit: {
      if (st.injector != nullptr) {
        // Every logical remote read consumes exactly one draw of the
        // site's seeded failure schedule, hit or not: the schedule is
        // indexed by logical reads, so what the cache happens to hold
        // (which prefetches, staged batches and scratch replays decide)
        // never decides which read faults. A fault on a cached read is
        // billed as a failed physical trip and poisons the entry, exactly
        // like a failed fill.
        Status fault = st.injector->InjectOnRead(pred);
        if (!fault.ok()) {
          st.remote_trips.Add(1);
          st.remote_failures.Add(1);
          st.cache.NoteFailure(pred);
          return fault;
        }
      }
      st.cache_hits.Add(1);
      st.cached_tuples.Add(count);
      return Status::OK();
    }
    case RemoteReadCache::Lookup::kMissStale:
      cache_invalidations_->Add(1);
      [[fallthrough]];
    case RemoteReadCache::Lookup::kMissCold: {
      cache_misses_->Add(1);
      Status fetched = FetchRemote(site, pred, count);
      if (fetched.ok()) {
        st.cache.NoteFill(pred, version);
      } else {
        st.cache.NoteFailure(pred);
      }
      return fetched;
    }
  }
  return Status::OK();  // unreachable: the switch above is exhaustive
}

void SiteDatabase::SimulateTripLatency(size_t site) const {
  const SiteState& st = *site_states_[site];
  if (st.costs.latency_model == LatencyModel::kFixed) {
    // The historical path: constant cost, no randomness consumed.
    SleepUs(st.costs.trip_latency_us);
    return;
  }
  SleepUs(DrawTripLatencyUs(site));
}

uint64_t SiteDatabase::DrawTripLatencyUs(size_t site) const {
  SiteState& st = *site_states_[site];
  const CostModel& cm = st.costs;
  CCPI_DCHECK(cm.latency_model != LatencyModel::kFixed);
  // Counter-keyed draw: each trip seeds its own splitmix64 from
  // (seed, site, draw index), so the multiset of latencies a site sees is
  // a pure function of the seed — whichever thread happens to pay which
  // trip. The site stride is the golden-ratio constant the fault
  // injectors already use for per-site seed derivation.
  const uint64_t index =
      st.latency_draws.fetch_add(1, std::memory_order_relaxed);
  Rng rng(cm.latency_seed + static_cast<uint64_t>(site) *
                                0x9e3779b97f4a7c15ull +
          index * 0xbf58476d1ce4e5b9ull);
  uint64_t us = cm.latency_lo_us;
  switch (cm.latency_model) {
    case LatencyModel::kFixed:
      us = cm.trip_latency_us;  // unreachable: gated above
      break;
    case LatencyModel::kUniform:
      us = cm.latency_lo_us +
           rng.Below(cm.latency_hi_us - cm.latency_lo_us + 1);
      break;
    case LatencyModel::kTwoPoint: {
      const uint64_t slow_per_million =
          static_cast<uint64_t>(cm.latency_slow_share * 1e6);
      us = rng.Below(1000000) < slow_per_million ? cm.latency_hi_us
                                                 : cm.latency_lo_us;
      break;
    }
  }
  // EWMA update, alpha 1/4, fixed-point us << 8. The first observation
  // seeds the average directly (0 is the no-observation sentinel; real
  // latencies are >= 1us so it cannot occur naturally).
  const uint64_t sample_q8 = us << 8;
  uint64_t cur = st.latency_ewma_q8.load(std::memory_order_relaxed);
  uint64_t next;
  do {
    next = cur == 0 ? sample_q8 : cur - (cur >> 2) + (sample_q8 >> 2);
  } while (!st.latency_ewma_q8.compare_exchange_weak(
      cur, next, std::memory_order_relaxed));
  st.latency_us->Observe(us);
  return us;
}

size_t SiteDatabase::SimulateHedgedTripLatency(size_t site,
                                               bool sleep) const {
  SiteState& st = *site_states_[site];
  const auto pause = [sleep](uint64_t us) {
    if (sleep) SleepUs(us);
  };
  if (st.costs.latency_model == LatencyModel::kFixed) {
    // A deterministic site: no draw, and a backup could never beat the
    // primary — the plain trip, zero extra billing.
    pause(st.costs.trip_latency_us);
    return 0;
  }
  // Read the EWMA *before* drawing, so the threshold reflects past trips
  // only; the primary draw itself then feeds the average as usual.
  const uint64_t ewma = site_latency_ewma_us(site);
  const uint64_t primary = DrawTripLatencyUs(site);
  if (hedge_after_ == 0 || ewma == 0 || primary <= hedge_after_ * ewma) {
    pause(primary);
    return 0;
  }
  // The primary overshot: launch the deterministic single backup at the
  // threshold instant and take whichever attempt lands first. The backup
  // is a real physical trip whatever happens — the caller bills exactly
  // one extra trip per issued hedge, won or wasted.
  const uint64_t threshold = hedge_after_ * ewma;
  const uint64_t backup = DrawTripLatencyUs(site);
  const uint64_t hedged = threshold + backup;
  hedges_issued_->Add(1);
  if (hedged < primary) {
    hedges_won_->Add(1);
    pause(hedged);
  } else {
    hedges_wasted_->Add(1);
    pause(primary);
  }
  return 1;
}

Status SiteDatabase::FetchRemote(size_t site, const std::string& pred,
                                 size_t count) {
  SiteState& st = *site_states_[site];
  obs::Span span("distsim.remote_read", "distsim");
  if (span.active()) {
    span.Attr("pred", pred);
    span.Attr("site", static_cast<int64_t>(site));
    span.Attr("tuples", static_cast<int64_t>(count));
  }
  obs::Stopwatch fill_timer;
  if (st.budget != nullptr) {
    // A trip the budget cannot afford is refused, not paid: no trip is
    // billed, no injector draw is consumed.
    CCPI_RETURN_IF_ERROR(st.budget->OnRemoteTrip());
  }
  SimulateTripLatency(site);
  // The round trip is paid whether or not it succeeds.
  st.remote_trips.Add(1);
  if (st.injector != nullptr) {
    Status fault = st.injector->InjectOnRead(pred);
    if (!fault.ok()) {
      st.remote_failures.Add(1);
      if (span.active()) span.Attr("fault", fault.message());
      return fault;
    }
  }
  st.remote_tuples.Add(count);
  fill_timer.RecordTo(fill_latency_);
  return Status::OK();
}

bool SiteDatabase::SiteBatch::SameFetch(const SiteBatch& other) const {
  if (site != other.site || entries.size() != other.entries.size()) {
    return false;
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].pred != other.entries[i].pred ||
        entries[i].version != other.entries[i].version) {
      return false;
    }
  }
  return true;
}

std::vector<SiteDatabase::SiteBatch> SiteDatabase::PlanBatches(
    const std::set<std::string>& preds, const Database& db) const {
  std::vector<SiteBatch> batches;
  if (preds.empty() || any_fault_injector()) {
    return batches;
  }
  std::vector<SiteBatch> by_site(site_states_.size());
  for (const std::string& pred : preds) {
    if (IsLocal(pred)) continue;
    const size_t site = SiteOf(pred);
    const Relation& rel = db.Get(pred, 0);
    const RemoteReadCache::Lookup lookup =
        site_states_[site]->cache.Find(pred, rel.version());
    if (lookup == RemoteReadCache::Lookup::kHit) continue;
    by_site[site].site = site;
    by_site[site].entries.push_back(
        {pred, rel.version(), rel.size(),
         lookup == RemoteReadCache::Lookup::kMissStale});
  }
  for (SiteBatch& batch : by_site) {
    if (!batch.entries.empty()) batches.push_back(std::move(batch));
  }
  return batches;
}

Status SiteDatabase::FetchBatch(const SiteBatch& batch, bool sleep) {
  ActiveReadGuard guard(&active_reads_);
  SiteState& st = *site_states_[batch.site];
  obs::Span span("distsim.remote_batch", "distsim");
  if (span.active()) {
    span.Attr("site", static_cast<int64_t>(batch.site));
    span.Attr("relations", static_cast<int64_t>(batch.entries.size()));
  }
  obs::Stopwatch fill_timer;
  if (st.budget != nullptr) {
    CCPI_RETURN_IF_ERROR(st.budget->Check());
    // One budgeted trip buys the whole batch; a refusal leaves the
    // site's entries unfilled and the fan-out's own reads will shed
    // against the same exhausted scope.
    CCPI_RETURN_IF_ERROR(st.budget->OnRemoteTrip());
  }
  // The batched trip is the hedging point: with hedging armed and a
  // slow draw, a single backup attempt races the primary. An issued
  // hedge bills exactly one extra physical trip (the tuples are billed
  // once — both attempts carry the same payload); the budget's trip cap
  // was charged once above, before paying, per the refuse-before-pay
  // rule — the backup is the simulator's own recovery of an
  // already-approved trip, not a second logical fetch.
  const size_t trips = 1 + SimulateHedgedTripLatency(batch.site, sleep);
  st.remote_trips.Add(trips);
  for (const SiteBatch::Entry& e : batch.entries) {
    if (e.stale) cache_invalidations_->Add(1);
    cache_misses_->Add(1);
    st.remote_tuples.Add(e.count);
    st.cache.NoteFill(e.pred, e.version);
  }
  fill_timer.RecordTo(fill_latency_);
  return Status::OK();
}

void SiteDatabase::PrefetchRemoteBatched(const std::set<std::string>& preds,
                                         ThreadPool* pool,
                                         const std::vector<SiteBatch>& staged) {
  const std::vector<SiteBatch> batches = PlanBatches(preds, cache_source());
  auto fetch = [&](size_t k) -> Status {
    // A batch staged by a speculation is billed only if it is exactly the
    // fetch planned here (same relations, same versions); otherwise the
    // staged one vanishes without a trace and this trip is paid in full.
    bool slept = false;
    for (const SiteBatch& s : staged) slept = slept || s.SameFetch(batches[k]);
    return FetchBatch(batches[k], /*sleep=*/!slept);
  };
  if (pool != nullptr && pool->thread_count() > 1 && batches.size() > 1) {
    // Concurrent per-site round trips. Budget refusals surface per site;
    // the fan-out that follows re-encounters the same exhausted scopes,
    // so swallowing the status here loses nothing.
    (void)pool->ParallelFor(batches.size(), fetch);
  } else {
    for (size_t k = 0; k < batches.size(); ++k) (void)fetch(k);
  }
}

std::vector<SiteDatabase::SiteBatch> SiteDatabase::StageRemoteBatches(
    const std::set<std::string>& preds, const Database& snapshot) const {
  std::vector<SiteBatch> batches = PlanBatches(preds, snapshot);
  // The round trips' wall-clock cost is paid here, on the speculation
  // thread, where it overlaps other episodes' work; everything observable
  // waits for the commit-time PrefetchRemoteBatched. A non-fixed model
  // sleeps its fast mode: consuming a real draw here would let
  // speculation-thread interleaving reorder the site's deterministic
  // latency stream.
  for (const SiteBatch& batch : batches) {
    const CostModel& costs = site_states_[batch.site]->costs;
    SleepUs(costs.latency_model == LatencyModel::kFixed
                ? costs.trip_latency_us
                : costs.latency_lo_us);
  }
  return batches;
}

size_t SiteDatabase::RecoverSiteCache(size_t site,
                                      const std::set<std::string>& preds) {
  CCPI_CHECK(site < site_states_.size());
  SiteState& st = *site_states_[site];
  size_t revalidated = 0;
  for (const std::string& pred : preds) {
    if (IsLocal(pred) || SiteOf(pred) != site) continue;
    const Relation& rel = cache_source().Get(pred, 0);
    // Only entries the outage left behind (poisoned fills, versions that
    // moved while the site was dark) are reconciled; never-fetched
    // relations stay cold until a check actually needs them.
    if (st.cache.Find(pred, rel.version()) !=
        RemoteReadCache::Lookup::kMissStale) {
      continue;
    }
    obs::Span span("distsim.site_recover", "distsim");
    if (span.active()) {
      span.Attr("pred", pred);
      span.Attr("site", static_cast<int64_t>(site));
    }
    // The normal read path: the trip is billed, the site's schedule draw
    // is consumed, and a fetch that still faults leaves the entry
    // poisoned for the next recovery pass.
    if (ReadRemote(pred, rel.size()).ok()) ++revalidated;
  }
  return revalidated;
}

}  // namespace ccpi
