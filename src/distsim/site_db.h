#ifndef CCPI_DISTSIM_SITE_DB_H_
#define CCPI_DISTSIM_SITE_DB_H_

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "distsim/cost_model.h"
#include "distsim/fault_injector.h"
#include "distsim/remote_accessor.h"
#include "distsim/remote_cache.h"
#include "distsim/topology.h"
#include "eval/engine.h"
#include "obs/metrics.h"
#include "relational/database.h"
#include "util/check.h"

namespace ccpi {

class ThreadPool;

/// Access statistics of one evaluation (or one update-checking episode)
/// over a partitioned database.
struct AccessStats {
  size_t local_tuples = 0;
  size_t remote_tuples = 0;
  size_t remote_trips = 0;
  /// Remote trips that failed (injected fault). A failed trip still pays
  /// the round-trip latency — it is included in remote_trips — but no
  /// tuples came back, so it contributes nothing to remote_tuples.
  size_t remote_failures = 0;
  /// Remote reads served from the snapshot cache: no round trip was paid
  /// and the tuples are billed at cached_tuple_cost, not remote_tuple_cost.
  size_t cache_hits = 0;
  size_t cached_tuples = 0;

  double Cost(const CostModel& model) const {
    return static_cast<double>(local_tuples) * model.local_tuple_cost +
           static_cast<double>(remote_tuples) * model.remote_tuple_cost +
           static_cast<double>(remote_trips) * model.remote_round_trip_cost +
           static_cast<double>(cached_tuples) * model.cached_tuple_cost;
  }

  AccessStats& operator+=(const AccessStats& other) {
    local_tuples += other.local_tuples;
    remote_tuples += other.remote_tuples;
    remote_trips += other.remote_trips;
    remote_failures += other.remote_failures;
    cache_hits += other.cache_hits;
    cached_tuples += other.cached_tuples;
    return *this;
  }

  /// The same logical reads with every cache hit paid as a physical trip
  /// at remote prices: what the reads cost uncached. Exact for a run
  /// without batched prefetch (see SiteDatabase).
  AccessStats Uncached() const {
    AccessStats out = *this;
    out.remote_trips += cache_hits;
    out.remote_tuples += cached_tuples;
    out.cache_hits = 0;
    out.cached_tuples = 0;
    return out;
  }
};

/// A database split into "local" and "remote" predicates, in the sense of
/// Section 5: the site applying updates holds the local relations; every
/// read of a remote relation is charged. The class is an AccessObserver —
/// plug it into EvalOptions (or EvalRa) and it attributes each read to the
/// right side of the partition — and a RemoteAccessor: when a
/// FaultInjector is attached, remote reads can *fail*, surfacing as
/// kUnavailable / kDeadlineExceeded through whatever evaluation is in
/// flight. Local reads never fail.
///
/// The remote side is a Topology of N independent sites (default one):
/// each remote predicate lives at exactly one site (placement map or
/// hash), and each site owns its own fault injector, snapshot cache and
/// cost model, so one site's outage never touches reads bound for
/// another. A single site is simply the N=1 topology — there is no
/// separate single-site path. The aggregate counters are the sums of the
/// per-site ones.
///
/// Every count lives in the site's own metrics registry (metrics()), whose
/// whole `distsim.*` catalog is registered at construction: stats() and
/// site_stats() are snapshot views over those counters, as ManagerStats is
/// over the manager's series in the same registry.
///
/// Every remote read goes through the owning site's snapshot cache: a
/// read of a relation whose content version matches the last successful
/// physical fetch is a cache hit — no round trip, tuples billed at
/// cached_tuple_cost — and a miss pays the physical trip and refreshes
/// the entry. Each read is one *logical* remote read, counted once as a
/// trip or a hit, so without a batched prefetch (a bare site, or any
/// fault injector attached) remote_trips + cache_hits and remote_tuples +
/// cached_tuples are what every read would have cost uncached. See
/// docs/remote_cache.md for the keying, invalidation, and fault-interaction
/// rules, and docs/distsim.md for the topology semantics.
///
/// Thread-safety: the read path (OnRead / ReadRemote) only bumps registry
/// counters (relaxed atomics) and takes shared-mode cache lookups, and may
/// run from many checker threads at once, provided the underlying Database
/// is not mutated concurrently (the manager freezes it for the duration of
/// a fan-out). Cache fills take the cache's exclusive lock and are safe
/// concurrently, but the manager avoids racing fills by prefetching the
/// episode's remote relations before the parallel fan-out. Configuration
/// calls (set_site_fault_injector, set_cache_db, ResetStats, db()
/// mutation) must be externally serialized against reads.
class SiteDatabase : public AccessObserver, public RemoteAccessor {
 public:
  /// Registers the full `distsim.*` catalog (aggregate and per-site, at
  /// any site count) and the `manager.hedge.*` counters in metrics().
  explicit SiteDatabase(std::set<std::string> local_preds,
                        TopologyConfig topology = {});

  bool IsLocal(const std::string& pred) const {
    return local_preds_.count(pred) > 0;
  }

  const Topology& topology() const { return topology_; }
  size_t sites() const { return topology_.sites(); }
  /// The site owning a remote `pred` (callers check IsLocal first).
  size_t SiteOf(const std::string& pred) const {
    return topology_.SiteOf(pred);
  }

  Database& db() { return db_; }
  const Database& db() const { return db_; }

  /// Attaches (or detaches, with nullptr) the fault source for remote
  /// reads of `site`. Per-site fault domains: each remote site may carry
  /// its own injector (its own seed, rates, and outage windows). Not
  /// owned; must outlive the site.
  void set_site_fault_injector(size_t site, FaultInjector* injector) {
    CCPI_CHECK(site < site_states_.size());
    site_states_[site]->injector = injector;
  }
  /// Whether any site has an injector attached — the gate the manager uses
  /// to keep tier-3 sequential (draw alignment is per-site, but verdict
  /// order is global).
  bool any_fault_injector() const {
    for (const auto& st : site_states_) {
      if (st->injector != nullptr) return true;
    }
    return false;
  }

  /// Per-site access pricing (default: every site shares CostModel{}).
  void set_site_cost_model(size_t site, const CostModel& model) {
    CCPI_CHECK(site < site_states_.size());
    site_states_[site]->costs = model;
  }

  /// Arms hedged batched reads: when a batched per-site prefetch's drawn
  /// latency exceeds `after` times that site's observed EWMA, one backup
  /// attempt is issued (billing one extra trip) and the faster of the two
  /// wins the wall clock. 0 (the default) disables hedging entirely —
  /// no extra trips, byte-identical accounting. Issued hedges are counted
  /// in `manager.hedge.{issued,won,wasted}` (see docs/distsim.md "Hedged
  /// reads"): issued == won + wasted always holds, and every issued hedge
  /// billed exactly one extra remote trip to its site. Configuration
  /// call: serialize against reads.
  void set_hedge(uint64_t after) { hedge_after_ = after; }

  /// Exponentially weighted moving average (alpha 1/4) of the site's
  /// observed per-trip latency, in microseconds. 0 until the site's first
  /// non-fixed-model trip — kFixed sites never feed the EWMA, which is
  /// part of the default-config byte-identity guarantee (the latency
  /// machinery is pure dead weight unless a distribution is configured).
  uint64_t site_latency_ewma_us(size_t site) const {
    CCPI_CHECK(site < site_states_.size());
    return site_states_[site]->latency_ewma_q8.load(
               std::memory_order_relaxed) >>
           8;
  }

  /// The registry holding every counter of this site (see
  /// docs/observability.md for the catalog). A ConstraintManager registers
  /// its own series here too and hands it out as its metrics().
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// AccessObserver: attributes `count` enumerated tuples of `pred`.
  /// Each remote read event also counts one round trip; a remote read may
  /// fail when a fault injector is attached.
  Status OnRead(const std::string& pred, size_t count) override;

  /// RemoteAccessor: one remote episode of `count` tuples of `pred`.
  bool IsRemote(const std::string& pred) const override {
    return !IsLocal(pred);
  }
  Status ReadRemote(const std::string& pred, size_t count) override;

  /// Overrides (or with nullptr restores to this site's own db) the
  /// database whose relation versions key cache decisions. The manager
  /// points this at its scratch database while replaying deferred checks,
  /// so a cached fill of the *live* relation is never served for a scratch
  /// relation whose contents differ. Configuration call: the caller must
  /// not have evaluations in flight.
  void set_cache_db(const Database* db) { cache_db_ = db; }

  /// One site's share of a coalesced prefetch: the site's cold or stale
  /// relations among the requested ones, each with the content version and
  /// size it was planned at (equal version => equal contents).
  struct SiteBatch {
    struct Entry {
      std::string pred;
      uint64_t version = 0;
      size_t count = 0;
      /// The cache held an older version (billed as an invalidation).
      bool stale = false;
    };
    size_t site = 0;
    std::vector<Entry> entries;

    /// Same site, same relations at the same versions: the batch fetches
    /// exactly the same data.
    bool SameFetch(const SiteBatch& other) const;
  };

  /// Coalesced prefetch: groups `preds` by owning site and pays ONE round
  /// trip per site that has at least one cold or stale relation (local and
  /// already-valid entries are skipped silently), so a following fan-out
  /// reads them as cache hits. The per-site batches run concurrently on
  /// `pool` (sequentially when pool is null or single threaded). Tuples
  /// are billed per relation; each batch bills one trip (plus one per
  /// issued hedge), one cache miss per relation, one invalidation per
  /// stale relation and one fill-latency sample. With `budget` set, a
  /// batch is refused before paying its trip once the scope's deadline
  /// has passed or its token is cancelled (kResourceExhausted: nothing is
  /// billed, the relations stay unfilled, and the evaluations that follow
  /// shed against the same scope); the concurrent batches share it. A
  /// planned batch that SameFetch-es one of `staged` was already slept at
  /// speculation time: it is billed identically but does not sleep again.
  /// No-op when any fault injector is attached — under injection each
  /// logical read must consume its own draw of the failure schedule in
  /// evaluation order, which a batched pass would reorder.
  void PrefetchRemoteBatched(const std::set<std::string>& preds,
                             ThreadPool* pool,
                             const BudgetScope* budget = nullptr,
                             const std::vector<SiteBatch>& staged = {});

  /// Speculative prefetch of a pipelined episode (see docs/concurrency.md):
  /// plans the batches PrefetchRemoteBatched would fetch for `preds` as
  /// seen in `snapshot`, sleeps one simulated trip on the calling thread
  /// for each batch that `claim` accepts (a batch it declines was slept
  /// already, by an earlier speculation), and returns every planned batch.
  /// Each sleep is traced as a `distsim.stage_batch` span. Nothing else
  /// observable happens — no counter, cache, injector or latency-draw
  /// interaction — so it is safe on a speculation thread concurrently with
  /// commits. Under a non-fixed latency model the sleep is a draw-free hint
  /// (the fast mode): the real draw is consumed when the batch is billed,
  /// in commit order.
  std::vector<SiteBatch> StageRemoteBatches(
      const std::set<std::string>& preds, const Database& snapshot,
      const std::function<bool(const SiteBatch&)>& claim) const;

  /// Catch-up reconciliation for a site returning from outage: re-fetches
  /// every relation of `site` among `preds` whose cache entry went stale
  /// or was poisoned while the site was dark (cold, never-fetched
  /// relations are left to demand fetching). Reads route through the
  /// normal ReadRemote path, so trips are billed, draws consumed, and a
  /// still-faulting fetch simply leaves the entry poisoned. Returns how
  /// many entries were revalidated.
  size_t RecoverSiteCache(size_t site, const std::set<std::string>& preds);

  /// Snapshot of the statistics accumulated since the last Reset
  /// (by value: counters may be advancing on other threads). The remote
  /// fields are the sums of the per-site slices.
  AccessStats stats() const {
    AccessStats s;
    s.local_tuples = local_tuples_->value();
    for (size_t site = 0; site < site_states_.size(); ++site) {
      s += site_stats(site);
    }
    return s;
  }

  /// Per-site slice of the remote counters (local_tuples is always 0:
  /// local reads belong to the checking site, not a remote one).
  AccessStats site_stats(size_t site) const {
    CCPI_CHECK(site < site_states_.size());
    const SiteState& st = *site_states_[site];
    AccessStats s;
    s.remote_tuples = st.remote_tuples.site->value();
    s.remote_trips = st.remote_trips.site->value();
    s.remote_failures = st.remote_failures.site->value();
    s.cache_hits = st.cache_hits.site->value();
    s.cached_tuples = st.cached_tuples.site->value();
    return s;
  }

  /// Zeroes every `distsim.*` counter and the hedge counters (histograms
  /// keep their samples). Exclusivity contract: the caller must
  /// guarantee no read (OnRead / ReadRemote) is in flight — the fields are
  /// zeroed one by one, so a reset concurrent with a draining fan-out
  /// would yield a torn snapshot (some of the episode's reads surviving
  /// the reset, others not). The manager only resets between episodes;
  /// debug builds enforce the contract by tracking in-flight reads and
  /// aborting if a reset races one.
  void ResetStats();

 private:
  /// One remote-access counter as one site bills it: every Add bumps the
  /// aggregate `distsim.<what>` and the site's `distsim.site<k>.<what>`
  /// together, so the per-site counters always sum to the aggregate.
  struct SiteCounter {
    obs::Counter* total = nullptr;
    obs::Counter* site = nullptr;
    void Add(uint64_t n) const {
      total->Add(n);
      site->Add(n);
    }
    void Reset() const {
      total->Reset();
      site->Reset();
    }
  };

  /// Everything one remote site owns. Heap-allocated (the atomics and the
  /// cache's mutex are not movable) and stable for the SiteDatabase's
  /// lifetime.
  struct SiteState {
    SiteCounter remote_tuples;
    SiteCounter remote_trips;
    SiteCounter remote_failures;
    SiteCounter cache_hits;
    SiteCounter cached_tuples;
    FaultInjector* injector = nullptr;
    RemoteReadCache cache;
    CostModel costs;
    // Index of the site's next latency draw. Counter-keyed (each draw
    // seeds a fresh splitmix64 from (latency_seed, site, index)) so the
    // drawn multiset per site is deterministic per seed regardless of
    // which thread pays which trip. kFixed consumes none.
    std::atomic<uint64_t> latency_draws{0};
    // EWMA of observed trip latency, fixed-point microseconds << 8.
    // 0 = no observation yet (real latencies are >= 1us, so 0 is free
    // as the sentinel).
    std::atomic<uint64_t> latency_ewma_q8{0};
    // `distsim.site<k>.latency_us`; observed only by non-fixed models.
    obs::Histogram* latency_us = nullptr;
  };

  /// The database whose relation versions (and sizes, for prefetch) drive
  /// cache decisions: the override when set, this site's own db otherwise.
  const Database& cache_source() const {
    return cache_db_ != nullptr ? *cache_db_ : db_;
  }

  /// One physical round trip to `site` (ReadRemote's miss path): span,
  /// trip/tuple/failure billing, fault injection, fill-latency timing.
  Status FetchRemote(size_t site, const std::string& pred, size_t count);

  /// Blocks for the site's simulated per-trip latency. kFixed: sleeps
  /// CostModel::trip_latency_us (no-op at the default of 0) and consumes
  /// no randomness. Non-fixed models: consumes one latency draw, feeds
  /// the EWMA/histogram, and sleeps the drawn value.
  void SimulateTripLatency(size_t site) const;

  /// One deterministic latency draw for `site` (non-fixed models only):
  /// advances the site's draw counter, samples the configured
  /// distribution, and observes the sample into the EWMA and the
  /// `distsim.site<k>.latency_us` histogram. Returns microseconds.
  uint64_t DrawTripLatencyUs(size_t site) const;

  /// The batched-prefetch trip with hedging armed: reads the EWMA first,
  /// draws the primary latency, and — when the primary overshoots
  /// hedge_after_ x EWMA — draws a deterministic single backup (launched
  /// at the threshold instant) and sleeps min(primary, threshold +
  /// backup) instead of the full primary. Returns how many *extra*
  /// physical trips the caller must bill (0 or 1) and bumps the hedge
  /// counters. Falls back to SimulateTripLatency semantics when hedging
  /// cannot apply (hedging off, fixed model, or no EWMA yet). With
  /// `sleep` false every draw and counter advances exactly the same but
  /// nothing blocks (the trip was already slept at speculation time).
  size_t SimulateHedgedTripLatency(size_t site, bool sleep) const;

  /// The batches of `preds` against `db`'s relation versions and the
  /// current cache contents; empty when any injector is attached.
  std::vector<SiteBatch> PlanBatches(const std::set<std::string>& preds,
                                     const Database& db) const;

  /// One coalesced trip: the `budget` gate (may be null), the (hedged)
  /// trip latency — slept iff `sleep` — and the
  /// trip/miss/invalidation/tuple/fill billing.
  Status FetchBatch(const SiteBatch& batch, bool sleep,
                    const BudgetScope* budget);

  std::set<std::string> local_preds_;
  Topology topology_;
  Database db_;
  // Debug-only occupancy count of OnRead/ReadRemote, backing the
  // ResetStats exclusivity assertion. Increments are compiled out in
  // NDEBUG builds, so the release hot path is untouched.
  std::atomic<int> active_reads_{0};
  std::vector<std::unique_ptr<SiteState>> site_states_;
  const Database* cache_db_ = nullptr;
  // Hedged-read threshold (set_hedge). 0 = off.
  uint64_t hedge_after_ = 0;
  // The handles below are resolved once here (registry handles are stable
  // for the registry's lifetime), so the read path never does a name
  // lookup; the per-site ones live in SiteState.
  obs::MetricsRegistry metrics_;
  obs::Counter* local_tuples_ = metrics_.GetCounter("distsim.local_tuples");
  obs::Counter* cache_misses_ = metrics_.GetCounter("distsim.cache_misses");
  obs::Counter* cache_invalidations_ =
      metrics_.GetCounter("distsim.cache_invalidations");
  obs::Histogram* fill_latency_ =
      metrics_.GetHistogram("distsim.cache_fill_latency_ns");
  obs::Counter* hedges_issued_ = metrics_.GetCounter("manager.hedge.issued");
  obs::Counter* hedges_won_ = metrics_.GetCounter("manager.hedge.won");
  obs::Counter* hedges_wasted_ = metrics_.GetCounter("manager.hedge.wasted");
};

}  // namespace ccpi

#endif  // CCPI_DISTSIM_SITE_DB_H_
