#ifndef CCPI_DISTSIM_REMOTE_CACHE_H_
#define CCPI_DISTSIM_REMOTE_CACHE_H_

#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_map>

namespace ccpi {

/// Per-relation snapshot cache of remote reads, keyed by the relation's
/// content-version stamp (Relation::version()).
///
/// The cache does not hold tuples — remote data in the simulator already
/// lives in the local Database, so "serving from cache" just means skipping
/// the simulated round trip and billing local access. What the cache tracks
/// is *whether the last physical fetch of a relation is still current*:
/// an entry records the version observed at the last successful fill, and a
/// lookup hits iff the entry is usable and the stored version equals the
/// relation's current version. Because version stamps come from one
/// process-wide monotone counter and are bumped only by content-changing
/// mutations, equal versions imply equal contents everywhere — across
/// committed updates, rollbacks, and scratch-database copies — so there is
/// no explicit invalidation hook: mutating a relation *is* the
/// invalidation.
///
/// A failed fill calls NoteFailure, which leaves the entry present but
/// unusable; subsequent lookups miss (kMissStale) until a later fill
/// succeeds, so a read after a fault always pays a physical trip.
///
/// Thread safety: all methods are safe to call concurrently (shared lock
/// for lookups, exclusive for fills). During the manager's parallel tier-3
/// fan-out the cache is read-only in practice — entries are pre-filled by
/// the episode's prefetch pass — so lookups take the shared fast path.
class RemoteReadCache {
 public:
  enum class Lookup : uint8_t {
    kHit,        // entry usable and version matches: serve locally
    kMissCold,   // never fetched: physical trip required
    kMissStale,  // fetched before, but mutated since (or last fill failed)
  };

  /// Classifies a read of `pred` whose relation currently has `version`.
  /// Does not mutate the cache (billing of hit/miss counters is the
  /// caller's job, so a prefetch probe can stay silent).
  Lookup Find(const std::string& pred, uint64_t version) const;

  /// Records a successful physical fetch of `pred` at `version`.
  void NoteFill(const std::string& pred, uint64_t version);

  /// Records a failed physical fetch: the entry (if any) becomes unusable
  /// until the next successful fill.
  void NoteFailure(const std::string& pred);

  size_t size() const;

 private:
  struct Entry {
    uint64_t version = 0;
    bool usable = false;
  };

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace ccpi

#endif  // CCPI_DISTSIM_REMOTE_CACHE_H_
