#ifndef CCPI_PLAN_PLAN_CACHE_H_
#define CCPI_PLAN_PLAN_CACHE_H_

#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "plan/ra_plan.h"

namespace ccpi {

/// Thread-safe store of compiled checking plans, keyed by strings the
/// manager derives from (constraint id, update pattern) — see
/// docs/plan_cache.md for the keying discipline. Two entry families:
///
///   tier-1 memo      (constraint, pattern) -> the independence decision
///   RA templates     (constraint, pattern) -> RaPlanTemplate (Theorem 5.3)
///
/// What depends on the constraint alone (the tier-3 CompiledProgram, the
/// tier-2 artifacts) is not here: the manager builds it at registration.
///
/// Lookups take the shared lock, stores the exclusive lock; compilation
/// always happens outside any lock. The manager's commit turn is the only
/// writer; pipelined speculations read the tier-1 memo from pool workers
/// while it stores, hence the lock. Store is first-insert-wins, so a
/// second store of a key adopts the entry already there.
///
/// The plan.* counters are billed by the writer on the spot: a store is a
/// compile, a find is a hit. Commit order is the serial order, so the
/// counts match a serial run at any pipeline depth and thread count.
class PlanCache {
 public:
  /// The memoized tier-1 verdict for an update pattern: holds (resolve at
  /// kIndependence) or falls through to tier 2.
  struct Tier1Decision {
    bool holds = false;
  };

  std::optional<Tier1Decision> FindTier1(const std::string& key) const;
  void StoreTier1(const std::string& key, Tier1Decision decision);

  std::shared_ptr<const RaPlanTemplate> FindTemplate(
      const std::string& key) const;
  /// Returns the winning entry (the argument, or the one already stored
  /// under `key`).
  std::shared_ptr<const RaPlanTemplate> StoreTemplate(
      const std::string& key, std::shared_ptr<const RaPlanTemplate> tpl);

  /// Drops every entry. The manager calls this when the constraint set
  /// changes (AddConstraint): tier-1 decisions quantify over the *other*
  /// active constraints, so registration is a cache epoch.
  void Invalidate();

  /// Total entries across all families (tests/diagnostics).
  size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Tier1Decision> tier1_;
  std::unordered_map<std::string, std::shared_ptr<const RaPlanTemplate>>
      templates_;
};

}  // namespace ccpi

#endif  // CCPI_PLAN_PLAN_CACHE_H_
