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
/// always happens outside any lock. Store is first-insert-wins: when two
/// lanes compile the same key concurrently, the loser adopts the winner's
/// entry, so every reader of a key sees one plan. (Under the manager's
/// phase-1 fan-out keys embed the constraint id and each lane owns one
/// constraint, so the race is theoretical there — but the cache does not
/// rely on that.)
///
/// Every entry carries a *billed* mark for the plan.* counters. Who stored
/// an entry first depends on scheduling (a pipelined speculation may store
/// one and then be discarded), so the counters do not count stores: the
/// manager bills each entry an episode consulted in its serialized commit
/// turn, a compile if the entry was not billed yet and a hit otherwise.
/// Commit order is the serial order, so the counts match a serial run at
/// any pipeline depth and thread count.
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
  /// Returns the winning entry (the argument, or a concurrent first
  /// inserter's).
  std::shared_ptr<const RaPlanTemplate> StoreTemplate(
      const std::string& key, std::shared_ptr<const RaPlanTemplate> tpl);

  /// Bills one consultation of an existing entry: true the first time (the
  /// consultation counts as the entry's compile), false after (a hit).
  bool BillTier1(const std::string& key);
  bool BillTemplate(const std::string& key);

  /// Drops every entry. The manager calls this when the constraint set
  /// changes (AddConstraint): tier-1 decisions quantify over the *other*
  /// active constraints, so registration is a cache epoch.
  void Invalidate();

  /// Total entries across all families (tests/diagnostics).
  size_t size() const;

 private:
  struct Tier1Entry {
    Tier1Decision decision;
    bool billed = false;
  };
  struct TemplateEntry {
    std::shared_ptr<const RaPlanTemplate> tpl;
    bool billed = false;
  };

  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, Tier1Entry> tier1_;
  std::unordered_map<std::string, TemplateEntry> templates_;
};

}  // namespace ccpi

#endif  // CCPI_PLAN_PLAN_CACHE_H_
