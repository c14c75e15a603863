#ifndef CCPI_PLAN_PLAN_CACHE_H_
#define CCPI_PLAN_PLAN_CACHE_H_

#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "eval/engine.h"
#include "plan/ra_plan.h"

namespace ccpi {

/// Thread-safe store of compiled checking plans, keyed by strings the
/// manager derives from (constraint id, update pattern) — see
/// docs/plan_cache.md for the keying discipline. Three entry families:
///
///   tier-1 memo      (constraint, pattern) -> the independence decision
///   RA templates     (constraint, pattern) -> RaPlanTemplate (Theorem 5.3)
///   compiled programs (constraint) -> the tier-3 CompiledProgram
///
/// Lookups take the shared lock, stores the exclusive lock; compilation
/// always happens outside any lock. Store is first-insert-wins: when two
/// lanes compile the same key concurrently, the loser adopts the winner's
/// entry, so every reader of a key sees one plan. (Under the manager's
/// phase-1 fan-out keys embed the constraint id and each lane owns one
/// constraint, so the race is theoretical there — but the cache does not
/// rely on that.)
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

  std::shared_ptr<const CompiledProgram> FindProgram(
      const std::string& key) const;
  std::shared_ptr<const CompiledProgram> StoreProgram(
      const std::string& key, std::shared_ptr<const CompiledProgram> program);

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
  std::unordered_map<std::string, std::shared_ptr<const CompiledProgram>>
      programs_;
};

}  // namespace ccpi

#endif  // CCPI_PLAN_PLAN_CACHE_H_
