#include "plan/plan_cache.h"

#include <mutex>

namespace ccpi {

std::optional<PlanCache::Tier1Decision> PlanCache::FindTier1(
    const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = tier1_.find(key);
  if (it == tier1_.end()) return std::nullopt;
  return it->second.decision;
}

void PlanCache::StoreTier1(const std::string& key, Tier1Decision decision) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  tier1_.emplace(key, Tier1Entry{decision});  // first insert wins
}

std::shared_ptr<const RaPlanTemplate> PlanCache::FindTemplate(
    const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = templates_.find(key);
  return it == templates_.end() ? nullptr : it->second.tpl;
}

std::shared_ptr<const RaPlanTemplate> PlanCache::StoreTemplate(
    const std::string& key, std::shared_ptr<const RaPlanTemplate> tpl) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] =
      templates_.emplace(key, TemplateEntry{std::move(tpl)});
  return it->second.tpl;
}

namespace {

/// First billing of `key`'s entry in `family`; an absent entry (never
/// expected: registration, the only invalidation, drains the pipeline
/// first) bills as a compile.
template <typename Map>
bool BillFirst(Map& family, const std::string& key) {
  auto it = family.find(key);
  if (it == family.end()) return true;
  const bool first = !it->second.billed;
  it->second.billed = true;
  return first;
}

}  // namespace

bool PlanCache::BillTier1(const std::string& key) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return BillFirst(tier1_, key);
}

bool PlanCache::BillTemplate(const std::string& key) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return BillFirst(templates_, key);
}

void PlanCache::Invalidate() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  tier1_.clear();
  templates_.clear();
}

size_t PlanCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return tier1_.size() + templates_.size();
}

}  // namespace ccpi
