#include "plan/plan_cache.h"

#include <mutex>

namespace ccpi {

std::optional<PlanCache::Tier1Decision> PlanCache::FindTier1(
    const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = tier1_.find(key);
  if (it == tier1_.end()) return std::nullopt;
  return it->second;
}

void PlanCache::StoreTier1(const std::string& key, Tier1Decision decision) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  tier1_.emplace(key, decision);  // first insert wins
}

std::shared_ptr<const RaPlanTemplate> PlanCache::FindTemplate(
    const std::string& key) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = templates_.find(key);
  return it == templates_.end() ? nullptr : it->second;
}

std::shared_ptr<const RaPlanTemplate> PlanCache::StoreTemplate(
    const std::string& key, std::shared_ptr<const RaPlanTemplate> tpl) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  return templates_.emplace(key, std::move(tpl)).first->second;
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
