#include "distsim/remote_cache.h"

#include <mutex>

namespace ccpi {

RemoteReadCache::Lookup RemoteReadCache::Find(const std::string& pred,
                                              uint64_t version) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = entries_.find(pred);
  if (it == entries_.end()) return Lookup::kMissCold;
  if (it->second.usable && it->second.version == version) return Lookup::kHit;
  return Lookup::kMissStale;
}

void RemoteReadCache::NoteFill(const std::string& pred, uint64_t version) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  entries_[pred] = Entry{version, /*usable=*/true};
}

void RemoteReadCache::NoteFailure(const std::string& pred) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  entries_[pred].usable = false;
}

size_t RemoteReadCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

}  // namespace ccpi
