#include "relational/database.h"

#include <mutex>
#include <utility>

namespace ccpi {

namespace {

/// The shared empty relation of a given arity. Process-wide (the relations
/// are empty and immutable, so sharing across databases is harmless) with
/// stable addresses, which makes the const Get safe under concurrent
/// readers — the per-database mutable cache it replaces was a data race.
const Relation& EmptyRelation(size_t arity) {
  static std::mutex mu;
  static auto* cache = new std::map<size_t, Relation>();
  std::lock_guard<std::mutex> lock(mu);
  auto [it, inserted] = cache->try_emplace(arity, Relation(arity));
  (void)inserted;
  return it->second;
}

}  // namespace

Relation* Database::Own(std::shared_ptr<Relation>* slot) {
  // Copy-on-write: a relation still shared with a snapshot is cloned
  // before the write, so the snapshot keeps the pre-write contents (and
  // version stamp) it pinned. The use_count check is race-free because
  // copies of this handle are taken on the mutating thread: a count of 1
  // here proves no snapshot can appear concurrently, and a stale count > 1
  // (another handle released just now) merely clones once more. The clone
  // keeps the built indexes, so the write maintains them like a write to
  // an unshared relation.
  if (slot->use_count() > 1) {
    *slot = std::make_shared<Relation>((*slot)->CloneForWrite());
  }
  return slot->get();
}

Status Database::Insert(const std::string& pred, Tuple t) {
  auto it = rels_.find(pred);
  if (it == rels_.end()) {
    it = rels_.emplace(pred, std::make_shared<Relation>(t.size())).first;
  } else if (it->second->arity() != t.size()) {
    return Status::InvalidArgument("arity mismatch inserting into " + pred);
  }
  Own(&it->second)->Insert(std::move(t));
  return Status::OK();
}

Status Database::Erase(const std::string& pred, const Tuple& t) {
  auto it = rels_.find(pred);
  if (it == rels_.end()) return Status::OK();
  if (it->second->arity() != t.size()) {
    return Status::InvalidArgument("arity mismatch erasing from " + pred);
  }
  Own(&it->second)->Erase(t);
  return Status::OK();
}

bool Database::Contains(const std::string& pred, const Tuple& t) const {
  auto it = rels_.find(pred);
  return it != rels_.end() && it->second->Contains(t);
}

const Relation& Database::Get(const std::string& pred, size_t arity) const {
  auto it = rels_.find(pred);
  if (it != rels_.end()) return *it->second;
  return EmptyRelation(arity);
}

Relation* Database::GetMutable(const std::string& pred, size_t arity) {
  auto it = rels_.find(pred);
  if (it == rels_.end()) {
    it = rels_.emplace(pred, std::make_shared<Relation>(arity)).first;
  }
  return Own(&it->second);
}

std::vector<std::string> Database::PredicateNames() const {
  std::vector<std::string> names;
  names.reserve(rels_.size());
  for (const auto& [name, rel] : rels_) names.push_back(name);
  return names;
}

size_t Database::TotalTuples() const {
  size_t n = 0;
  for (const auto& [name, rel] : rels_) n += rel->size();
  return n;
}

void Database::FreezeIndexes() const {
  for (const auto& [name, rel] : rels_) rel->FreezeIndexes();
}

std::string Database::ToString() const {
  std::string out;
  for (const auto& [name, rel] : rels_) out += rel->ToString(name);
  return out;
}

}  // namespace ccpi
