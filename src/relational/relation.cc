#include "relational/relation.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "util/check.h"

namespace ccpi {

namespace {
// Source of content-version stamps. Process-wide (not per-relation) so a
// version value identifies one specific content state across all relations
// and all databases, including scratch copies: equal versions imply equal
// contents, which is exactly what a version-keyed cache needs.
std::atomic<uint64_t> g_next_version{1};

uint64_t NextVersion() {
  return g_next_version.fetch_add(1, std::memory_order_relaxed);
}

std::atomic<uint64_t> g_copy_count{0};
std::atomic<uint64_t> g_index_build_count{0};
}  // namespace

const std::vector<size_t> Relation::kEmptyPosting;

Relation::Relation(const Relation& other)
    : arity_(other.arity_),
      version_(other.version_),
      rows_(other.rows_),
      positions_(other.positions_) {
  g_copy_count.fetch_add(1, std::memory_order_relaxed);
}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  arity_ = other.arity_;
  version_ = other.version_;
  rows_ = other.rows_;
  positions_ = other.positions_;
  {
    std::unique_lock<std::shared_mutex> lock(index_mu_);
    indexes_.clear();
  }
  g_copy_count.fetch_add(1, std::memory_order_relaxed);
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : arity_(other.arity_),
      version_(other.version_),
      rows_(std::move(other.rows_)),
      positions_(std::move(other.positions_)),
      indexes_(std::move(other.indexes_)) {}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  arity_ = other.arity_;
  version_ = other.version_;
  rows_ = std::move(other.rows_);
  positions_ = std::move(other.positions_);
  indexes_ = std::move(other.indexes_);
  return *this;
}

Relation Relation::CloneForWrite() const {
  Relation clone(*this);
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  clone.indexes_ = indexes_;
  return clone;
}

bool Relation::Insert(Tuple t) {
  CCPI_CHECK(t.size() == arity_);
  const size_t pos = rows_.size();
  if (!positions_.try_emplace(t, pos).second) return false;
  rows_.push_back(std::move(t));
  version_ = NextVersion();
  // The new position is the largest, so appending keeps postings sorted.
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  for (auto& [col, index] : indexes_) index[rows_[pos][col]].push_back(pos);
  return true;
}

bool Relation::Erase(const Tuple& t) {
  auto it = positions_.find(t);
  if (it == positions_.end()) return false;
  const size_t pos = it->second;
  const size_t last = rows_.size() - 1;
  positions_.erase(it);
  {
    // The last row moves into the hole: drop `pos` from the erased row's
    // postings, then renumber the moved row from `last` (the back of each
    // of its postings) to `pos`, keeping every posting ascending.
    std::unique_lock<std::shared_mutex> lock(index_mu_);
    for (auto& [col, index] : indexes_) {
      auto erased = index.find(rows_[pos][col]);
      std::vector<size_t>& posting = erased->second;
      posting.erase(std::lower_bound(posting.begin(), posting.end(), pos));
      if (posting.empty()) index.erase(erased);
      if (pos == last) continue;
      std::vector<size_t>& moved = index.find(rows_[last][col])->second;
      moved.pop_back();
      moved.insert(std::lower_bound(moved.begin(), moved.end(), pos), pos);
    }
  }
  if (pos != last) {
    rows_[pos] = std::move(rows_[last]);
    positions_.find(rows_[pos])->second = pos;
  }
  rows_.pop_back();
  version_ = NextVersion();
  return true;
}

bool Relation::Contains(const Tuple& t) const {
  return positions_.count(t) > 0;
}

const Relation::ColumnIndex& Relation::BuildIndexLocked(size_t col) const {
  auto [it, built] = indexes_.try_emplace(col);
  if (built) {
    for (size_t i = 0; i < rows_.size(); ++i) {
      it->second[rows_[i][col]].push_back(i);
    }
    g_index_build_count.fetch_add(1, std::memory_order_relaxed);
  }
  return it->second;
}

const std::vector<size_t>& Relation::Probe(size_t col, const Value& v) const {
  CCPI_CHECK(col < arity_);
  // Fast path: the index already exists; a shared lock suffices because
  // only a write (serialized against readers) edits a built index.
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    auto it = indexes_.find(col);
    if (it != indexes_.end()) {
      auto posting = it->second.find(v);
      return posting == it->second.end() ? kEmptyPosting : posting->second;
    }
  }
  // Slow path: build under the exclusive lock (another thread may have won
  // the race; try_emplace makes that harmless).
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  const ColumnIndex& index = BuildIndexLocked(col);
  auto posting = index.find(v);
  return posting == index.end() ? kEmptyPosting : posting->second;
}

void Relation::FreezeIndexes() const {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  for (size_t col = 0; col < arity_; ++col) BuildIndexLocked(col);
}

uint64_t Relation::DebugCopyCount() {
  return g_copy_count.load(std::memory_order_relaxed);
}

uint64_t Relation::DebugIndexBuildCount() {
  return g_index_build_count.load(std::memory_order_relaxed);
}

uint64_t Relation::DebugVersionCounter() {
  return g_next_version.load(std::memory_order_relaxed);
}

uint64_t Relation::DebugSegmentBuildCount() { return 0; }

void Relation::Clear() {
  if (!rows_.empty()) version_ = NextVersion();
  rows_.clear();
  positions_.clear();
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  for (auto& [col, index] : indexes_) index.clear();
}

std::string Relation::ToString(const std::string& name) const {
  std::string out;
  for (const Tuple& t : rows_) {
    out += name;
    out += TupleToString(t);
    out += "\n";
  }
  return out;
}

}  // namespace ccpi
