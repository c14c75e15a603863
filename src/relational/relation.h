#ifndef CCPI_RELATIONAL_RELATION_H_
#define CCPI_RELATIONAL_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/tuple.h"
#include "util/status.h"

namespace ccpi {

/// A set of tuples of a fixed arity, with optional per-column hash indexes.
///
/// The store keeps rows in a vector (benchmarks iterate deterministically)
/// and a hash map from tuple to row position for O(1) duplicate
/// elimination, membership and erasure. Column indexes are built lazily on
/// first probe (or all at once by FreezeIndexes) and maintained by
/// Insert/Erase: a write edits the postings it touches instead of dropping
/// the index, so the evaluation engine's index-nested-loop joins and the
/// semi-naive fixpoint keep their access paths from one write to the next.
///
/// Row order: Insert appends. Erase moves the last row into the erased
/// row's position, so erasing the most recently inserted row (the rollback
/// of a tentative insert) restores the previous order exactly, and any
/// other erase reorders one row.
///
/// Thread safety: a relation that is not being mutated may be read —
/// rows(), Contains(), Probe(), FreezeIndexes() — from any number of
/// threads concurrently; the lazy index builds are guarded by an internal
/// shared mutex, so `const` genuinely means "safe to share". Mutation
/// (Insert/Erase/Clear) must still be externally serialized against every
/// reader, which is the natural discipline of the checking pipeline: the
/// database is frozen during a check phase and updated only between phases.
class Relation {
 public:
  explicit Relation(size_t arity) : arity_(arity) {}

  // Copying is a row-store copy; the column indexes are a cache and are
  // deliberately not copied (they rebuild lazily on the copy), which also
  // lets a reader copy a relation another thread is concurrently probing.
  // Copy-assignment makes the target such a fresh copy.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  /// A copy that keeps the built column indexes: the copy-on-write clone a
  /// Database takes before writing to a relation a snapshot still shares,
  /// so the write that follows costs O(delta) instead of an index rebuild.
  /// Counts as a copy.
  Relation CloneForWrite() const;
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;

  size_t arity() const { return arity_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Content-version stamp. Every content-changing mutation (an Insert that
  /// added a row, an Erase that removed one, a Clear of a non-empty
  /// relation) restamps the relation from one process-wide monotone
  /// counter, so two relations with equal versions have equal contents —
  /// even across copies, scratch databases, and rollbacks. Version 0 means
  /// "never mutated" (empty). Copies and moves carry the version.
  uint64_t version() const { return version_; }

  /// Adds a tuple; returns true if it was not already present.
  /// Aborts if the arity does not match (programming error).
  bool Insert(Tuple t);

  /// Removes a tuple; returns true if it was present.
  bool Erase(const Tuple& t);

  bool Contains(const Tuple& t) const;

  /// The rows, in insertion order except where an Erase moved the last
  /// row into the erased one's position (see the class comment).
  const std::vector<Tuple>& rows() const { return rows_; }

  /// Row positions whose column `col` equals `v`, in ascending order.
  /// Builds the column index on first use (thread-safe). `col` must be <
  /// arity(). The returned reference stays valid until the next
  /// Erase/Clear; an Insert may append to it (positions already read stay
  /// put, so a scan that fixes the length first is unaffected).
  const std::vector<size_t>& Probe(size_t col, const Value& v) const;

  /// Builds the index of every column that is still missing, so a
  /// subsequent parallel read phase probes without ever taking the
  /// exclusive build path. Writes keep built indexes current, so after the
  /// first freeze this builds nothing.
  void FreezeIndexes() const;

  /// Removes all tuples. Built indexes stay built (and empty).
  void Clear();

  std::string ToString(const std::string& name) const;

  /// Observability counters for regression tests (process-wide, racy-read
  /// tolerant). DebugCopyCount counts Relation copy-constructions and
  /// copy-assignments; DebugIndexBuildCount counts per-column hash-index
  /// builds; DebugVersionCounter exposes the content-version counter so a
  /// test can assert an operation produced zero version churn.
  /// DebugSegmentBuildCount is always 0: relations keep no columnar
  /// segment, and the counter stays only for callers that still read it.
  static uint64_t DebugCopyCount();
  static uint64_t DebugIndexBuildCount();
  static uint64_t DebugVersionCounter();
  static uint64_t DebugSegmentBuildCount();

 private:
  using ColumnIndex =
      std::unordered_map<Value, std::vector<size_t>, ValueHash>;

  /// Builds (if absent) and returns the index of `col`. Caller must hold
  /// index_mu_ exclusively.
  const ColumnIndex& BuildIndexLocked(size_t col) const;

  size_t arity_;
  uint64_t version_ = 0;
  std::vector<Tuple> rows_;
  // tuple -> its position in rows_.
  std::unordered_map<Tuple, size_t, TupleHash> positions_;
  // indexes_[col] maps value -> ascending row positions in rows_; values
  // with no row have no entry. Guarded by index_mu_: readers share it,
  // lazy builds and writes take it exclusively.
  mutable std::shared_mutex index_mu_;
  mutable std::unordered_map<size_t, ColumnIndex> indexes_;
  static const std::vector<size_t> kEmptyPosting;
};

}  // namespace ccpi

#endif  // CCPI_RELATIONAL_RELATION_H_
