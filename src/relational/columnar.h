#ifndef CCPI_RELATIONAL_COLUMNAR_H_
#define CCPI_RELATIONAL_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "relational/tuple.h"
#include "relational/value.h"

namespace ccpi {

/// Row positions produced by a scan kernel, in ascending row order. 32-bit
/// on purpose: a segment is capped at 2^32 rows, positions pack two per
/// cache line slot, and the narrower loads keep the scan loops
/// vectorizable.
using PositionList = std::vector<uint32_t>;

/// Comparison operators of the scan kernels. Mirrors datalog's CmpOp
/// value-for-value (the relational layer sits below the datalog AST, so it
/// cannot include it; ra_eval maps between the two with a trivial switch).
enum class ScanOp { kLt, kLe, kGt, kGe, kEq, kNe };

/// An immutable columnar image of one frozen relation: built by its first
/// Relation::FreezeIndexes, dropped by the next mutation, and rebuilt by
/// the first Relation::columnar_segment() call after it.
///
/// Layout (hyrise-style typed segments): each column is either
///   - kInt64:  the raw int64 payload, one contiguous array — scans are
///     branch-free compares over machine integers, and
///   - kDict:   a dictionary-coded column for symbol or mixed columns: the
///     distinct values sorted by the global Value order, an encode map
///     value -> code, and one uint32 code per row. Because the dictionary
///     is sorted, code order IS value order, so both equality and range
///     scans run over the code array without touching a Value.
///
/// Row order is the relation's insertion order, so every kernel result is
/// position-for-position identical to the row-at-a-time loop it replaces;
/// only the cost changes. The segment never aliases the relation's row
/// store — a reader holding the shared_ptr may keep scanning its snapshot
/// even while the source relation is being mutated (the evaluation engine
/// leans on this to iterate without per-row copies).
class ColumnarSegment {
 public:
  enum class ColumnKind { kInt64, kDict };

  /// Builds the columnar image of `rows` (all of arity `arity`).
  /// Requires rows.size() < 2^32.
  static std::shared_ptr<const ColumnarSegment> Build(
      const std::vector<Tuple>& rows, size_t arity);

  size_t size() const { return size_; }
  size_t arity() const { return columns_.size(); }
  ColumnKind column_kind(size_t col) const { return columns_[col].kind; }

  /// The value at (row, col); decodes dictionary columns.
  Value ValueAt(size_t row, size_t col) const;

  /// Materializes one row (insertion-order position) as a Tuple.
  Tuple GatherRow(size_t row) const;

  /// Appends to `out` the rows of `positions`, in order (batched gather
  /// for projection-style consumers).
  void Gather(const PositionList& positions, std::vector<Tuple>* out) const;

  /// All positions where column `col` equals `v` (ascending). Equivalent
  /// to ScanCmp(col, ScanOp::kEq, v) but with the common case spelled out.
  void ScanEq(size_t col, const Value& v, PositionList* out) const;

  /// All positions where `column col <op> v` holds (ascending).
  void ScanCmp(size_t col, ScanOp op, const Value& v, PositionList* out) const;

  /// Refines `positions` in place to those where `column col <op> v` holds.
  void FilterCmp(size_t col, ScanOp op, const Value& v,
                 PositionList* positions) const;

  /// All positions where `column a <op> column b` holds (ascending).
  void ScanColCmp(size_t a, ScanOp op, size_t b, PositionList* out) const;

  /// Refines `positions` in place to those where `column a <op> column b`
  /// holds.
  void FilterColCmp(size_t a, ScanOp op, size_t b,
                    PositionList* positions) const;

 private:
  struct Column {
    ColumnKind kind = ColumnKind::kInt64;
    /// kInt64: the values. kDict: unused.
    std::vector<int64_t> ints;
    /// kDict: one code per row, indexing into dict.
    std::vector<uint32_t> codes;
    /// kDict: distinct values in ascending Value order (code order == value
    /// order).
    std::vector<Value> dict;
    /// kDict: value -> code.
    std::unordered_map<Value, uint32_t, ValueHash> encode;
  };

  ColumnarSegment() = default;

  template <typename Keep>
  void ScanWhere(size_t n, Keep keep, PositionList* out) const;
  template <typename Keep>
  static void FilterWhere(Keep keep, PositionList* positions);

  friend class ColumnarJoinTable;

  size_t size_ = 0;
  std::vector<Column> columns_;
};

/// Column-at-a-time hash equi-join support: the build side is one column
/// of a segment, hashed once into postings; the probe side is translated
/// column-at-a-time into the build side's code space, after which the
/// probe loop touches only integers. Postings preserve build-row order, so
/// a left-major walk reproduces the nested-loop emission order exactly.
class ColumnarJoinTable {
 public:
  /// Builds over `build` column `col`.
  ColumnarJoinTable(const ColumnarSegment& build, size_t col);

  /// For every probe row, the matching build-side key id, or -1 when the
  /// probe value does not occur in the build column. One pass; dictionary
  /// probe columns are translated via their dictionary (one lookup per
  /// distinct value, not per row).
  void TranslateProbeColumn(const ColumnarSegment& probe, size_t col,
                            std::vector<int32_t>* ids) const;

  /// Build-side positions of key id (from TranslateProbeColumn; id >= 0).
  const PositionList& Posting(int32_t id) const {
    return postings_[static_cast<size_t>(id)];
  }

 private:
  int32_t IdOf(const Value& v) const;

  const ColumnarSegment* build_;
  size_t col_;
  /// Key id -> build positions, in build-row order. For a kDict build
  /// column the id IS the dictionary code (no hashing at build time).
  std::vector<PositionList> postings_;
  /// kInt64 build column: value -> id.
  std::unordered_map<int64_t, int32_t> int_ids_;
};

}  // namespace ccpi

#endif  // CCPI_RELATIONAL_COLUMNAR_H_
