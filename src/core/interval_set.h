#ifndef CCPI_CORE_INTERVAL_SET_H_
#define CCPI_CORE_INTERVAL_SET_H_

#include <optional>
#include <string>
#include <vector>

#include "relational/value.h"

namespace ccpi {

/// One end of an interval over the dense total order on Value: finite
/// (open or closed) or infinite. The forbidden intervals of Theorem 6.1
/// "may be open to infinity or minus infinity, and they may be open or
/// closed at either end".
struct Bound {
  enum class Kind { kNegInf, kFinite, kPosInf };

  static Bound NegInf() { return Bound{Kind::kNegInf, Value(), false}; }
  static Bound PosInf() { return Bound{Kind::kPosInf, Value(), false}; }
  static Bound Closed(Value v) {
    return Bound{Kind::kFinite, std::move(v), true};
  }
  static Bound Open(Value v) {
    return Bound{Kind::kFinite, std::move(v), false};
  }

  Kind kind = Kind::kFinite;
  Value value;
  bool closed = false;

  bool finite() const { return kind == Kind::kFinite; }
  std::string ToString() const;
};

/// An interval [lo, hi] with independently open/closed/infinite ends,
/// interpreted over the dense order (so (2,3) is nonempty even between
/// adjacent integers).
struct Interval {
  Bound lo;
  Bound hi;

  /// Whole line.
  static Interval All() { return Interval{Bound::NegInf(), Bound::PosInf()}; }

  bool Empty() const;
  bool Contains(const Value& v) const;
  /// True iff `other` is a subset of this interval.
  bool Covers(const Interval& other) const;
  /// True iff `other` overlaps or touches this interval: no gap lies
  /// between them on either side.
  bool Meets(const Interval& other) const;
  /// If Meets(other), widens this interval to their union and returns
  /// true; otherwise leaves it unchanged and returns false. Both must be
  /// nonempty.
  bool Absorb(const Interval& other);
  std::string ToString() const;
};

/// True iff intervals ending at `hi` and starting at `lo` connect — overlap
/// or touch without a gap — so their union is one interval. [1,2) and
/// [2,3] connect; (1,2) and (2,3) leave the point 2 uncovered.
bool Connects(const Bound& hi, const Bound& lo);

/// Orders lower bounds by the set they admit: NegInf first, then
/// (v, closed) before (v, open), then larger values.
bool LowerBoundLess(const Bound& a, const Bound& b);
/// Orders upper bounds: smaller values first, (v, open) before (v, closed),
/// PosInf last.
bool UpperBoundLess(const Bound& a, const Bound& b);

/// A union of intervals kept in normalized (disjoint, sorted, merged) form.
/// This is the direct C++ realization of the interval reasoning that the
/// Fig 6.1 datalog program performs by recursion — used both as a fast
/// path and as the cross-check oracle for the compiled programs.
class IntervalSet {
 public:
  IntervalSet() = default;

  /// The union of `intervals`, normalized in one sort by lower bound and
  /// one merge sweep: O(n log n) for n intervals, where n calls of Add
  /// cost O(n^2 log n). A first pass drops empty intervals and absorbs
  /// each into the one kept before it when they connect, so a chain that
  /// arrives in order is merged before the sort. Equal to adding the
  /// intervals one by one, in any order.
  static IntervalSet FromIntervals(std::vector<Interval> intervals);

  /// Adds an interval, merging with neighbours it connects to. Empty
  /// intervals are ignored. O(n log n) in the set's size n: it rebuilds
  /// the member vector, so a set built from many intervals at once should
  /// come from FromIntervals.
  void Add(Interval interval);

  /// True iff `interval` is a subset of the union. (Because the set is
  /// normalized, a covered interval is covered by a single member.)
  /// O(n) in the number of members.
  bool Covers(const Interval& interval) const;

  bool Contains(const Value& v) const;

  const std::vector<Interval>& intervals() const { return intervals_; }
  bool empty() const { return intervals_.empty(); }

  std::string ToString() const;

 private:
  // Disjoint, non-connecting, sorted by lower bound.
  std::vector<Interval> intervals_;
};

}  // namespace ccpi

#endif  // CCPI_CORE_INTERVAL_SET_H_
