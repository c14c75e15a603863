#include "core/interval_set.h"

#include <algorithm>

#include "util/check.h"

namespace ccpi {

std::string Bound::ToString() const {
  switch (kind) {
    case Kind::kNegInf:
      return "-inf";
    case Kind::kPosInf:
      return "+inf";
    case Kind::kFinite:
      return value.ToString();
  }
  return "?";
}

bool Interval::Empty() const {
  if (!lo.finite() || !hi.finite()) {
    // A ray or the whole line is never empty; an inverted pair of
    // infinities cannot be constructed through the factories.
    if (lo.kind == Bound::Kind::kPosInf || hi.kind == Bound::Kind::kNegInf) {
      return true;
    }
    return false;
  }
  if (lo.value < hi.value) return false;
  if (hi.value < lo.value) return true;
  return !(lo.closed && hi.closed);  // single point needs both ends closed
}

bool Interval::Contains(const Value& v) const {
  if (lo.finite()) {
    if (v < lo.value) return false;
    if (v == lo.value && !lo.closed) return false;
  } else if (lo.kind == Bound::Kind::kPosInf) {
    return false;
  }
  if (hi.finite()) {
    if (hi.value < v) return false;
    if (v == hi.value && !hi.closed) return false;
  } else if (hi.kind == Bound::Kind::kNegInf) {
    return false;
  }
  return true;
}

bool LowerBoundLess(const Bound& a, const Bound& b) {
  if (a.kind != b.kind) {
    auto order = [](const Bound& x) {
      switch (x.kind) {
        case Bound::Kind::kNegInf:
          return 0;
        case Bound::Kind::kFinite:
          return 1;
        case Bound::Kind::kPosInf:
          return 2;
      }
      return 1;
    };
    return order(a) < order(b);
  }
  if (!a.finite()) return false;
  if (a.value != b.value) return a.value < b.value;
  return a.closed && !b.closed;  // [v.. admits v, (v.. does not
}

bool UpperBoundLess(const Bound& a, const Bound& b) {
  if (a.kind != b.kind) {
    auto order = [](const Bound& x) {
      switch (x.kind) {
        case Bound::Kind::kNegInf:
          return 0;
        case Bound::Kind::kFinite:
          return 1;
        case Bound::Kind::kPosInf:
          return 2;
      }
      return 1;
    };
    return order(a) < order(b);
  }
  if (!a.finite()) return false;
  if (a.value != b.value) return a.value < b.value;
  return !a.closed && b.closed;  // ..v) ends before ..v]
}

bool Interval::Covers(const Interval& other) const {
  if (other.Empty()) return true;
  if (Empty()) return false;
  // lo <= other.lo and other.hi <= hi in the bound orders.
  if (LowerBoundLess(other.lo, lo)) return false;
  if (UpperBoundLess(hi, other.hi)) return false;
  return true;
}

bool Interval::Meets(const Interval& other) const {
  return Connects(hi, other.lo) && Connects(other.hi, lo);
}

bool Interval::Absorb(const Interval& other) {
  if (!Meets(other)) return false;
  if (LowerBoundLess(other.lo, lo)) lo = other.lo;
  if (UpperBoundLess(hi, other.hi)) hi = other.hi;
  return true;
}

bool Connects(const Bound& hi, const Bound& lo) {
  if (!hi.finite() || !lo.finite()) {
    // An infinite end always reaches anything on its side.
    return true;
  }
  if (lo.value < hi.value) return true;
  if (hi.value < lo.value) return false;
  return hi.closed || lo.closed;
}

std::string Interval::ToString() const {
  std::string out = lo.finite() && lo.closed ? "[" : "(";
  out += lo.ToString();
  out += ", ";
  out += hi.ToString();
  out += hi.finite() && hi.closed ? "]" : ")";
  return out;
}

IntervalSet IntervalSet::FromIntervals(std::vector<Interval> intervals) {
  // Drop the empty intervals, and merge each into the one kept before it
  // when the two connect: a chain of intervals that arrives in order
  // collapses here in one pass, and the sort sees only what is left.
  size_t kept = 0;
  for (size_t i = 0; i < intervals.size(); ++i) {
    Interval& next = intervals[i];
    if (next.Empty() || (kept > 0 && intervals[kept - 1].Absorb(next))) {
      continue;
    }
    if (i != kept) intervals[kept] = std::move(next);
    ++kept;
  }
  intervals.erase(intervals.begin() + kept, intervals.end());
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return LowerBoundLess(a.lo, b.lo);
            });
  // Sorted by lower bound, each interval either connects to the member
  // being grown (no gap after its upper bound) and extends it, or starts
  // a new member.
  IntervalSet set;
  for (Interval& next : intervals) {
    if (!set.intervals_.empty() &&
        Connects(set.intervals_.back().hi, next.lo)) {
      Interval& current = set.intervals_.back();
      if (UpperBoundLess(current.hi, next.hi)) current.hi = std::move(next.hi);
      continue;
    }
    set.intervals_.push_back(std::move(next));
  }
  return set;
}

void IntervalSet::Add(Interval interval) {
  if (interval.Empty()) return;
  std::vector<Interval> kept;
  Interval current = std::move(interval);
  for (Interval& existing : intervals_) {
    // `existing` stays separate iff a genuine gap lies between it and
    // `current` on one side; otherwise it is absorbed.
    if (!current.Absorb(existing)) kept.push_back(std::move(existing));
  }
  kept.push_back(std::move(current));
  std::sort(kept.begin(), kept.end(),
            [](const Interval& a, const Interval& b) {
              return LowerBoundLess(a.lo, b.lo);
            });
  intervals_ = std::move(kept);
}

bool IntervalSet::Covers(const Interval& interval) const {
  if (interval.Empty()) return true;
  for (const Interval& i : intervals_) {
    if (i.Covers(interval)) return true;
  }
  return false;
}

bool IntervalSet::Contains(const Value& v) const {
  for (const Interval& i : intervals_) {
    if (i.Contains(v)) return true;
  }
  return false;
}

std::string IntervalSet::ToString() const {
  std::string out;
  for (size_t i = 0; i < intervals_.size(); ++i) {
    if (i > 0) out += " U ";
    out += intervals_[i].ToString();
  }
  return out.empty() ? "{}" : out;
}

}  // namespace ccpi
