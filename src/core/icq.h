#ifndef CCPI_CORE_ICQ_H_
#define CCPI_CORE_ICQ_H_

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arith/solver.h"
#include "core/interval_set.h"
#include "datalog/cq.h"
#include "relational/relation.h"
#include "util/status.h"

namespace ccpi {

/// Section 6: a variable of a CQC is *remote* if it does not appear in the
/// local subgoal; the CQC is independently constrained (an ICQ) if every
/// comparison other than equality involves at most one remote variable.
/// Detection works on the raw rule (shared variables allowed).
Result<bool> IsIndependentlyConstrained(const Rule& rule,
                                        const std::string& local_pred);

/// One lower or upper bound on the remote variable: a local variable of l
/// or a constant, open (strict) or closed.
struct BoundSpec {
  Term term;
  bool closed = false;
};

/// A term of a branch read against a local tuple s: s[col] for a local
/// variable (the column of its first occurrence in the local atom), or a
/// constant.
struct LocalSlot {
  static constexpr size_t kConstant = static_cast<size_t>(-1);
  size_t col = kConstant;
  Value constant;

  const Value& Of(const Tuple& s) const {
    return col == kConstant ? constant : s[col];
  }
};

/// A branch's local atom and the terms read through it, compiled to column
/// slots, so matching a local tuple allocates no variable binding.
struct LocalPattern {
  std::vector<std::pair<size_t, Value>> constants;  // s[col] == value
  std::vector<std::pair<size_t, size_t>> repeats;   // s[a] == s[b]
  struct Filter {
    LocalSlot lhs;
    CmpOp op;
    LocalSlot rhs;
  };
  std::vector<Filter> filters;     // IcqBranch::local_filters
  std::vector<LocalSlot> lowers;   // parallel to IcqBranch::lowers
  std::vector<LocalSlot> uppers;   // parallel to IcqBranch::uppers
  std::vector<size_t> key_cols;    // parallel to IcqBranch::key_vars
};

/// One branch of the forbidden-interval analysis (the = and <> elimination
/// of Theorem 6.1's proof may split the ICQ into several branches whose
/// tests must ALL pass).
struct IcqBranch {
  Atom local;                 // the local subgoal (raw: constants/repeats ok)
  std::vector<Atom> remotes;  // remote subgoals
  /// The single remote variable Z, or nullopt when every remote position is
  /// bound to a local variable (degenerate: the forbidden "interval" is the
  /// whole line for matching keys).
  std::optional<std::string> remote_var;
  std::vector<BoundSpec> lowers;       // a <= Z (closed) / a < Z (open)
  std::vector<BoundSpec> uppers;       // Z <= b / Z < b
  arith::Conjunction local_filters;    // comparisons among local terms only
  /// Local variables appearing in remote subgoals, in fixed order: the
  /// "key" on which intervals from different local tuples may be combined
  /// (coverage only transfers between tuples that agree on these joins).
  std::vector<std::string> key_vars;
  /// Everything above that reads the local tuple, as column slots of
  /// `local` (filled by AnalyzeForbiddenIntervals).
  LocalPattern slots;
};

/// Decomposes a forbidden-interval ICQ (an ICQ with at most one remote
/// variable — the class the paper's Example 6.1 and Fig 6.1 construction
/// target; "every CQC with at most one remote variable is an ICQ") into
/// branches. Fails with Unsupported for ICQs with two or more remote
/// variables (use the general Theorem 5.2 test) and InvalidArgument for
/// non-CQC inputs.
Result<std::vector<IcqBranch>> AnalyzeForbiddenIntervals(
    const Rule& rule, const std::string& local_pred);

/// The forbidden interval contributed by one local tuple `s` under a
/// branch, or nullopt if s fails the branch's pattern or filters. The
/// bounds are the max of the instantiated lower bounds and the min of the
/// upper bounds, with open/closed resolved as in Theorem 6.1's proof.
std::optional<Interval> ForbiddenInterval(const IcqBranch& branch,
                                          const Tuple& s);

/// The key values of `s` under the branch (valid when ForbiddenInterval
/// returned a value).
Tuple KeyOf(const IcqBranch& branch, const Tuple& s);

/// True iff `a` and `b` agree on the branch's key columns.
bool SameKey(const IcqBranch& branch, const Tuple& a, const Tuple& b);

}  // namespace ccpi

#endif  // CCPI_CORE_ICQ_H_
