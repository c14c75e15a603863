#ifndef CCPI_CORE_ICQ_COMPILER_H_
#define CCPI_CORE_ICQ_COMPILER_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/icq.h"
#include "datalog/ast.h"
#include "relational/database.h"
#include "util/outcome.h"
#include "util/status.h"

namespace ccpi {

/// Theorem 6.1 compiled to datalog: the recursive program of Fig 6.1
/// generalized to open/closed/infinite interval ends — up to the paper's
/// "eight different predicates corresponding to interval" (four bounded
/// kinds int_cc/int_co/int_oc/int_oo, four rays ray_gec/ray_geo/
/// ray_lec/ray_leo) plus `all` for the unbounded case — and to remote
/// subgoals that join local variables (the derived interval predicates
/// carry those join values as a key; intervals merge only within a key).
struct IcqCompilation {
  std::string local_pred;
  size_t local_arity = 0;
  /// Branches from = elimination and <> splitting; all feed the shared
  /// interval predicates below.
  std::vector<IcqBranch> branches;
  /// Basis rules (one per choice of dominating lower/upper bound per
  /// branch, as in the proof of Theorem 6.1) plus the recursive merge
  /// rules (rule (2) of Fig 6.1 across all end-kind combinations).
  Program interval_program;
  /// The column of the first key variable in the shared local atom: only
  /// local tuples with the inserted tuple's value there can cover it.
  /// nullopt for a constraint with no key variable, whose group is all of
  /// the local relation.
  std::optional<size_t> key_col;
};

/// The verified view of a local relation while some of its updates are
/// still unverified (applied optimistically, their checks deferred). Each
/// such tuple maps to its membership in the verified state: false for a
/// pending insert, true for a pending delete.
using VerifiedOverlay = std::unordered_map<Tuple, bool, TupleHash>;

/// Compiles a forbidden-interval ICQ. Fails with Unsupported when the
/// constraint has two or more remote variables.
Result<IcqCompilation> CompileIcq(const Rule& rule,
                                  const std::string& local_pred);

/// The complete local test, run the paper's way: extends the compiled
/// program with the `ok` rules for the inserted tuple t (rule (3) of
/// Fig 6.1), evaluates the recursive program over `db` (which holds the
/// local relation), and answers kHolds iff `ok` is derivable.
/// kViolated when the constraint is purely local and t satisfies it.
Result<Outcome> IcqLocalTestOnInsert(const IcqCompilation& comp,
                                     const Database& db, const Tuple& t);

/// The same test computed directly with IntervalSet (no datalog), the
/// fast path. Only t's key group can cover t, so it reads the rows that
/// Relation::Probe(key_col, t[key_col]) returns (all rows when the
/// constraint has no key): O(|group| * branches). `rows_read`, when given,
/// receives the number of local tuples read.
Result<Outcome> IcqDirectTestOnInsert(const IcqCompilation& comp,
                                      const Relation& local_relation,
                                      const Tuple& t,
                                      size_t* rows_read = nullptr);

/// The same test over the verified view of `local_relation`: tuples that
/// `pending` marks unverified never serve as coverage, and pending
/// deletes with t's key still do.
Result<Outcome> IcqDirectTestOnInsert(const IcqCompilation& comp,
                                      const Relation& local_relation,
                                      const VerifiedOverlay& pending,
                                      const Tuple& t,
                                      size_t* rows_read = nullptr);

}  // namespace ccpi

#endif  // CCPI_CORE_ICQ_COMPILER_H_
