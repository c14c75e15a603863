#ifndef CCPI_DATALOG_UNFOLD_H_
#define CCPI_DATALOG_UNFOLD_H_

#include "datalog/cq.h"
#include "util/status.h"

namespace ccpi {

/// Unfolds a *nonrecursive* program into an explicit union of conjunctive
/// queries over EDB predicates only (Sagiv–Yannakakis: nonrecursive datalog
/// = finite unions of CQs). This powers both classification ("is this
/// rewritten constraint still a single CQ?") and containment tests on the
/// rewritten constraints of Section 4 (which introduce helper predicates
/// such as `dept1` and `emp1`).
///
/// Positive IDB subgoals unfold by standard rule substitution (one branch
/// per defining rule). A negated IDB subgoal `not p(args)` unfolds by
/// negating the disjunction of its (unified) rule bodies, which is possible
/// inside UCQ exactly when no defining rule introduces an existential
/// variable: `not (B1 or ... or Bk)` becomes the cross product of choices of
/// one negated literal from each Bi. The paper's constructions (`dept1`,
/// `emp1`, `isJones`) are all of this shape. If a defining rule of a negated
/// predicate has existential variables, Unsupported is returned — the
/// negation of an existential is not expressible in UCQ with safe negation.
/// Unsupported is also returned when the unfolding would take more than a
/// fixed number of expansion steps (`kMaxUnfoldSteps` in unfold.cc): the
/// number of disjuncts can grow exponentially with the nesting depth.
///
/// Returns InvalidArgument if the program is recursive.
Result<UCQ> UnfoldToUCQ(const Program& program);

}  // namespace ccpi

#endif  // CCPI_DATALOG_UNFOLD_H_
