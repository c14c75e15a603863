#ifndef CCPI_RA_RA_EVAL_H_
#define CCPI_RA_RA_EVAL_H_

#include "eval/engine.h"
#include "ra/ra_expr.h"
#include "relational/database.h"
#include "util/status.h"

namespace ccpi {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Evaluates an RA expression against `db`. Scans of absent relations see
/// the empty relation. Two selections are evaluated by access path rather
/// than by filtering their input: a selection directly over a scan with a
/// `#c = constant` condition reads only the rows Relation::Probe returns
/// for that constant, and a selection directly over a product with a
/// column equality across it is a hash join; either emits the same rows
/// in the same order as filtering would. If `observer` is non-null it is
/// told how many tuples of each base relation were read, counted as the
/// rows enumerated (a probed selection reads its posting, not the
/// relation) — the complete local tests of Theorem 5.3 run entirely over
/// the local relation, and the benchmark harness uses this hook to
/// demonstrate it. If `metrics` is non-null the evaluator
/// accounts `ra.*` counters into it (see docs/observability.md); the
/// counter handle is resolved once per call, not per node. If `budget` is
/// non-null the evaluator checks the deadline / cancellation at every
/// operator node and fails with kResourceExhausted once the envelope is
/// spent (see docs/budgets.md); null costs a single branch.
Result<Relation> EvalRa(const RaExpr& expr, const Database& db,
                        AccessObserver* observer = nullptr,
                        obs::MetricsRegistry* metrics = nullptr,
                        const BudgetScope* budget = nullptr);

/// Nonemptiness — the form in which Theorem 5.3 phrases its test.
Result<bool> RaNonempty(const RaExpr& expr, const Database& db,
                        AccessObserver* observer = nullptr,
                        obs::MetricsRegistry* metrics = nullptr,
                        const BudgetScope* budget = nullptr);

}  // namespace ccpi

#endif  // CCPI_RA_RA_EVAL_H_
