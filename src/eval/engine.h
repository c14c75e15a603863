#ifndef CCPI_EVAL_ENGINE_H_
#define CCPI_EVAL_ENGINE_H_

#include <set>
#include <string>

#include "datalog/ast.h"
#include "eval/stratify.h"
#include "relational/database.h"
#include "util/budget.h"
#include "util/status.h"

namespace ccpi {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Observer of base-relation reads during evaluation. The distributed-site
/// simulator implements this to charge local vs. remote access costs: the
/// paper's motivation is precisely that a test's value depends on *which*
/// relations it reads.
///
/// OnRead is fallible: a simulated remote site may refuse the read
/// (kUnavailable / kDeadlineExceeded), in which case the evaluation engine
/// aborts and propagates the status — an evaluation that could not see all
/// the data it asked for must not report a verdict.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  /// `count` tuples of EDB predicate `pred` are being enumerated (scanned
  /// or probed) by the engine. Returning non-OK fails the read.
  virtual Status OnRead(const std::string& pred, size_t count) = 0;
};

struct EvalOptions {
  /// If set, receives one callback per EDB enumeration.
  AccessObserver* observer = nullptr;
  /// If set, the engine accounts rule evaluations, fixpoint rounds, and
  /// derived tuples into `eval.*` counters of this registry (see
  /// docs/observability.md for the catalog). Null costs nothing.
  obs::MetricsRegistry* metrics = nullptr;
  /// Execution budget (null = unbudgeted; the check is then a single branch
  /// and the engine reads no clocks). When set, the engine checks it at the
  /// start of every fixpoint round, after every rule evaluation's batch of
  /// derived tuples, and on every EDB enumeration, failing the evaluation
  /// with kResourceExhausted once the envelope is spent. Checkpoint counts
  /// land in the `eval.budget_checks` counter when `metrics` is set.
  const BudgetScope* budget = nullptr;
  /// Tuples seeded into IDB relations before evaluation begins (used by
  /// the uniform-containment chase, where a program runs over frozen
  /// facts of its own derived predicates). May be null.
  const Database* seed_idb = nullptr;
  /// Ablation switch: false re-evaluates rules against the full state each
  /// round (naive fixpoint) instead of delta-driven semi-naive rounds.
  bool use_seminaive = true;
  /// Ablation switch: false disables index probes (always scan).
  bool use_index = true;
};

/// The base (EDB) predicates `program` reads: every body predicate that is
/// not derived by one of its own rules. These are exactly the relations an
/// evaluation of the program may enumerate — the manager uses this to know
/// which remote relations a tier-3 check will touch, so it can prefetch
/// them once per episode.
std::set<std::string> EdbPredicates(const Program& program);

/// A program's evaluation-independent analysis, computed once and reusable
/// across any number of evaluations: the safety check has passed, the
/// stratification is fixed, and the IDB/EDB predicate partition and goal
/// arity are precomputed. Everything in here is a pure function of the
/// program text — never of the data — so a CompiledProgram built at
/// constraint-registration time stays valid for the constraint's lifetime
/// (the manager keeps one per constraint for its tier-3 checks; see
/// docs/plan_cache.md).
struct CompiledProgram {
  Program program;
  Stratification strat;
  std::set<std::string> idb_preds;
  std::set<std::string> edb_preds;
  /// Arity of the goal predicate's head (0 when no rule derives the goal).
  size_t goal_arity = 0;
};

/// Runs the per-program analysis (safety, stratification, predicate
/// partition) without evaluating anything. Fails exactly where
/// Evaluate(program, ...) would: unsafe or unstratifiable programs.
Result<CompiledProgram> CompileProgram(Program program);

/// Evaluates a precompiled program. Identical observable behavior to the
/// Program overloads below — same reads, same metrics, same budget
/// checkpoints — minus the per-call safety/stratification analysis.
Result<Database> Evaluate(const CompiledProgram& plan, const Database& edb,
                          const EvalOptions& options = {});
Result<Relation> EvaluateGoal(const CompiledProgram& plan, const Database& edb,
                              const EvalOptions& options = {});
Result<bool> IsViolated(const CompiledProgram& plan, const Database& edb,
                        const EvalOptions& options = {});

/// Evaluates a (possibly recursive) stratified datalog program with safe
/// negation and arithmetic comparisons over `edb`; returns the IDB
/// relations. Semi-naive iteration within each stratum.
///
/// Fails with InvalidArgument for unsafe or unstratifiable programs.
Result<Database> Evaluate(const Program& program, const Database& edb,
                          const EvalOptions& options = {});

/// Evaluates and returns the relation of the program's goal predicate.
Result<Relation> EvaluateGoal(const Program& program, const Database& edb,
                              const EvalOptions& options = {});

/// For a constraint query (goal `panic`): true iff panic is derivable,
/// i.e. the database violates the constraint (Section 2: a database
/// satisfies the constraint iff the query result is empty).
Result<bool> IsViolated(const Program& constraint, const Database& edb,
                        const EvalOptions& options = {});

}  // namespace ccpi

#endif  // CCPI_EVAL_ENGINE_H_
