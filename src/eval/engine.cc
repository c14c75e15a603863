#include "eval/engine.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "datalog/safety.h"
#include "eval/stratify.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace ccpi {

namespace {

using Env = std::map<std::string, Value>;

/// Accumulates engine counters locally during one Evaluate call and
/// flushes them into the registry on scope exit (any return path). The
/// registry lookups happen once per evaluation, never per rule or tuple.
struct EvalMetricsFlush {
  obs::MetricsRegistry* registry;
  size_t rule_evals = 0;
  size_t fixpoint_rounds = 0;
  size_t budget_checks = 0;
  const size_t* derived;  // the engine's derived-tuple count

  ~EvalMetricsFlush() {
    if (registry == nullptr) return;
    registry->GetCounter("eval.evaluations")->Add(1);
    registry->GetCounter("eval.rule_evals")->Add(rule_evals);
    registry->GetCounter("eval.fixpoint_rounds")->Add(fixpoint_rounds);
    registry->GetCounter("eval.tuples_derived")->Add(*derived);
    registry->GetCounter("eval.budget_checks")->Add(budget_checks);
  }
};

std::optional<Value> GroundTerm(const Term& t, const Env& env) {
  if (t.is_const()) return t.constant();
  auto it = env.find(t.var());
  if (it == env.end()) return std::nullopt;
  return it->second;
}

/// Evaluates one rule against a set of relation sources, invoking `emit`
/// for every derived head tuple. Literals are scheduled dynamically:
/// filters (comparisons, negated subgoals) run as soon as they are ground,
/// equality comparisons bind, and the next join picks the positive subgoal
/// with the most bound arguments.
class RuleEval {
 public:
  /// `fetch(pred, arity, literal_index)` supplies the relation a positive
  /// literal reads (the index lets semi-naive evaluation substitute a delta
  /// relation for one designated occurrence). `lookup(pred, arity)` supplies
  /// relations for negated subgoals.
  RuleEval(const Rule& rule,
           std::function<const Relation*(const std::string&, size_t, size_t)>
               fetch,
           std::function<const Relation*(const std::string&, size_t)> lookup,
           AccessObserver* observer,
           const std::set<std::string>* edb_preds, bool use_index,
           const BudgetScope* budget, size_t* budget_checks,
           std::function<void(Tuple)> emit)
      : rule_(rule),
        fetch_(std::move(fetch)),
        lookup_(std::move(lookup)),
        observer_(observer),
        use_index_(use_index),
        edb_preds_(edb_preds),
        budget_(budget),
        budget_checks_(budget_checks),
        emit_(std::move(emit)) {}

  /// Non-OK when an observed read failed mid-evaluation (e.g. the remote
  /// site is unavailable); derived tuples emitted before the failure must
  /// be discarded by the caller.
  Status Run() {
    std::vector<size_t> remaining(rule_.body.size());
    for (size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;
    Env env;
    Step(&env, remaining);
    return status_;
  }

 private:
  /// Reports a read to the observer; returns false (and latches the error
  /// for Run) if the observer refused it.
  bool Observe(const std::string& pred, size_t count) {
    if (budget_ != nullptr) {
      ++*budget_checks_;
      Status st = budget_->Check();
      if (!st.ok()) {
        if (status_.ok()) status_ = std::move(st);
        return false;
      }
    }
    if (observer_ != nullptr && edb_preds_->count(pred) > 0) {
      Status st = observer_->OnRead(pred, count);
      if (!st.ok()) {
        if (status_.ok()) status_ = std::move(st);
        return false;
      }
    }
    return true;
  }

  /// Applies all currently-decidable filters and equality bindings.
  /// Returns false if a filter failed (dead branch).
  bool Propagate(Env* env, std::vector<size_t>* remaining) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t pos = 0; pos < remaining->size(); ++pos) {
        const Literal& lit = rule_.body[(*remaining)[pos]];
        if (lit.is_comparison()) {
          std::optional<Value> a = GroundTerm(lit.cmp.lhs, *env);
          std::optional<Value> b = GroundTerm(lit.cmp.rhs, *env);
          if (a.has_value() && b.has_value()) {
            if (!EvalCmp(*a, lit.cmp.op, *b)) return false;
            remaining->erase(remaining->begin() + pos);
            --pos;
            changed = true;
          } else if (lit.cmp.op == CmpOp::kEq &&
                     (a.has_value() || b.has_value())) {
            const Term& unbound = a.has_value() ? lit.cmp.rhs : lit.cmp.lhs;
            (*env)[unbound.var()] = a.has_value() ? *a : *b;
            remaining->erase(remaining->begin() + pos);
            --pos;
            changed = true;
          }
        } else if (lit.is_negated()) {
          Tuple t;
          bool ground = true;
          for (const Term& arg : lit.atom.args) {
            std::optional<Value> v = GroundTerm(arg, *env);
            if (!v.has_value()) {
              ground = false;
              break;
            }
            t.push_back(*v);
          }
          if (ground) {
            const Relation* rel =
                lookup_(lit.atom.pred, lit.atom.args.size());
            if (!Observe(lit.atom.pred, 1)) return false;
            if (rel != nullptr && rel->Contains(t)) return false;
            remaining->erase(remaining->begin() + pos);
            --pos;
            changed = true;
          }
        }
      }
    }
    return true;
  }

  void Step(Env* env, std::vector<size_t> remaining) {
    if (!status_.ok()) return;  // a read already failed: unwind
    Env saved = *env;
    if (!Propagate(env, &remaining)) {
      *env = saved;
      return;
    }
    // All positive atoms joined and all filters passed?
    bool has_positive = false;
    for (size_t idx : remaining) {
      if (rule_.body[idx].is_positive()) has_positive = true;
    }
    if (!has_positive) {
      // Any leftover literals are non-ground filters; safety guarantees
      // this cannot happen for safe rules.
      CCPI_CHECK(remaining.empty());
      Tuple head;
      head.reserve(rule_.head.args.size());
      for (const Term& t : rule_.head.args) {
        std::optional<Value> v = GroundTerm(t, *env);
        CCPI_CHECK(v.has_value());
        head.push_back(*v);
      }
      emit_(std::move(head));
      *env = saved;
      return;
    }

    // Pick the positive subgoal with the most bound arguments.
    size_t best_pos = remaining.size();
    int best_bound = -1;
    for (size_t pos = 0; pos < remaining.size(); ++pos) {
      const Literal& lit = rule_.body[remaining[pos]];
      if (!lit.is_positive()) continue;
      int bound = 0;
      for (const Term& arg : lit.atom.args) {
        if (GroundTerm(arg, *env).has_value()) ++bound;
      }
      if (bound > best_bound) {
        best_bound = bound;
        best_pos = pos;
      }
    }
    size_t lit_idx = remaining[best_pos];
    remaining.erase(remaining.begin() + best_pos);
    const Atom& atom = rule_.body[lit_idx].atom;
    const Relation* rel = fetch_(atom.pred, atom.args.size(), lit_idx);
    if (rel == nullptr || rel->empty()) {
      *env = saved;
      return;
    }

    // Probe on the first bound column if any (and indexing is enabled);
    // otherwise scan.
    size_t probe_col = atom.args.size();
    Value probe_val;
    if (use_index_) {
      for (size_t i = 0; i < atom.args.size(); ++i) {
        std::optional<Value> v = GroundTerm(atom.args[i], *env);
        if (v.has_value()) {
          probe_col = i;
          probe_val = *v;
          break;
        }
      }
    }
    // `t` lives in the row store, which the recursion below may grow and
    // reallocate: it is read only before recursing.
    auto try_tuple = [&](const Tuple& t) {
      Env extended = *env;
      for (size_t i = 0; i < atom.args.size(); ++i) {
        const Term& arg = atom.args[i];
        if (arg.is_const()) {
          if (!(arg.constant() == t[i])) return;
        } else {
          auto it = extended.find(arg.var());
          if (it == extended.end()) {
            extended[arg.var()] = t[i];
          } else if (!(it->second == t[i])) {
            return;
          }
        }
      }
      Step(&extended, remaining);
    };
    // A recursive rule may insert into `rel` while we scan it (the head
    // predicate can occur in its own body). Inserts only append — to the
    // row store and to index postings — so the scan fixes its length up
    // front and reads by position: rows appended during the scan are not
    // visited, and a reallocation behind a posting or the row store never
    // invalidates a position. No posting or row is copied.
    const std::vector<Tuple>& rows = rel->rows();
    if (probe_col < atom.args.size()) {
      const std::vector<size_t>& posting = rel->Probe(probe_col, probe_val);
      const size_t n = posting.size();
      if (!Observe(atom.pred, n)) {
        *env = saved;
        return;
      }
      for (size_t i = 0; i < n && status_.ok(); ++i) {
        try_tuple(rows[posting[i]]);
      }
    } else {
      const size_t n = rel->size();
      if (!Observe(atom.pred, n)) {
        *env = saved;
        return;
      }
      for (size_t i = 0; i < n && status_.ok(); ++i) try_tuple(rows[i]);
    }
    *env = saved;
  }

  const Rule& rule_;
  std::function<const Relation*(const std::string&, size_t, size_t)> fetch_;
  std::function<const Relation*(const std::string&, size_t)> lookup_;
  AccessObserver* observer_;
  bool use_index_;
  const std::set<std::string>* edb_preds_;
  const BudgetScope* budget_;
  size_t* budget_checks_;
  std::function<void(Tuple)> emit_;
  Status status_;  // first observer failure, returned by Run
};

}  // namespace

std::set<std::string> EdbPredicates(const Program& program) {
  std::set<std::string> idb_preds = program.IdbPredicates();
  std::set<std::string> edb_preds;
  for (const Rule& r : program.rules) {
    for (const Literal& l : r.body) {
      if (!l.is_comparison() && idb_preds.count(l.atom.pred) == 0) {
        edb_preds.insert(l.atom.pred);
      }
    }
  }
  return edb_preds;
}

Result<CompiledProgram> CompileProgram(Program program) {
  CCPI_RETURN_IF_ERROR(CheckProgramSafety(program));
  CompiledProgram plan;
  CCPI_ASSIGN_OR_RETURN(plan.strat, Stratify(program));
  plan.idb_preds = program.IdbPredicates();
  plan.edb_preds = EdbPredicates(program);
  for (const Rule& r : program.rules) {
    if (r.head.pred == program.goal) plan.goal_arity = r.head.args.size();
  }
  plan.program = std::move(program);
  return plan;
}

Result<Database> Evaluate(const CompiledProgram& plan, const Database& edb,
                          const EvalOptions& options) {
  const Program& program = plan.program;
  obs::Span span("eval.evaluate");
  if (span.active()) {
    span.Attr("rules", static_cast<int64_t>(program.rules.size()));
    span.Attr("goal", program.goal);
  }
  const Stratification& strat = plan.strat;
  const std::set<std::string>& idb_preds = plan.idb_preds;
  const std::set<std::string>& edb_preds = plan.edb_preds;

  Database idb;
  size_t derived = 0;
  EvalMetricsFlush metrics{options.metrics, 0, 0, 0, &derived};
  // Budget checkpoints: one per fixpoint round, one per round's batch of
  // newly derived tuples (RuleEval adds one per EDB enumeration). All of
  // this is a null-pointer branch when no budget is attached.
  const BudgetScope* budget = options.budget;
  size_t charged = 0;  // derived tuples already billed to the budget
  auto budget_round = [&]() -> Status {
    if (budget == nullptr) return Status::OK();
    ++metrics.budget_checks;
    return budget->OnFixpointRound();
  };
  auto budget_tuples = [&]() -> Status {
    if (budget == nullptr || derived <= charged) return Status::OK();
    ++metrics.budget_checks;
    Status st = budget->OnDerivedTuples(derived - charged);
    charged = derived;
    return st;
  };
  if (options.seed_idb != nullptr) {
    // Seed derived relations (the uniform-containment chase evaluates a
    // program over frozen facts of its own IDB predicates).
    for (const std::string& pred : options.seed_idb->PredicateNames()) {
      const Relation& rel = options.seed_idb->Get(pred, 0);
      for (const Tuple& t : rel.rows()) {
        CCPI_RETURN_IF_ERROR(idb.Insert(pred, t));
      }
    }
  }

  auto lookup = [&](const std::string& pred, size_t arity) -> const Relation* {
    if (idb_preds.count(pred) > 0) return &idb.Get(pred, arity);
    return &edb.Get(pred, arity);
  };

  for (const std::vector<Rule>& stratum : strat.strata) {
    std::set<std::string> stratum_preds;
    for (const Rule& r : stratum) stratum_preds.insert(r.head.pred);

    // Tuples derived in the current iteration, per predicate.
    Database delta;
    auto emit = [&](const std::string& pred, Tuple t) {
      if (idb.GetMutable(pred, t.size())->Insert(t)) {
        delta.GetMutable(pred, t.size())->Insert(std::move(t));
        ++derived;
      }
    };

    auto run_full_round = [&]() -> Status {
      for (const Rule& rule : stratum) {
        ++metrics.rule_evals;
        auto fetch = [&](const std::string& pred, size_t arity,
                         size_t) -> const Relation* {
          return lookup(pred, arity);
        };
        RuleEval eval(
            rule, fetch, lookup, options.observer, &edb_preds,
            options.use_index, budget, &metrics.budget_checks,
            [&](Tuple t) { emit(rule.head.pred, std::move(t)); });
        CCPI_RETURN_IF_ERROR(eval.Run());
      }
      return Status::OK();
    };

    // Initial round: every rule against the current (pre-stratum) state.
    ++metrics.fixpoint_rounds;
    CCPI_RETURN_IF_ERROR(budget_round());
    CCPI_RETURN_IF_ERROR(run_full_round());
    CCPI_RETURN_IF_ERROR(budget_tuples());

    if (!options.use_seminaive) {
      // Naive fixpoint (ablation baseline): full rounds until quiescence.
      while (delta.TotalTuples() > 0) {
        if (options.max_derived_tuples != 0 &&
            derived > options.max_derived_tuples) {
          return Status::Internal("derivation limit exceeded");
        }
        delta = Database();
        ++metrics.fixpoint_rounds;
        CCPI_RETURN_IF_ERROR(budget_round());
        CCPI_RETURN_IF_ERROR(run_full_round());
        CCPI_RETURN_IF_ERROR(budget_tuples());
      }
      continue;
    }

    // Semi-naive iteration: re-evaluate each rule once per recursive
    // occurrence, with that occurrence reading the previous delta.
    while (delta.TotalTuples() > 0) {
      if (options.max_derived_tuples != 0 &&
          derived > options.max_derived_tuples) {
        return Status::Internal("derivation limit exceeded");
      }
      Database prev_delta = std::move(delta);
      delta = Database();
      ++metrics.fixpoint_rounds;
      CCPI_RETURN_IF_ERROR(budget_round());
      for (const Rule& rule : stratum) {
        for (size_t k = 0; k < rule.body.size(); ++k) {
          const Literal& lit = rule.body[k];
          if (!lit.is_positive() || stratum_preds.count(lit.atom.pred) == 0) {
            continue;
          }
          if (!prev_delta.Has(lit.atom.pred)) continue;
          auto fetch = [&](const std::string& pred, size_t arity,
                           size_t idx) -> const Relation* {
            if (idx == k) return &prev_delta.Get(pred, arity);
            return lookup(pred, arity);
          };
          RuleEval eval(
              rule, fetch, lookup, options.observer, &edb_preds,
              options.use_index, budget, &metrics.budget_checks,
              [&](Tuple t) { emit(rule.head.pred, std::move(t)); });
          CCPI_RETURN_IF_ERROR(eval.Run());
        }
      }
      CCPI_RETURN_IF_ERROR(budget_tuples());
    }
  }
  return idb;
}

Result<Relation> EvaluateGoal(const CompiledProgram& plan, const Database& edb,
                              const EvalOptions& options) {
  CCPI_ASSIGN_OR_RETURN(Database idb, Evaluate(plan, edb, options));
  return idb.Get(plan.program.goal, plan.goal_arity);
}

Result<bool> IsViolated(const CompiledProgram& plan, const Database& edb,
                        const EvalOptions& options) {
  CCPI_ASSIGN_OR_RETURN(Relation goal, EvaluateGoal(plan, edb, options));
  return !goal.empty();
}

Result<Database> Evaluate(const Program& program, const Database& edb,
                          const EvalOptions& options) {
  CCPI_ASSIGN_OR_RETURN(CompiledProgram plan, CompileProgram(program));
  return Evaluate(plan, edb, options);
}

Result<Relation> EvaluateGoal(const Program& program, const Database& edb,
                              const EvalOptions& options) {
  CCPI_ASSIGN_OR_RETURN(CompiledProgram plan, CompileProgram(program));
  return EvaluateGoal(plan, edb, options);
}

Result<bool> IsViolated(const Program& constraint, const Database& edb,
                        const EvalOptions& options) {
  CCPI_ASSIGN_OR_RETURN(CompiledProgram plan, CompileProgram(constraint));
  return IsViolated(plan, edb, options);
}

}  // namespace ccpi
