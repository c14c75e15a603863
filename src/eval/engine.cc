#include "eval/engine.h"

#include <algorithm>
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

/// One predicate an evaluation reads or derives, resolved once when the
/// evaluation starts, so that no probe looks a name up.
struct PredSlot {
  const std::string* pred = nullptr;
  /// The relation read: the EDB relation, or the derived one (null until
  /// the evaluation is seeded with or derives its first row).
  const Relation* rel = nullptr;
  /// IDB: the derived relation's writable handle, and the previous round's
  /// delta as the row range [delta_lo, delta_hi) that round appended. Rows
  /// only append, so the range needs no copy of its tuples.
  Relation* derived = nullptr;
  size_t delta_lo = 0;
  size_t delta_hi = 0;
  /// EDB: how the evaluation reads it. A remote relation is read once: its
  /// first enumeration is one logical read of the whole relation, and
  /// later enumerations are local work. A local relation tallies the rows
  /// its enumerations visit and reports them when the evaluation ends.
  bool edb = false;
  bool remote = false;
  bool read = false;
  size_t local_rows = 0;
};

/// A rule with its head and body literals resolved to slots (null for
/// comparisons).
struct RulePlan {
  const Rule* rule = nullptr;
  PredSlot* head = nullptr;
  std::vector<PredSlot*> body;
};

/// The slots of one evaluation and its rules, stratum by stratum. Local
/// row tallies reach the observer once per relation, when the evaluation
/// ends, whatever path it ends on.
class SlotTable {
 public:
  SlotTable(const CompiledProgram& plan, const Database& edb, Database* idb,
            AccessObserver* observer)
      : observer_(observer) {
    rules_.reserve(plan.strat.strata.size());
    for (const std::vector<Rule>& stratum : plan.strat.strata) {
      std::vector<RulePlan>& plans = rules_.emplace_back();
      plans.reserve(stratum.size());
      for (const Rule& rule : stratum) {
        RulePlan& rp = plans.emplace_back();
        rp.rule = &rule;
        rp.head = Resolve(plan, edb, idb, rule.head);
        rp.body.reserve(rule.body.size());
        for (const Literal& lit : rule.body) {
          rp.body.push_back(lit.is_comparison()
                                ? nullptr
                                : Resolve(plan, edb, idb, lit.atom));
        }
      }
    }
  }
  ~SlotTable() { (void)Flush(); }
  SlotTable(const SlotTable&) = delete;
  SlotTable& operator=(const SlotTable&) = delete;

  const std::vector<RulePlan>& rules(size_t stratum) const {
    return rules_[stratum];
  }

  /// Accounts an enumeration of `count` rows of `slot`.
  Status Read(PredSlot* slot, size_t count) {
    if (!slot->edb || observer_ == nullptr) return Status::OK();
    if (!slot->remote) {
      slot->read = true;
      slot->local_rows += count;
      return Status::OK();
    }
    if (slot->read) return Status::OK();
    slot->read = true;
    return observer_->OnRead(*slot->pred, slot->rel->size());
  }

  /// Reports every local tally to the observer. Only the first call
  /// reports; the destructor makes it on an evaluation's error paths.
  Status Flush() {
    if (flushed_ || observer_ == nullptr) return Status::OK();
    flushed_ = true;
    Status first;
    for (const auto& [pred, slot] : slots_) {
      if (!slot.edb || slot.remote || !slot.read) continue;
      Status st = observer_->OnRead(pred, slot.local_rows);
      if (first.ok()) first = std::move(st);
    }
    return first;
  }

 private:
  PredSlot* Resolve(const CompiledProgram& plan, const Database& edb,
                    Database* idb, const Atom& atom) {
    auto [it, inserted] = slots_.try_emplace(atom.pred);
    PredSlot& slot = it->second;
    if (!inserted) return &slot;
    slot.pred = &it->first;
    if (plan.edb_preds.count(atom.pred) > 0) {
      slot.edb = true;
      slot.rel = &edb.Get(atom.pred, atom.args.size());
      slot.remote = observer_ != nullptr && observer_->IsRemote(atom.pred);
    } else if (idb->Has(atom.pred)) {
      slot.derived = idb->GetMutable(atom.pred, atom.args.size());
      slot.rel = slot.derived;
    }
    return &slot;
  }

  AccessObserver* observer_;
  bool flushed_ = false;
  std::map<std::string, PredSlot> slots_;
  std::vector<std::vector<RulePlan>> rules_;
};

/// What every rule run of one evaluation shares.
struct EvalContext {
  Database* idb;
  SlotTable* slots;
  bool use_index;
  const BudgetScope* budget;
  size_t* budget_checks;
  size_t* derived;  // new rows inserted into derived relations
};

/// Evaluates one rule, inserting every derived head tuple into the head's
/// derived relation. Literals are scheduled dynamically: filters
/// (comparisons, negated subgoals) run as soon as they are ground, equality
/// comparisons bind, and the next join picks the positive subgoal with the
/// most bound arguments (between the delta occurrence and its equals, the
/// smaller input).
class RuleEval {
 public:
  static constexpr size_t kNoDelta = static_cast<size_t>(-1);

  /// With `delta` set, that body occurrence reads only the previous
  /// round's delta rows of its relation (semi-naive evaluation).
  RuleEval(const RulePlan& plan, const EvalContext& ctx,
           size_t delta = kNoDelta)
      : plan_(plan), rule_(*plan.rule), ctx_(ctx), delta_(delta) {}

  /// Non-OK when a read failed mid-evaluation (e.g. the remote site is
  /// unavailable, or the budget ran out); the evaluation must then report
  /// no verdict.
  Status Run() {
    std::vector<size_t> remaining(rule_.body.size());
    for (size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;
    Env env;
    Step(&env, remaining);
    return status_;
  }

 private:
  /// Accounts an enumeration of `count` rows of `slot`; returns false (and
  /// latches the error for Run) if the budget or the observer refused it.
  bool Observe(PredSlot* slot, size_t count) {
    if (ctx_.budget != nullptr) {
      ++*ctx_.budget_checks;
      Status st = ctx_.budget->Check();
      if (!st.ok()) {
        if (status_.ok()) status_ = std::move(st);
        return false;
      }
    }
    Status st = ctx_.slots->Read(slot, count);
    if (!st.ok()) {
      if (status_.ok()) status_ = std::move(st);
      return false;
    }
    return true;
  }

  /// The rows body literal `idx` reads: the delta range, or its relation.
  size_t InputRows(size_t idx) const {
    const PredSlot& slot = *plan_.body[idx];
    if (idx == delta_) return slot.delta_hi - slot.delta_lo;
    return slot.rel == nullptr ? 0 : slot.rel->size();
  }

  void Emit(Tuple t) {
    PredSlot& head = *plan_.head;
    if (head.derived == nullptr) {
      head.derived = ctx_.idb->GetMutable(*head.pred, t.size());
      head.rel = head.derived;
    }
    if (head.derived->Insert(std::move(t))) ++*ctx_.derived;
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
            PredSlot* slot = plan_.body[(*remaining)[pos]];
            if (!Observe(slot, 1)) return false;
            if (slot->rel != nullptr && slot->rel->Contains(t)) return false;
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
      Emit(std::move(head));
      *env = saved;
      return;
    }

    // Pick the positive subgoal with the most bound arguments. Between the
    // delta occurrence and an equally bound literal, the smaller input goes
    // first, the delta on equal sizes: a recursive rule scans the round's
    // new rows and probes the rest, unless the rest is smaller still.
    size_t best_pos = remaining.size();
    int best_bound = -1;
    for (size_t pos = 0; pos < remaining.size(); ++pos) {
      const size_t idx = remaining[pos];
      const Literal& lit = rule_.body[idx];
      if (!lit.is_positive()) continue;
      int bound = 0;
      for (const Term& arg : lit.atom.args) {
        if (GroundTerm(arg, *env).has_value()) ++bound;
      }
      bool better = bound > best_bound;
      if (bound == best_bound) {
        const size_t best = remaining[best_pos];
        if (idx == delta_) better = InputRows(idx) <= InputRows(best);
        if (best == delta_) better = InputRows(idx) < InputRows(best);
      }
      if (better) {
        best_bound = bound;
        best_pos = pos;
      }
    }
    const size_t lit_idx = remaining[best_pos];
    remaining.erase(remaining.begin() + best_pos);
    const Atom& atom = rule_.body[lit_idx].atom;
    PredSlot* slot = plan_.body[lit_idx];
    const Relation* rel = slot->rel;
    if (rel == nullptr || rel->empty()) {
      *env = saved;
      return;
    }
    // The rows this occurrence reads: the previous round's delta, or the
    // whole relation as of now. A recursive rule may insert into `rel`
    // while we scan it (the head predicate can occur in its own body).
    // Inserts only append — to the row store and to index postings — so
    // the range is fixed up front and read by position: rows appended
    // during the scan are not visited, and a reallocation behind a posting
    // or the row store never invalidates a position. No posting or row is
    // copied.
    const bool is_delta = lit_idx == delta_;
    const size_t lo = is_delta ? slot->delta_lo : 0;
    const size_t hi = is_delta ? slot->delta_hi : rel->size();

    // Probe on the first bound column if any (and indexing is enabled);
    // otherwise scan.
    size_t probe_col = atom.args.size();
    Value probe_val;
    if (ctx_.use_index) {
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
    const std::vector<Tuple>& rows = rel->rows();
    if (probe_col < atom.args.size()) {
      // Postings are ascending row positions, so the range is a slice.
      const std::vector<size_t>& posting = rel->Probe(probe_col, probe_val);
      size_t begin = 0;
      size_t end = posting.size();
      if (is_delta) {
        begin = std::lower_bound(posting.begin(), posting.end(), lo) -
                posting.begin();
        end = std::lower_bound(posting.begin() + begin, posting.end(), hi) -
              posting.begin();
      }
      if (!Observe(slot, end - begin)) {
        *env = saved;
        return;
      }
      for (size_t i = begin; i < end && status_.ok(); ++i) {
        try_tuple(rows[posting[i]]);
      }
    } else {
      if (!Observe(slot, hi - lo)) {
        *env = saved;
        return;
      }
      for (size_t i = lo; i < hi && status_.ok(); ++i) try_tuple(rows[i]);
    }
    *env = saved;
  }

  const RulePlan& plan_;
  const Rule& rule_;
  const EvalContext& ctx_;
  size_t delta_;
  Status status_;  // first refused read, returned by Run
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

  Database idb;
  size_t derived = 0;
  EvalMetricsFlush metrics{options.metrics, 0, 0, 0, &derived};
  // Budget checkpoints: one per fixpoint round, one per round's batch of
  // newly derived tuples (RuleEval adds one per relation enumeration). All
  // of this is a null-pointer branch when no budget is attached.
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

  SlotTable slots(plan, edb, &idb, options.observer);
  const EvalContext ctx{&idb, &slots, options.use_index, budget,
                        &metrics.budget_checks, &derived};
  for (size_t s = 0; s < plan.strat.strata.size(); ++s) {
    const std::vector<RulePlan>& rules = slots.rules(s);
    std::vector<PredSlot*> heads;
    for (const RulePlan& rp : rules) {
      if (std::find(heads.begin(), heads.end(), rp.head) == heads.end()) {
        heads.push_back(rp.head);
      }
    }
    // A round's delta is the rows it appended to the stratum's relations.
    auto close_round = [&]() {
      bool grew = false;
      for (PredSlot* h : heads) {
        h->delta_lo = h->delta_hi;
        h->delta_hi = h->rel == nullptr ? 0 : h->rel->size();
        grew = grew || h->delta_hi > h->delta_lo;
      }
      return grew;
    };
    auto run_full_round = [&]() -> Status {
      for (const RulePlan& rp : rules) {
        ++metrics.rule_evals;
        CCPI_RETURN_IF_ERROR(RuleEval(rp, ctx).Run());
      }
      return Status::OK();
    };
    // Semi-naive round: each rule once per recursive occurrence whose
    // relation grew, with that occurrence reading the previous delta.
    auto run_delta_round = [&]() -> Status {
      for (const RulePlan& rp : rules) {
        for (size_t k = 0; k < rp.body.size(); ++k) {
          const PredSlot* slot = rp.body[k];
          if (!rp.rule->body[k].is_positive() ||
              slot->delta_hi == slot->delta_lo) {
            continue;
          }
          CCPI_RETURN_IF_ERROR(RuleEval(rp, ctx, k).Run());
        }
      }
      return Status::OK();
    };

    // Initial round: every rule against the current (pre-stratum) state.
    close_round();
    ++metrics.fixpoint_rounds;
    CCPI_RETURN_IF_ERROR(budget_round());
    CCPI_RETURN_IF_ERROR(run_full_round());
    CCPI_RETURN_IF_ERROR(budget_tuples());
    // Then rounds until quiescence: delta-driven, or full rounds for the
    // naive ablation baseline.
    while (close_round()) {
      ++metrics.fixpoint_rounds;
      CCPI_RETURN_IF_ERROR(budget_round());
      CCPI_RETURN_IF_ERROR(options.use_seminaive ? run_delta_round()
                                                 : run_full_round());
      CCPI_RETURN_IF_ERROR(budget_tuples());
    }
  }
  CCPI_RETURN_IF_ERROR(slots.Flush());
  return idb;
}

Result<Relation> EvaluateGoal(const CompiledProgram& plan, const Database& edb,
                              const EvalOptions& options) {
  CCPI_ASSIGN_OR_RETURN(Database idb, Evaluate(plan, edb, options));
  return idb.Get(plan.program.goal, plan.goal_arity);
}

Result<bool> IsViolated(const CompiledProgram& plan, const Database& edb,
                        const EvalOptions& options) {
  CCPI_ASSIGN_OR_RETURN(Database idb, Evaluate(plan, edb, options));
  return !idb.Get(plan.program.goal, plan.goal_arity).empty();
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
