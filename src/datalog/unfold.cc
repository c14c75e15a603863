#include "datalog/unfold.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "util/check.h"

namespace ccpi {

namespace {

CQ BodyToCQ(const Atom& head, const std::vector<Literal>& body) {
  CQ q;
  q.head = head;
  for (const Literal& l : body) {
    switch (l.kind) {
      case Literal::Kind::kPositive:
        q.positives.push_back(l.atom);
        break;
      case Literal::Kind::kNegated:
        q.negatives.push_back(l.atom);
        break;
      case Literal::Kind::kComparison:
        q.comparisons.push_back(l.cmp);
        break;
    }
  }
  return q;
}

/// The logical complement of a single literal over a total order.
Literal NegateLiteral(const Literal& l) {
  switch (l.kind) {
    case Literal::Kind::kPositive:
      return Literal::Negated(l.atom);
    case Literal::Kind::kNegated:
      return Literal::Positive(l.atom);
    case Literal::Kind::kComparison:
      return Literal::Cmp(
          Comparison{l.cmp.lhs, Negate(l.cmp.op), l.cmp.rhs});
  }
  CCPI_CHECK(false);
  return l;
}

struct Unification {
  // The defining rule's head variables mapped to the caller's terms.
  Substitution subst;
  // Residual equalities among caller terms (from repeated head variables or
  // head constants meeting caller variables).
  std::vector<Comparison> equalities;
  // True when two distinct constants met: the rule can never match.
  bool statically_false = false;
};

/// Matches a (renamed-apart) rule head against the caller's atom arguments.
Unification UnifyHead(const Atom& rule_head, const Atom& call) {
  CCPI_CHECK(rule_head.args.size() == call.args.size());
  Unification u;
  for (size_t i = 0; i < rule_head.args.size(); ++i) {
    const Term& h = rule_head.args[i];
    const Term& a = call.args[i];
    if (h.is_var()) {
      auto it = u.subst.find(h.var());
      if (it == u.subst.end()) {
        u.subst[h.var()] = a;
      } else if (!(it->second == a)) {
        u.equalities.push_back(Comparison{it->second, CmpOp::kEq, a});
      }
    } else if (a.is_const()) {
      if (!(a.constant() == h.constant())) u.statically_false = true;
    } else {
      u.equalities.push_back(Comparison{a, CmpOp::kEq, h});
    }
  }
  return u;
}

/// Bodies one UnfoldToUCQ call may build, over all its goal rules. An
/// unfolding can grow exponentially with the nesting depth (two rules per
/// level double the disjuncts), so past this the program is reported
/// kUnsupported, which every caller already treats as "no UCQ form". The
/// largest unfolding of the test suite takes 10 steps (6 disjuncts), of
/// the perfbench workloads 3; a chain of 10,000 derived predicates takes
/// 10,001 and still unfolds.
constexpr size_t kMaxUnfoldSteps = 1 << 14;

class Unfolder {
 public:
  explicit Unfolder(const Program& program) {
    idb_ = program.IdbPredicates();
    for (const Rule& r : program.rules) rules_by_pred_[r.head.pred].push_back(r);
  }

  /// Depth-first expansion of `body` into IDB-free bodies, appended to
  /// `out` in the order a recursive unfolding would produce them (and with
  /// the same fresh variable names). The worklist is explicit, so a deep
  /// chain of definitions cannot exhaust the call stack.
  Status Expand(std::vector<Literal> body,
                std::vector<std::vector<Literal>>* out) {
    // A work item is either a body still to expand or, with `target` set,
    // the next defining rule (`next_def`) of `target`'s positive
    // occurrence in `body`, which then holds the rest of that body.
    struct Item {
      std::vector<Literal> body = {};
      std::optional<Literal> target = {};
      size_t next_def = 0;
    };
    std::vector<Item> stack;
    stack.push_back({std::move(body)});
    while (!stack.empty()) {
      Item item = std::move(stack.back());
      stack.pop_back();
      if (item.target.has_value()) {
        // One defining rule at a time, renamed only when reached, so the
        // fresh-name counter advances in recursive order.
        const std::vector<Rule>& defs = rules_by_pred_[item.target->atom.pred];
        if (item.next_def == defs.size()) continue;
        Rule renamed = RenameApart(defs[item.next_def++], FreshSuffix());
        Unification u = UnifyHead(renamed.head, item.target->atom);
        if (u.statically_false) {
          stack.push_back(std::move(item));
          continue;
        }
        std::vector<Literal> next;
        for (const Comparison& eq : u.equalities) next.push_back(Literal::Cmp(eq));
        for (const Literal& l : renamed.body) next.push_back(Apply(u.subst, l));
        next.insert(next.end(), item.body.begin(), item.body.end());
        // The rest of this rule's alternatives wait under its expansion.
        stack.push_back(std::move(item));
        CCPI_RETURN_IF_ERROR(Spend(1));
        stack.push_back({std::move(next)});
        continue;
      }
      // Locate the first literal mentioning an IDB predicate.
      std::vector<Literal>& b = item.body;
      auto idb = std::find_if(b.begin(), b.end(), [&](const Literal& l) {
        return !l.is_comparison() && idb_.count(l.atom.pred) > 0;
      });
      if (idb == b.end()) {
        out->push_back(std::move(b));
        continue;
      }
      Literal target = *idb;
      b.erase(idb);
      if (target.is_positive()) {
        stack.push_back({std::move(b), std::move(target)});
        continue;
      }
      CCPI_ASSIGN_OR_RETURN(std::vector<std::vector<Literal>> combos,
                            NegatedChoices(target));
      // Pushed in reverse so the first choice is expanded first.
      CCPI_RETURN_IF_ERROR(Spend(combos.size()));
      for (auto it = combos.rbegin(); it != combos.rend(); ++it) {
        it->insert(it->end(), b.begin(), b.end());
        stack.push_back({std::move(*it)});
      }
    }
    return Status::OK();
  }

 private:
  /// Charges `n` expansion steps against kMaxUnfoldSteps.
  Status Spend(size_t n) {
    steps_ += n;
    if (steps_ <= kMaxUnfoldSteps) return Status::OK();
    return Status::Unsupported("unfolding exceeds " +
                               std::to_string(kMaxUnfoldSteps) +
                               " expansion steps");
  }

  /// A negated IDB subgoal: not (B1 or ... or Bk) expands to the cross
  /// product of one negated literal chosen from each Bi. Empty when some
  /// Bi matches unconditionally (the branch is dead).
  Result<std::vector<std::vector<Literal>>> NegatedChoices(
      const Literal& target) {
    std::vector<std::vector<Literal>> candidate_sets;
    for (const Rule& def : rules_by_pred_[target.atom.pred]) {
      // Existential variables make not-exists inexpressible in UCQ.
      std::set<std::string> head_vars;
      for (const Term& t : def.head.args) {
        if (t.is_var()) head_vars.insert(t.var());
      }
      for (const std::string& v : def.Variables()) {
        if (head_vars.count(v) == 0) {
          return Status::Unsupported(
              "cannot unfold negated subgoal not " + target.atom.ToString() +
              ": defining rule \"" + def.ToString() +
              "\" has existential variable " + v);
        }
      }
      Unification u = UnifyHead(def.head, target.atom);
      if (u.statically_false) continue;  // this rule never matches: not() true
      std::vector<Literal> candidates;
      for (const Comparison& eq : u.equalities) {
        candidates.push_back(NegateLiteral(Literal::Cmp(eq)));
      }
      for (const Literal& l : def.body) {
        candidates.push_back(NegateLiteral(Apply(u.subst, l)));
      }
      if (candidates.empty()) {
        // The rule matches unconditionally, so not p(...) is false and this
        // whole expansion branch is dead.
        return std::vector<std::vector<Literal>>{};
      }
      candidate_sets.push_back(std::move(candidates));
    }
    // Cross product of candidate choices. Every partial combination built
    // is a step, so the product stops growing at the cap.
    std::vector<std::vector<Literal>> combos = {{}};
    for (const auto& candidates : candidate_sets) {
      std::vector<std::vector<Literal>> next;
      for (const auto& combo : combos) {
        CCPI_RETURN_IF_ERROR(Spend(candidates.size()));
        for (const Literal& c : candidates) {
          std::vector<Literal> extended = combo;
          extended.push_back(c);
          next.push_back(std::move(extended));
        }
      }
      combos = std::move(next);
    }
    return combos;
  }

  std::string FreshSuffix() { return "_u" + std::to_string(counter_++); }

  std::set<std::string> idb_;
  std::map<std::string, std::vector<Rule>> rules_by_pred_;
  int counter_ = 0;
  size_t steps_ = 0;
};

}  // namespace

Result<UCQ> UnfoldToUCQ(const Program& program) {
  if (program.IsRecursive()) {
    return Status::InvalidArgument("cannot unfold a recursive program");
  }
  Unfolder unfolder(program);
  UCQ out;
  for (const Rule& r : program.rules) {
    if (r.head.pred != program.goal) continue;
    std::vector<std::vector<Literal>> bodies;
    CCPI_RETURN_IF_ERROR(unfolder.Expand(r.body, &bodies));
    for (const auto& body : bodies) {
      out.push_back(BodyToCQ(r.head, body));
    }
  }
  return out;
}

}  // namespace ccpi
