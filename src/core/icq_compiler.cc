#include "core/icq_compiler.h"

#include <algorithm>

#include "eval/engine.h"
#include "util/check.h"

namespace ccpi {

namespace {

// Shared interval-predicate names ("fi" = forbidden interval). The paper's
// eight interval predicates plus `all`.
std::string IntPred(bool lo_closed, bool hi_closed) {
  return std::string("fi_int_") + (lo_closed ? "c" : "o") +
         (hi_closed ? "c" : "o");
}
std::string RayGePred(bool closed) {
  return std::string("fi_ray_ge") + (closed ? "c" : "o");
}
std::string RayLePred(bool closed) {
  return std::string("fi_ray_le") + (closed ? "c" : "o");
}
constexpr const char* kAllPred = "fi_all";

/// Basis rules of one branch: one rule per choice of dominating lower and
/// upper bound ("we may need a different rule for every such order").
void EmitBasisRules(const IcqBranch& branch, Program* program) {
  std::vector<Term> key;
  key.reserve(branch.key_vars.size());
  for (const std::string& v : branch.key_vars) key.push_back(Term::Var(v));

  std::vector<int> lower_choices;
  if (branch.lowers.empty()) {
    lower_choices.push_back(-1);
  } else {
    for (size_t i = 0; i < branch.lowers.size(); ++i) {
      lower_choices.push_back(static_cast<int>(i));
    }
  }
  std::vector<int> upper_choices;
  if (branch.uppers.empty()) {
    upper_choices.push_back(-1);
  } else {
    for (size_t j = 0; j < branch.uppers.size(); ++j) {
      upper_choices.push_back(static_cast<int>(j));
    }
  }

  for (int i : lower_choices) {
    for (int j : upper_choices) {
      Rule rule;
      rule.body.push_back(Literal::Positive(branch.local));
      for (const Comparison& f : branch.local_filters) {
        rule.body.push_back(Literal::Cmp(f));
      }
      // Dominance of the chosen lower bound over the others: the chosen
      // constraint must imply each competitor.
      if (i >= 0) {
        const BoundSpec& chosen = branch.lowers[static_cast<size_t>(i)];
        for (size_t m = 0; m < branch.lowers.size(); ++m) {
          if (static_cast<int>(m) == i) continue;
          const BoundSpec& other = branch.lowers[m];
          CmpOp op = (chosen.closed && !other.closed) ? CmpOp::kLt : CmpOp::kLe;
          rule.body.push_back(
              Literal::Cmp(Comparison{other.term, op, chosen.term}));
        }
      }
      if (j >= 0) {
        const BoundSpec& chosen = branch.uppers[static_cast<size_t>(j)];
        for (size_t m = 0; m < branch.uppers.size(); ++m) {
          if (static_cast<int>(m) == j) continue;
          const BoundSpec& other = branch.uppers[m];
          CmpOp op = (chosen.closed && !other.closed) ? CmpOp::kLt : CmpOp::kLe;
          rule.body.push_back(
              Literal::Cmp(Comparison{chosen.term, op, other.term}));
        }
      }
      // Nonempty forbidden interval.
      if (i >= 0 && j >= 0) {
        const BoundSpec& lo = branch.lowers[static_cast<size_t>(i)];
        const BoundSpec& hi = branch.uppers[static_cast<size_t>(j)];
        CmpOp op = (lo.closed && hi.closed) ? CmpOp::kLe : CmpOp::kLt;
        rule.body.push_back(Literal::Cmp(Comparison{lo.term, op, hi.term}));
      }
      // Head.
      std::vector<Term> args = key;
      if (i >= 0 && j >= 0) {
        args.push_back(branch.lowers[static_cast<size_t>(i)].term);
        args.push_back(branch.uppers[static_cast<size_t>(j)].term);
        rule.head = Atom{IntPred(branch.lowers[static_cast<size_t>(i)].closed,
                                 branch.uppers[static_cast<size_t>(j)].closed),
                         std::move(args)};
      } else if (i >= 0) {
        args.push_back(branch.lowers[static_cast<size_t>(i)].term);
        rule.head = Atom{
            RayGePred(branch.lowers[static_cast<size_t>(i)].closed),
            std::move(args)};
      } else if (j >= 0) {
        args.push_back(branch.uppers[static_cast<size_t>(j)].term);
        rule.head = Atom{
            RayLePred(branch.uppers[static_cast<size_t>(j)].closed),
            std::move(args)};
      } else {
        rule.head = Atom{kAllPred, std::move(args)};
      }
      program->rules.push_back(std::move(rule));
    }
  }
}

/// The recursive merge rules — Fig 6.1's rule (2) across every combination
/// of open/closed ends and ray kinds, keyed by the join variables.
void EmitMergeRules(size_t key_arity, Program* program) {
  std::vector<Term> key;
  key.reserve(key_arity);
  for (size_t i = 0; i < key_arity; ++i) {
    key.push_back(Term::Var("K" + std::to_string(i + 1)));
  }
  Term lo1 = Term::Var("Lo1");
  Term hi1 = Term::Var("Hi1");
  Term lo2 = Term::Var("Lo2");
  Term hi2 = Term::Var("Hi2");
  auto with = [&key](std::initializer_list<Term> extra) {
    std::vector<Term> args = key;
    for (const Term& t : extra) args.push_back(t);
    return args;
  };
  const bool kinds[] = {true, false};  // closed, open

  // Two intervals connect when the second starts no later than the first
  // ends; at equal values one of the touching ends must be closed.
  auto touch_op = [](bool hi1_closed, bool lo2_closed) {
    return (hi1_closed || lo2_closed) ? CmpOp::kLe : CmpOp::kLt;
  };

  for (bool o1 : kinds) {
    for (bool o2 : kinds) {
      for (bool o3 : kinds) {
        for (bool o4 : kinds) {
          // int + int -> int spanning both.
          Rule r;
          r.head = Atom{IntPred(o1, o4), with({lo1, hi2})};
          r.body.push_back(
              Literal::Positive(Atom{IntPred(o1, o2), with({lo1, hi1})}));
          r.body.push_back(
              Literal::Positive(Atom{IntPred(o3, o4), with({lo2, hi2})}));
          r.body.push_back(
              Literal::Cmp(Comparison{lo2, touch_op(o2, o3), hi1}));
          r.body.push_back(Literal::Cmp(Comparison{hi1, CmpOp::kLe, hi2}));
          program->rules.push_back(std::move(r));
        }
        // int + ray_ge -> ray_ge.
        Rule ge;
        ge.head = Atom{RayGePred(o1), with({lo1})};
        ge.body.push_back(
            Literal::Positive(Atom{IntPred(o1, o2), with({lo1, hi1})}));
        ge.body.push_back(
            Literal::Positive(Atom{RayGePred(o3), with({lo2})}));
        ge.body.push_back(
            Literal::Cmp(Comparison{lo2, touch_op(o2, o3), hi1}));
        program->rules.push_back(std::move(ge));
      }
    }
  }
  for (bool o2 : kinds) {
    for (bool o3 : kinds) {
      for (bool o4 : kinds) {
        // ray_le + int -> ray_le extending right.
        Rule le;
        le.head = Atom{RayLePred(o4), with({hi2})};
        le.body.push_back(Literal::Positive(Atom{RayLePred(o2), with({hi1})}));
        le.body.push_back(
            Literal::Positive(Atom{IntPred(o3, o4), with({lo2, hi2})}));
        le.body.push_back(
            Literal::Cmp(Comparison{lo2, touch_op(o2, o3), hi1}));
        le.body.push_back(Literal::Cmp(Comparison{hi1, CmpOp::kLe, hi2}));
        program->rules.push_back(std::move(le));
      }
      // ray_le + ray_ge -> all.
      Rule all;
      all.head = Atom{kAllPred, with({})};
      all.body.push_back(Literal::Positive(Atom{RayLePred(o2), with({hi1})}));
      all.body.push_back(Literal::Positive(Atom{RayGePred(o3), with({lo2})}));
      all.body.push_back(
          Literal::Cmp(Comparison{lo2, touch_op(o2, o3), hi1}));
      program->rules.push_back(std::move(all));
    }
  }
}

std::string OkPred(size_t branch_index) {
  return "ok_" + std::to_string(branch_index);
}

/// Fig 6.1's rule (3), generalized: the coverage rules for one branch's
/// target interval I(t). Appends rules with head ok_<b>.
void EmitOkRules(size_t branch_index, const Tuple& key,
                 const Interval& target, Program* program) {
  std::vector<Term> key_terms;
  key_terms.reserve(key.size());
  for (const Value& v : key) key_terms.push_back(Term::Const(v));
  Atom ok{OkPred(branch_index), {}};
  auto with = [&key_terms](std::initializer_list<Term> extra) {
    std::vector<Term> args = key_terms;
    for (const Term& t : extra) args.push_back(t);
    return args;
  };
  Term x = Term::Var("X");
  Term y = Term::Var("Y");
  const bool kinds[] = {true, false};

  bool lo_finite = target.lo.finite();
  bool hi_finite = target.hi.finite();
  Term lo_t = lo_finite ? Term::Const(target.lo.value) : Term();
  Term hi_t = hi_finite ? Term::Const(target.hi.value) : Term();

  // The covering lower end X must admit the target's lower end.
  auto lower_admits = [&](bool cover_closed) {
    return (cover_closed || !target.lo.closed) ? CmpOp::kLe : CmpOp::kLt;
  };
  auto upper_admits = [&](bool cover_closed) {
    return (cover_closed || !target.hi.closed) ? CmpOp::kLe : CmpOp::kLt;
  };

  if (lo_finite && hi_finite) {
    for (bool o1 : kinds) {
      for (bool o2 : kinds) {
        Rule r;
        r.head = ok;
        r.body.push_back(
            Literal::Positive(Atom{IntPred(o1, o2), with({x, y})}));
        r.body.push_back(Literal::Cmp(Comparison{x, lower_admits(o1), lo_t}));
        r.body.push_back(Literal::Cmp(Comparison{hi_t, upper_admits(o2), y}));
        program->rules.push_back(std::move(r));
      }
    }
  }
  if (hi_finite) {
    for (bool o : kinds) {
      Rule r;
      r.head = ok;
      r.body.push_back(Literal::Positive(Atom{RayLePred(o), with({y})}));
      r.body.push_back(Literal::Cmp(Comparison{hi_t, upper_admits(o), y}));
      program->rules.push_back(std::move(r));
    }
  }
  if (lo_finite) {
    for (bool o : kinds) {
      Rule r;
      r.head = ok;
      r.body.push_back(Literal::Positive(Atom{RayGePred(o), with({x})}));
      r.body.push_back(Literal::Cmp(Comparison{x, lower_admits(o), lo_t}));
      program->rules.push_back(std::move(r));
    }
  }
  {
    Rule r;
    r.head = ok;
    r.body.push_back(Literal::Positive(Atom{kAllPred, with({})}));
    program->rules.push_back(std::move(r));
  }
}

}  // namespace

Result<IcqCompilation> AnalyzeIcq(const Rule& rule,
                                  const std::string& local_pred) {
  IcqCompilation comp;
  comp.local_pred = local_pred;
  CCPI_ASSIGN_OR_RETURN(comp.branches,
                        AnalyzeForbiddenIntervals(rule, local_pred));
  if (!comp.branches.empty()) {
    comp.local_arity = comp.branches[0].local.args.size();
    for (const IcqBranch& b : comp.branches) {
      CCPI_CHECK(b.key_vars == comp.branches[0].key_vars);
    }
    if (!comp.branches[0].key_vars.empty()) {
      comp.key_col = comp.branches[0].slots.key_cols[0];
    }
  }
  return comp;
}

Result<IcqCompilation> CompileIcq(const Rule& rule,
                                  const std::string& local_pred) {
  CCPI_ASSIGN_OR_RETURN(IcqCompilation comp, AnalyzeIcq(rule, local_pred));
  if (!comp.branches.empty()) {
    for (const IcqBranch& b : comp.branches) {
      EmitBasisRules(b, &comp.interval_program);
    }
    EmitMergeRules(comp.branches[0].key_vars.size(), &comp.interval_program);
  }
  return comp;
}

Result<Outcome> IcqLocalTestOnInsert(const IcqCompilation& comp,
                                     const Database& db, const Tuple& t) {
  if (comp.branches.empty()) return Outcome::kHolds;  // dead constraint body
  if (t.size() != comp.local_arity) {
    return Status::InvalidArgument("inserted tuple arity mismatch");
  }

  // Purely local constraint: the outcome is decided outright.
  if (comp.branches[0].remotes.empty()) {
    for (const IcqBranch& b : comp.branches) {
      std::optional<Interval> target = ForbiddenInterval(b, t);
      if (target.has_value() && !target->Empty()) return Outcome::kViolated;
    }
    return Outcome::kHolds;
  }

  Program program = comp.interval_program;
  std::vector<Literal> ok_conjuncts;
  for (size_t b = 0; b < comp.branches.size(); ++b) {
    std::optional<Interval> target = ForbiddenInterval(comp.branches[b], t);
    if (!target.has_value() || target->Empty()) {
      // This branch imposes no requirement on the local data.
      Rule fact;
      fact.head = Atom{OkPred(b), {}};
      program.rules.push_back(std::move(fact));
    } else {
      EmitOkRules(b, KeyOf(comp.branches[b], t), *target, &program);
    }
    ok_conjuncts.push_back(Literal::Positive(Atom{OkPred(b), {}}));
  }
  Rule ok;
  ok.head = Atom{"ok", {}};
  ok.body = std::move(ok_conjuncts);
  program.rules.push_back(std::move(ok));
  program.goal = "ok";

  CCPI_ASSIGN_OR_RETURN(bool derived, IsViolated(program, db));
  return derived ? Outcome::kHolds : Outcome::kUnknown;
}

Result<Outcome> IcqDirectTestOnInsert(const IcqCompilation& comp,
                                      const Relation& local_relation,
                                      const Tuple& t, size_t* rows_read) {
  return IcqDirectTestOnInsert(comp, local_relation, VerifiedOverlay(), t,
                               rows_read);
}

Result<Outcome> IcqDirectTestOnInsert(const IcqCompilation& comp,
                                      const Relation& local_relation,
                                      const VerifiedOverlay& pending,
                                      const Tuple& t, size_t* rows_read) {
  size_t unused = 0;
  size_t& read = rows_read != nullptr ? *rows_read : unused;
  read = 0;
  if (comp.branches.empty()) return Outcome::kHolds;
  if (t.size() != comp.local_arity) {
    return Status::InvalidArgument("inserted tuple arity mismatch");
  }
  std::vector<std::optional<Interval>> targets;
  targets.reserve(comp.branches.size());
  bool any_target = false;
  for (const IcqBranch& b : comp.branches) {
    std::optional<Interval> target = ForbiddenInterval(b, t);
    if (target.has_value() && target->Empty()) target.reset();
    any_target = any_target || target.has_value();
    targets.push_back(std::move(target));
  }
  if (!any_target) return Outcome::kHolds;
  if (comp.branches[0].remotes.empty()) return Outcome::kViolated;
  // No tuple of another arity matches the local atom.
  if (local_relation.arity() != t.size()) return Outcome::kUnknown;

  // The forbidden intervals, over every branch, of the local tuples in t's
  // key group that overlap or touch some target. Every branch shares the
  // local atom and key, so t matched the pattern and one key check serves
  // all branches. An interval separated from every target by a gap cannot
  // help cover one: a covered target lies inside the union of the
  // intervals that meet it, so the others are dropped unmerged.
  const IcqBranch& shape = comp.branches[0];
  std::vector<Interval> touching;
  auto add = [&](const Tuple& s) {
    if (!SameKey(shape, s, t)) return;
    for (const IcqBranch& b : comp.branches) {
      std::optional<Interval> interval = ForbiddenInterval(b, s);
      if (!interval.has_value()) continue;
      auto meets = [&interval](const std::optional<Interval>& target) {
        return target.has_value() && interval->Meets(*target);
      };
      // Most of a group meets no target; test that first, emptiness after.
      if (!std::any_of(targets.begin(), targets.end(), meets) ||
          interval->Empty()) {
        continue;
      }
      // Rows often arrive as a chain: merging into the last kept interval
      // when they meet keeps the vector, and FromIntervals' sort, short.
      if (touching.empty() || !touching.back().Absorb(*interval)) {
        touching.push_back(std::move(*interval));
      }
    }
  };
  const std::vector<Tuple>& rows = local_relation.rows();
  auto visit = [&](const Tuple& s) {
    ++read;
    if (pending.empty() || pending.count(s) == 0) add(s);
  };
  if (comp.key_col.has_value()) {
    for (size_t i : local_relation.Probe(*comp.key_col, t[*comp.key_col])) {
      visit(rows[i]);
    }
  } else {
    for (const Tuple& s : rows) visit(s);
  }
  for (const auto& [s, verified] : pending) {
    if (!verified || !SameKey(shape, s, t)) continue;
    ++read;
    add(s);
  }

  const IntervalSet covered = IntervalSet::FromIntervals(std::move(touching));
  for (const std::optional<Interval>& target : targets) {
    if (target.has_value() && !covered.Covers(*target)) {
      return Outcome::kUnknown;
    }
  }
  return Outcome::kHolds;
}

}  // namespace ccpi
