#include "core/icq.h"

#include <algorithm>
#include <map>
#include <set>

#include "datalog/safety.h"
#include "datalog/simplify.h"
#include "util/check.h"

namespace ccpi {

namespace {

struct Partitioned {
  Atom local;
  std::vector<Atom> remotes;
};

Result<Partitioned> PartitionSubgoals(const CQ& q,
                                      const std::string& local_pred) {
  if (!q.head.args.empty() || q.head.pred != kPanic) {
    return Status::InvalidArgument("constraint head must be 0-ary panic");
  }
  if (q.HasNegation()) {
    return Status::InvalidArgument("CQCs have no negated subgoals");
  }
  Partitioned out;
  bool have_local = false;
  for (const Atom& a : q.positives) {
    if (a.pred == local_pred) {
      if (have_local) {
        return Status::InvalidArgument("several local subgoals");
      }
      out.local = a;
      have_local = true;
    } else {
      out.remotes.push_back(a);
    }
  }
  if (!have_local) {
    return Status::InvalidArgument("no subgoal with local predicate " +
                                   local_pred);
  }
  return out;
}

std::set<std::string> LocalVars(const Atom& local) {
  std::set<std::string> vars;
  for (const Term& t : local.args) {
    if (t.is_var()) vars.insert(t.var());
  }
  return vars;
}

std::set<std::string> RemoteVars(const Partitioned& p) {
  std::set<std::string> local_vars = LocalVars(p.local);
  std::set<std::string> remote;
  for (const Atom& a : p.remotes) {
    for (const Term& t : a.args) {
      if (t.is_var() && local_vars.count(t.var()) == 0) {
        remote.insert(t.var());
      }
    }
  }
  return remote;
}

bool InvolvesVar(const Comparison& c, const std::string& var) {
  return (c.lhs.is_var() && c.lhs.var() == var) ||
         (c.rhs.is_var() && c.rhs.var() == var);
}

/// Compiles the branch's local atom, and every term it reads through that
/// atom, to column slots. After simplification each such term is a
/// constant or a local variable: the only non-local variable is Z.
void CompileSlots(IcqBranch* branch) {
  LocalPattern& p = branch->slots;
  std::map<std::string, size_t> first;  // variable -> first column
  for (size_t col = 0; col < branch->local.args.size(); ++col) {
    const Term& arg = branch->local.args[col];
    if (arg.is_const()) {
      p.constants.emplace_back(col, arg.constant());
      continue;
    }
    auto [it, inserted] = first.emplace(arg.var(), col);
    if (!inserted) p.repeats.emplace_back(it->second, col);
  }
  auto slot = [&first](const Term& t) {
    LocalSlot s;
    if (t.is_const()) {
      s.constant = t.constant();
    } else {
      s.col = first.at(t.var());
    }
    return s;
  };
  for (const Comparison& f : branch->local_filters) {
    p.filters.push_back(LocalPattern::Filter{slot(f.lhs), f.op, slot(f.rhs)});
  }
  for (const BoundSpec& b : branch->lowers) p.lowers.push_back(slot(b.term));
  for (const BoundSpec& b : branch->uppers) p.uppers.push_back(slot(b.term));
  for (const std::string& v : branch->key_vars) {
    p.key_cols.push_back(first.at(v));
  }
}

}  // namespace

Result<bool> IsIndependentlyConstrained(const Rule& rule,
                                        const std::string& local_pred) {
  CCPI_RETURN_IF_ERROR(CheckRuleSafety(rule));
  CQ q = RuleToCQ(rule);
  CCPI_ASSIGN_OR_RETURN(Partitioned p, PartitionSubgoals(q, local_pred));
  std::set<std::string> remote = RemoteVars(p);
  for (const Comparison& c : q.comparisons) {
    if (c.op == CmpOp::kEq) continue;
    int remote_sides = 0;
    if (c.lhs.is_var() && remote.count(c.lhs.var()) > 0) ++remote_sides;
    if (c.rhs.is_var() && remote.count(c.rhs.var()) > 0) ++remote_sides;
    if (remote_sides > 1) return false;
  }
  return true;
}

Result<std::vector<IcqBranch>> AnalyzeForbiddenIntervals(
    const Rule& rule, const std::string& local_pred) {
  CCPI_RETURN_IF_ERROR(CheckRuleSafety(rule));
  // Eliminate equalities by substitution, evaluate ground comparisons.
  std::optional<CQ> simplified = SimplifyCQ(RuleToCQ(rule));
  if (!simplified.has_value()) return std::vector<IcqBranch>{};  // dead body
  CCPI_ASSIGN_OR_RETURN(Partitioned p,
                        PartitionSubgoals(*simplified, local_pred));

  std::set<std::string> remote = RemoteVars(p);
  if (remote.size() > 1) {
    return Status::Unsupported(
        "ICQ has " + std::to_string(remote.size()) +
        " remote variables; the Fig 6.1 interval construction targets at "
        "most one (use the general Theorem 5.2 reduction test)");
  }
  std::optional<std::string> z;
  if (!remote.empty()) z = *remote.begin();

  // Split every <> that involves the remote variable into < and >.
  std::vector<arith::Conjunction> splits = {{}};
  for (const Comparison& c : simplified->comparisons) {
    if (c.op == CmpOp::kNe && z.has_value() && InvolvesVar(c, *z)) {
      std::vector<arith::Conjunction> next;
      for (const arith::Conjunction& base : splits) {
        arith::Conjunction lt = base;
        lt.push_back(Comparison{c.lhs, CmpOp::kLt, c.rhs});
        next.push_back(std::move(lt));
        arith::Conjunction gt = base;
        gt.push_back(Comparison{c.lhs, CmpOp::kGt, c.rhs});
        next.push_back(std::move(gt));
      }
      splits = std::move(next);
    } else {
      for (arith::Conjunction& base : splits) base.push_back(c);
    }
  }

  // Key variables: local variables appearing in remote subgoals, in first
  // occurrence order (identical for every branch).
  std::set<std::string> local_vars = LocalVars(p.local);
  std::vector<std::string> key_vars;
  for (const Atom& a : p.remotes) {
    for (const Term& t : a.args) {
      if (t.is_var() && local_vars.count(t.var()) > 0 &&
          std::find(key_vars.begin(), key_vars.end(), t.var()) ==
              key_vars.end()) {
        key_vars.push_back(t.var());
      }
    }
  }

  std::vector<IcqBranch> branches;
  for (const arith::Conjunction& comps : splits) {
    IcqBranch branch;
    branch.local = p.local;
    branch.remotes = p.remotes;
    branch.remote_var = z;
    branch.key_vars = key_vars;
    bool dead = false;
    for (const Comparison& c : comps) {
      bool lhs_z = z.has_value() && c.lhs.is_var() && c.lhs.var() == *z;
      bool rhs_z = z.has_value() && c.rhs.is_var() && c.rhs.var() == *z;
      if (lhs_z && rhs_z) {
        // Z op Z after simplification: only orders remain.
        if (c.op == CmpOp::kLt || c.op == CmpOp::kGt) {
          dead = true;
          break;
        }
        continue;  // Z <= Z etc. is vacuous
      }
      if (!lhs_z && !rhs_z) {
        branch.local_filters.push_back(c);
        continue;
      }
      // Exactly one side is Z: record the bound on Z.
      const Term& other = lhs_z ? c.rhs : c.lhs;
      CmpOp op = lhs_z ? c.op : Flip(c.op);  // view as  Z op other
      switch (op) {
        case CmpOp::kLt:
          branch.uppers.push_back(BoundSpec{other, false});
          break;
        case CmpOp::kLe:
          branch.uppers.push_back(BoundSpec{other, true});
          break;
        case CmpOp::kGt:
          branch.lowers.push_back(BoundSpec{other, false});
          break;
        case CmpOp::kGe:
          branch.lowers.push_back(BoundSpec{other, true});
          break;
        case CmpOp::kEq:
        case CmpOp::kNe:
          return Status::Internal("unexpected =/<> after normalization");
      }
    }
    if (dead) continue;
    CompileSlots(&branch);
    branches.push_back(std::move(branch));
  }
  return branches;
}

namespace {

bool MatchesPattern(const IcqBranch& branch, const Tuple& s) {
  if (s.size() != branch.local.args.size()) return false;
  for (const auto& [col, value] : branch.slots.constants) {
    if (!(s[col] == value)) return false;
  }
  for (const auto& [a, b] : branch.slots.repeats) {
    if (!(s[a] == s[b])) return false;
  }
  return true;
}

}  // namespace

std::optional<Interval> ForbiddenInterval(const IcqBranch& branch,
                                          const Tuple& s) {
  if (!MatchesPattern(branch, s)) return std::nullopt;
  const LocalPattern& p = branch.slots;
  for (const LocalPattern::Filter& f : p.filters) {
    if (!EvalCmp(f.lhs.Of(s), f.op, f.rhs.Of(s))) return std::nullopt;
  }
  Interval interval = Interval::All();
  for (size_t i = 0; i < p.lowers.size(); ++i) {
    const Value& v = p.lowers[i].Of(s);
    Bound candidate =
        branch.lowers[i].closed ? Bound::Closed(v) : Bound::Open(v);
    // The forbidden region's lower end is the MAX of the lower bounds; on
    // ties the open (strict) bound is the more restrictive one and wins.
    if (LowerBoundLess(interval.lo, candidate)) interval.lo = candidate;
  }
  for (size_t i = 0; i < p.uppers.size(); ++i) {
    const Value& v = p.uppers[i].Of(s);
    Bound candidate =
        branch.uppers[i].closed ? Bound::Closed(v) : Bound::Open(v);
    if (UpperBoundLess(candidate, interval.hi)) interval.hi = candidate;
  }
  return interval;
}

Tuple KeyOf(const IcqBranch& branch, const Tuple& s) {
  CCPI_CHECK(MatchesPattern(branch, s));
  Tuple key;
  key.reserve(branch.slots.key_cols.size());
  for (size_t col : branch.slots.key_cols) key.push_back(s[col]);
  return key;
}

bool SameKey(const IcqBranch& branch, const Tuple& a, const Tuple& b) {
  for (size_t col : branch.slots.key_cols) {
    if (!(a[col] == b[col])) return false;
  }
  return true;
}

}  // namespace ccpi
