#include "ra/ra_eval.h"

#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace ccpi {

namespace {

Value OperandValue(const RaOperand& op, const Tuple& t) {
  return op.is_col ? t[op.col] : op.constant;
}

bool Holds(const std::vector<RaCondition>& conds, const Tuple& t) {
  for (const RaCondition& c : conds) {
    if (!EvalCmp(OperandValue(c.lhs, t), c.op, OperandValue(c.rhs, t))) {
      return false;
    }
  }
  return true;
}

/// Finds a condition of `conds` usable as a hash-join key for
/// sigma(L x R): a column-to-column equality with one side in L (column
/// < split) and one in R. Returns the index into `conds`, or npos.
size_t FindJoinCondition(const std::vector<RaCondition>& conds,
                         size_t split) {
  for (size_t i = 0; i < conds.size(); ++i) {
    const RaCondition& c = conds[i];
    if (c.op != CmpOp::kEq || !c.lhs.is_col || !c.rhs.is_col) continue;
    bool lhs_left = c.lhs.col < split;
    bool rhs_left = c.rhs.col < split;
    if (lhs_left != rhs_left) return i;
  }
  return static_cast<size_t>(-1);
}

/// Finds a condition of `conds` that fixes one column to a constant
/// (#c = k or k = #c), usable as an index probe. Returns the index into
/// `conds`, or npos.
size_t FindConstantEquality(const std::vector<RaCondition>& conds) {
  for (size_t i = 0; i < conds.size(); ++i) {
    const RaCondition& c = conds[i];
    if (c.op == CmpOp::kEq && c.lhs.is_col != c.rhs.is_col) return i;
  }
  return static_cast<size_t>(-1);
}

/// An evaluation result that is either owned by the evaluator or borrowed
/// from the database. kScan borrows — returning the stored relation by
/// value would be a full O(|R|) row+hashset copy per scan node that also
/// drops the lazy indexes. Read-only parents (select, project, product,
/// difference, nonemptiness) evaluate against the borrow in place; the
/// single copy, when a caller genuinely needs an owned Relation of a bare
/// scan, happens once at the public EvalRa boundary via IntoRelation().
class RelView {
 public:
  RelView(RelView&&) noexcept = default;
  RelView& operator=(RelView&&) noexcept = default;

  static RelView Borrow(const Relation* rel) {
    RelView v;
    v.borrowed_ = rel;
    return v;
  }
  static RelView Own(Relation rel) {
    RelView v;
    v.owned_ = std::move(rel);
    return v;
  }

  const Relation& get() const {
    return borrowed_ != nullptr ? *borrowed_ : owned_;
  }

  Relation IntoRelation() && {
    if (borrowed_ != nullptr) return *borrowed_;
    return std::move(owned_);
  }

 private:
  RelView() = default;

  const Relation* borrowed_ = nullptr;
  Relation owned_{0};
};

Result<RelView> EvalRaNode(const RaExpr& expr, const Database& db,
                           AccessObserver* observer, obs::Counter* nodes,
                           const BudgetScope* budget);

/// Evaluates sigma_conds(L x R) as a hash equi-join on `key` (an eq
/// condition crossing the L/R boundary): build a hash table over R's key
/// column, then probe it once per L row. Emits exactly the rows, in
/// exactly the order, of the nested-loop product-then-filter it replaces
/// (left-major; matching right rows in insertion order; every condition
/// re-checked on the combined row), so only the cost changes:
/// O(|L| + |R| + matches) instead of O(|L| * |R|).
Result<RelView> EvalHashJoin(const RaExpr& select, const RaCondition& key,
                             const Database& db, AccessObserver* observer,
                             obs::Counter* nodes, const BudgetScope* budget) {
  const RaExpr& product = *select.left();
  // The product node this join replaces: same node count AND the same
  // budget checkpoint as the nested-loop path, so a deadline-budgeted run
  // sheds identically whichever plan shape the evaluator picks.
  if (nodes != nullptr) nodes->Add(1);
  if (budget != nullptr) CCPI_RETURN_IF_ERROR(budget->Check());
  CCPI_ASSIGN_OR_RETURN(
      RelView l, EvalRaNode(*product.left(), db, observer, nodes, budget));
  CCPI_ASSIGN_OR_RETURN(
      RelView r, EvalRaNode(*product.right(), db, observer, nodes, budget));
  size_t split = product.left()->arity();
  size_t left_col = key.lhs.col < split ? key.lhs.col : key.rhs.col;
  size_t right_col = (key.lhs.col < split ? key.rhs.col : key.lhs.col) - split;

  std::unordered_map<Value, std::vector<size_t>, ValueHash> table;
  table.reserve(r.get().size());
  const std::vector<Tuple>& right_rows = r.get().rows();
  for (size_t i = 0; i < right_rows.size(); ++i) {
    table[right_rows[i][right_col]].push_back(i);
  }

  Relation out(select.arity());
  for (const Tuple& a : l.get().rows()) {
    auto hit = table.find(a[left_col]);
    if (hit == table.end()) continue;
    for (size_t i : hit->second) {
      Tuple combined = a;
      const Tuple& b = right_rows[i];
      combined.insert(combined.end(), b.begin(), b.end());
      if (Holds(select.conditions(), combined)) {
        out.Insert(std::move(combined));
      }
    }
  }
  return RelView::Own(std::move(out));
}

/// Evaluates sigma_conds(scan) where `key` fixes a column to a constant:
/// reads only the rows Relation::Probe returns for that constant and
/// checks every condition on them. Emits exactly the rows, in exactly the
/// order, of the scan-then-filter it replaces (the posting is ascending in
/// row position), and bills the observer the posting's size, the rows it
/// enumerates: O(|posting|) instead of O(|R|).
Result<RelView> EvalProbe(const RaExpr& select, const RaCondition& key,
                          const Database& db, AccessObserver* observer,
                          obs::Counter* nodes, const BudgetScope* budget) {
  const RaExpr& scan = *select.left();
  // The scan node this probe replaces: same node count and budget
  // checkpoint as the scan-then-filter path.
  if (nodes != nullptr) nodes->Add(1);
  if (budget != nullptr) CCPI_RETURN_IF_ERROR(budget->Check());
  const Relation& rel = db.Get(scan.pred(), scan.arity());
  if (rel.arity() != scan.arity()) {
    return Status::InvalidArgument("scan arity mismatch on " + scan.pred());
  }
  const size_t col = key.lhs.is_col ? key.lhs.col : key.rhs.col;
  const Value& constant = key.lhs.is_col ? key.rhs.constant : key.lhs.constant;
  const std::vector<size_t>& posting = rel.Probe(col, constant);
  if (observer != nullptr) {
    CCPI_RETURN_IF_ERROR(observer->OnRead(scan.pred(), posting.size()));
  }
  const std::vector<Tuple>& rows = rel.rows();
  Relation out(select.arity());
  for (size_t i : posting) {
    if (Holds(select.conditions(), rows[i])) out.Insert(rows[i]);
  }
  return RelView::Own(std::move(out));
}

Result<RelView> EvalRaNode(const RaExpr& expr, const Database& db,
                           AccessObserver* observer, obs::Counter* nodes,
                           const BudgetScope* budget) {
  if (nodes != nullptr) nodes->Add(1);
  // Per-node budget checkpoint: bounds the work between two deadline
  // observations by one operator's evaluation.
  if (budget != nullptr) CCPI_RETURN_IF_ERROR(budget->Check());
  switch (expr.kind()) {
    case RaExpr::Kind::kScan: {
      const Relation& rel = db.Get(expr.pred(), expr.arity());
      if (rel.arity() != expr.arity()) {
        return Status::InvalidArgument("scan arity mismatch on " +
                                       expr.pred());
      }
      if (observer != nullptr) {
        CCPI_RETURN_IF_ERROR(observer->OnRead(expr.pred(), rel.size()));
      }
      return RelView::Borrow(&rel);
    }
    case RaExpr::Kind::kConstRel: {
      Relation out(expr.arity());
      for (const Tuple& t : expr.tuples()) out.Insert(t);
      return RelView::Own(std::move(out));
    }
    case RaExpr::Kind::kSelect: {
      // A selection directly over a scan that fixes a column to a constant
      // is an index lookup: probe that column instead of scanning. A
      // selection directly over a product whose conditions equate a left
      // column to a right column is a join in disguise: evaluate it as a
      // hash equi-join instead of materializing the full product. Both
      // fall through to the filtering path when no such condition exists
      // (e.g. pure theta-joins on inequalities).
      if (expr.left()->kind() == RaExpr::Kind::kScan) {
        size_t key = FindConstantEquality(expr.conditions());
        if (key != static_cast<size_t>(-1)) {
          return EvalProbe(expr, expr.conditions()[key], db, observer, nodes,
                           budget);
        }
      }
      if (expr.left()->kind() == RaExpr::Kind::kProduct) {
        size_t key = FindJoinCondition(expr.conditions(),
                                       expr.left()->left()->arity());
        if (key != static_cast<size_t>(-1)) {
          return EvalHashJoin(expr, expr.conditions()[key], db, observer,
                              nodes, budget);
        }
      }
      CCPI_ASSIGN_OR_RETURN(
          RelView child, EvalRaNode(*expr.left(), db, observer, nodes, budget));
      Relation out(expr.arity());
      for (const Tuple& t : child.get().rows()) {
        if (Holds(expr.conditions(), t)) out.Insert(t);
      }
      return RelView::Own(std::move(out));
    }
    case RaExpr::Kind::kProject: {
      CCPI_ASSIGN_OR_RETURN(
          RelView child, EvalRaNode(*expr.left(), db, observer, nodes, budget));
      Relation out(expr.arity());
      for (const Tuple& t : child.get().rows()) {
        Tuple projected;
        projected.reserve(expr.columns().size());
        for (size_t c : expr.columns()) projected.push_back(t[c]);
        out.Insert(std::move(projected));
      }
      return RelView::Own(std::move(out));
    }
    case RaExpr::Kind::kProduct: {
      CCPI_ASSIGN_OR_RETURN(
          RelView l, EvalRaNode(*expr.left(), db, observer, nodes, budget));
      CCPI_ASSIGN_OR_RETURN(
          RelView r, EvalRaNode(*expr.right(), db, observer, nodes, budget));
      Relation out(expr.arity());
      for (const Tuple& a : l.get().rows()) {
        for (const Tuple& b : r.get().rows()) {
          Tuple combined = a;
          combined.insert(combined.end(), b.begin(), b.end());
          out.Insert(std::move(combined));
        }
      }
      return RelView::Own(std::move(out));
    }
    case RaExpr::Kind::kUnion: {
      CCPI_ASSIGN_OR_RETURN(
          RelView l, EvalRaNode(*expr.left(), db, observer, nodes, budget));
      CCPI_ASSIGN_OR_RETURN(
          RelView r, EvalRaNode(*expr.right(), db, observer, nodes, budget));
      // Version-stamp audit: moving `l` in carries l's content version.
      // If every insert below is a duplicate the version stays l's —
      // correct, because the contents then ARE l's (equal version ⟹ equal
      // contents holds). Any insert that lands restamps the result with a
      // fresh process-wide version, so a version-keyed cache can never
      // alias the union with its left input. Pinned by the
      // RaEvalHotpathTest.Union*Version* tests.
      Relation out = std::move(l).IntoRelation();
      for (const Tuple& t : r.get().rows()) out.Insert(t);
      return RelView::Own(std::move(out));
    }
    case RaExpr::Kind::kDifference: {
      CCPI_ASSIGN_OR_RETURN(
          RelView l, EvalRaNode(*expr.left(), db, observer, nodes, budget));
      CCPI_ASSIGN_OR_RETURN(
          RelView r, EvalRaNode(*expr.right(), db, observer, nodes, budget));
      Relation out(expr.arity());
      for (const Tuple& t : l.get().rows()) {
        if (!r.get().Contains(t)) out.Insert(t);
      }
      return RelView::Own(std::move(out));
    }
  }
  return Status::Internal("unknown RA node kind");
}

}  // namespace

Result<Relation> EvalRa(const RaExpr& expr, const Database& db,
                        AccessObserver* observer,
                        obs::MetricsRegistry* metrics,
                        const BudgetScope* budget) {
  obs::Counter* nodes = nullptr;
  if (metrics != nullptr) {
    metrics->GetCounter("ra.evaluations")->Add(1);
    nodes = metrics->GetCounter("ra.nodes_evaluated");
  }
  CCPI_ASSIGN_OR_RETURN(RelView view,
                        EvalRaNode(expr, db, observer, nodes, budget));
  return std::move(view).IntoRelation();
}

Result<bool> RaNonempty(const RaExpr& expr, const Database& db,
                        AccessObserver* observer,
                        obs::MetricsRegistry* metrics,
                        const BudgetScope* budget) {
  obs::Counter* nodes = nullptr;
  if (metrics != nullptr) {
    metrics->GetCounter("ra.evaluations")->Add(1);
    nodes = metrics->GetCounter("ra.nodes_evaluated");
  }
  // Evaluates through the view so a bare scan (or any borrowed result)
  // answers nonemptiness with zero Relation copies.
  CCPI_ASSIGN_OR_RETURN(RelView view,
                        EvalRaNode(expr, db, observer, nodes, budget));
  return !view.get().empty();
}

}  // namespace ccpi
