#ifndef CCPI_PLAN_UPDATE_SIGNATURE_H_
#define CCPI_PLAN_UPDATE_SIGNATURE_H_

#include <string>
#include <vector>

#include "datalog/ast.h"
#include "relational/tuple.h"
#include "updates/update.h"

namespace ccpi {

/// The *update pattern* a compiled plan is keyed by: the updated predicate,
/// the update kind, and the tuple's *order type* relative to a distinguished
/// set of constants (in the manager: every constant appearing in any active
/// constraint program).
///
/// The order type records, per component, either the distinguished constant
/// it equals ("C<i>"), or the gap of the sorted pool it falls in together
/// with its rank among the tuple's own distinct non-constant values
/// ("G<g>N<r>"; gap g lies strictly between constants g-1 and g). Ranks
/// encode the tuple's equalities too: with constants {5}, the tuple
/// (2, 9, 9) renders "G0N0.G1N1.G1N1" and (7, 6, 5) "G1N1.G1N0.C0". Both
/// use Value's total order (ints below symbols), the order the arithmetic
/// solver reasons in.
///
/// Two tuples of one order type are related by an order-preserving
/// bijection that fixes every distinguished constant. Tier 1's containment
/// test compares values only for equality and, through Theorem 5.1 and the
/// exact oracle's linearizations, by their place in a dense order, so it
/// decides both alike: the order type is a sound key for it (Klug's
/// argument, see containment/klug.h), and for the Theorem 5.3 templates,
/// which compare values for equality alone. See docs/plan_cache.md.
struct UpdateSignature {
  std::string pred;
  bool is_insert = true;
  std::string shape;

  /// The cache-key rendering, e.g. "emp/+/C0.G1N0.G1N0".
  std::string Key() const {
    return pred + (is_insert ? "/+/" : "/-/") + shape;
  }
};

/// Order type of `t` relative to `constants` (must be sorted by Value's
/// order and deduplicated, so indices are stable across calls).
std::string ShapeSignature(const Tuple& t, const std::vector<Value>& constants);

UpdateSignature MakeUpdateSignature(const Update& u,
                                    const std::vector<Value>& constants);

/// Every constant appearing in `programs` — rule heads, subgoal arguments
/// and comparison operands — sorted and deduplicated, ready for
/// ShapeSignature.
std::vector<Value> CollectProgramConstants(
    const std::vector<const Program*>& programs);

/// True when `program` contains no comparison literals at all. Only the
/// episode benchmark's tier-1 mirror (perfbench/mirror.cc) calls it, to gate
/// its own memo; order-type keys keep the manager's memo sound for every
/// constraint set.
bool SignatureSafe(const Program& program);

}  // namespace ccpi

#endif  // CCPI_PLAN_UPDATE_SIGNATURE_H_
