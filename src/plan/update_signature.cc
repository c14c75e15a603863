#include "plan/update_signature.h"

#include <algorithm>
#include <set>

namespace ccpi {

std::string ShapeSignature(const Tuple& t,
                           const std::vector<Value>& constants) {
  // The tuple's distinct non-constant values in Value order: a component's
  // rank is its value's index here, so ranks encode both the tuple's own
  // order and its equalities.
  std::vector<Value> others;
  for (const Value& v : t) {
    if (!std::binary_search(constants.begin(), constants.end(), v)) {
      others.push_back(v);
    }
  }
  std::sort(others.begin(), others.end());
  others.erase(std::unique(others.begin(), others.end()), others.end());

  std::string shape;
  shape.reserve(t.size() * 5);
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) shape += '.';
    // Index of the first pool constant not below t[i]: the constant it
    // equals, or else the gap it falls in (gap g lies strictly between
    // constants g-1 and g).
    auto it = std::lower_bound(constants.begin(), constants.end(), t[i]);
    const size_t pos = it - constants.begin();
    if (it != constants.end() && *it == t[i]) {
      shape += 'C';
      shape += std::to_string(pos);
      continue;
    }
    shape += 'G';
    shape += std::to_string(pos);
    shape += 'N';
    shape += std::to_string(
        std::lower_bound(others.begin(), others.end(), t[i]) - others.begin());
  }
  return shape;
}

UpdateSignature MakeUpdateSignature(const Update& u,
                                    const std::vector<Value>& constants) {
  UpdateSignature sig;
  sig.pred = u.pred;
  sig.is_insert = u.kind == Update::Kind::kInsert;
  sig.shape = ShapeSignature(u.tuple, constants);
  return sig;
}

std::vector<Value> CollectProgramConstants(
    const std::vector<const Program*>& programs) {
  std::set<Value> out;
  auto add_term = [&](const Term& term) {
    if (term.is_const()) out.insert(term.constant());
  };
  for (const Program* p : programs) {
    for (const Rule& r : p->rules) {
      for (const Term& arg : r.head.args) add_term(arg);
      for (const Literal& l : r.body) {
        if (l.is_comparison()) {
          add_term(l.cmp.lhs);
          add_term(l.cmp.rhs);
        } else {
          for (const Term& arg : l.atom.args) add_term(arg);
        }
      }
    }
  }
  return std::vector<Value>(out.begin(), out.end());
}

bool SignatureSafe(const Program& program) {
  for (const Rule& r : program.rules) {
    for (const Literal& l : r.body) {
      if (l.is_comparison()) return false;
    }
  }
  return true;
}

}  // namespace ccpi
