// Parameterized property sweeps: each suite re-runs a randomized invariant
// check across seeds (and, where it matters, across a family of constraint
// shapes). These are the repo's substitute for the full proofs deferred to
// Gupta [1994]: every algorithm is cross-validated against an independent
// implementation or a brute-force oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "containment/cqc.h"
#include "containment/exact.h"
#include "containment/klug.h"
#include "core/cqc_form.h"
#include "core/icq_compiler.h"
#include "core/local_test.h"
#include "core/ra_local_test.h"
#include "datalog/parser.h"
#include "eval/engine.h"
#include "plan/update_signature.h"
#include "updates/independence.h"
#include "updates/rewrite.h"
#include "util/rng.h"

namespace ccpi {
namespace {

Rule MustRule(const std::string& text) {
  auto r = ParseRule(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return *r;
}

// --- Sweep 1: Theorem 5.1 == Klug == exact oracle --------------------------

class Theorem51Agreement : public ::testing::TestWithParam<uint64_t> {};

CQ RandomNormalFormCqc(Rng* rng, int atoms, int comps) {
  CQ q;
  q.head.pred = kPanic;
  int vars = 0;
  for (int i = 0; i < atoms; ++i) {
    q.positives.push_back(
        Atom{"r", {Term::Var("V" + std::to_string(vars++)),
                   Term::Var("V" + std::to_string(vars++))}});
  }
  const CmpOp ops[] = {CmpOp::kLt, CmpOp::kLe, CmpOp::kEq, CmpOp::kNe,
                       CmpOp::kGt, CmpOp::kGe};
  for (int i = 0; i < comps; ++i) {
    Term lhs = Term::Var("V" + std::to_string(rng->Below(
                                   static_cast<uint64_t>(vars))));
    Term rhs = rng->Chance(1, 3)
                   ? Term::Const(Value(rng->Range(0, 3) * 10))
                   : Term::Var("V" + std::to_string(rng->Below(
                                         static_cast<uint64_t>(vars))));
    q.comparisons.push_back(Comparison{lhs, ops[rng->Below(6)], rhs});
  }
  return q;
}

TEST_P(Theorem51Agreement, MatchesKlugAndOracle) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    CQ c1 = RandomNormalFormCqc(&rng, 2, 3);
    UCQ u2 = {RandomNormalFormCqc(&rng, 1, 2),
              RandomNormalFormCqc(&rng, 1, 2)};
    auto t51 = CqcContainedInUnion(c1, u2);
    ASSERT_TRUE(t51.ok()) << t51.status().ToString();
    auto klug = KlugContainedInUnion(c1, u2);
    ASSERT_TRUE(klug.ok());
    EXPECT_EQ(*t51, *klug) << "C1: " << c1.ToString();
    auto oracle = ExactUcqContained({c1}, u2);
    if (oracle.ok()) {
      EXPECT_EQ(*t51, *oracle) << "C1: " << c1.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem51Agreement,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

// --- Sweep 2: local-test soundness + completeness across CQC shapes --------

// The rule travels as a std::string so gtest prints its text, not a pointer
// whose address changes from run to run, into the test's listed name.
using LocalTestParam = std::tuple<std::string, uint64_t>;

class LocalTestSweep : public ::testing::TestWithParam<LocalTestParam> {};

TEST_P(LocalTestSweep, SoundAndComplete) {
  auto [text, seed] = GetParam();
  Rng rng(seed);
  const Rule rule = MustRule(text);
  auto cqc = MakeCqc(rule, "l");
  ASSERT_TRUE(cqc.ok()) << cqc.status().ToString();
  Program constraint;
  constraint.rules.push_back(cqc->ToCQ().ToRule());
  size_t arity = cqc->local_arity();
  // Arithmetic-free shapes are Theorem 5.3's: its RA test, whose
  // selections fix the key column to t's value and so probe it, must
  // decide as Theorem 5.2 does. Their relations hold several key groups:
  // up to 11 rows over the values 0..3.
  const bool thm53 = std::none_of(
      rule.body.begin(), rule.body.end(), [](const Literal& l) {
        return l.kind == Literal::Kind::kComparison;
      });

  for (int trial = 0; trial < 25; ++trial) {
    Relation local(arity);
    Database local_db;
    const int64_t top = thm53 ? 3 : 8;
    size_t n = rng.Below(thm53 ? 12 : 4);
    for (size_t i = 0; i < n; ++i) {
      Tuple s;
      for (size_t a = 0; a < arity; ++a) s.push_back(V(rng.Range(0, top)));
      local.Insert(s);
      ASSERT_TRUE(local_db.Insert("l", s).ok());
    }
    Tuple t;
    for (size_t a = 0; a < arity; ++a) t.push_back(V(rng.Range(0, top)));

    auto result = CompleteLocalTestOnInsert(*cqc, t, local);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (thm53) {
      auto ra = RaLocalTestOnInsert(rule, "l", t, local_db);
      ASSERT_TRUE(ra.ok()) << ra.status().ToString();
      EXPECT_EQ(*ra, result->outcome)
          << text << "\nt=" << TupleToString(t) << "\n" << local.ToString("l");
    }
    if (result->outcome == Outcome::kUnknown) {
      // Completeness: the witness remote state breaks the constraint after
      // the insert and not before.
      if (!result->witness_remote.has_value()) continue;  // dense-only model
      Database db = *result->witness_remote;
      for (const Tuple& s : local.rows()) {
        ASSERT_TRUE(db.Insert("l", s).ok());
      }
      auto before = IsViolated(constraint, db);
      ASSERT_TRUE(before.ok());
      EXPECT_FALSE(*before) << "witness violates the before-state\n"
                            << db.ToString();
      ASSERT_TRUE(db.Insert("l", t).ok());
      auto after = IsViolated(constraint, db);
      ASSERT_TRUE(after.ok());
      EXPECT_TRUE(*after) << "witness fails to violate after " +
                                 TupleToString(t);
    } else if (result->outcome == Outcome::kHolds && !thm53) {
      // Soundness on an exhaustive small remote grid. The grid fills the
      // interval shapes' r(Z) and r2(W,W2); the Theorem 5.3 shapes are
      // checked against Theorem 5.2 above.
      for (int64_t z1 = -1; z1 <= 9; ++z1) {
        Database db;
        ASSERT_TRUE(db.Insert("r", {V(z1)}).ok());
        ASSERT_TRUE(db.Insert("r2", {V(z1), V(z1 + 1)}).ok());
        for (const Tuple& s : local.rows()) {
          ASSERT_TRUE(db.Insert("l", s).ok());
        }
        auto before = IsViolated(constraint, db);
        ASSERT_TRUE(before.ok());
        if (*before) continue;  // inconsistent before-state: not a witness
        Database after_db = db;
        ASSERT_TRUE(after_db.Insert("l", t).ok());
        auto after = IsViolated(constraint, after_db);
        ASSERT_TRUE(after.ok());
        EXPECT_FALSE(*after) << "holds-verdict broken at z=" << z1;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConstraintFamilies, LocalTestSweep,
    ::testing::Combine(
        ::testing::Values(
            // Forbidden intervals (Example 5.3).
            "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y",
            // Open bounds and a local filter.
            "panic :- l(X,Y) & r(Z) & X < Z & Z < Y & X < Y",
            // One-sided ray.
            "panic :- l(X,Y) & r(Z) & Y <= Z",
            // Disequality puncture.
            "panic :- l(X,Y) & r(Z) & Z <> X",
            // Two remote subgoals sharing the remote variable by equality.
            "panic :- l(X,Y) & r(Z) & r2(W,W2) & X <= Z & Z <= Y & W = Z",
            // Remote variable compared against two local endpoints plus a
            // second free remote attribute.
            "panic :- l(X,Y) & r2(Z,U) & X <= Z & Z <= Y",
            // Arithmetic-free joins through a key (Theorem 5.3).
            "panic :- l(K,X) & r(K,Z) & s(Z,X)",
            "panic :- l(K,X,Y) & r(K,Y) & s(Y,X)"),
        ::testing::Values(101u, 202u)));

// --- Sweep 3: the three Fig 6.1 implementations agree -----------------------

using IcqParam = std::tuple<std::string, uint64_t>;
class IcqAgreement : public ::testing::TestWithParam<IcqParam> {};

TEST_P(IcqAgreement, DatalogDirectTheorem52) {
  auto [text, seed] = GetParam();
  Rng rng(seed);
  Rule rule = MustRule(text);
  auto comp = CompileIcq(rule, "l");
  ASSERT_TRUE(comp.ok()) << comp.status().ToString();
  auto cqc = MakeCqc(rule, "l");
  ASSERT_TRUE(cqc.ok());
  size_t arity = comp->local_arity;

  for (int trial = 0; trial < 20; ++trial) {
    Database db;
    Relation local(arity);
    size_t n = rng.Below(4);
    for (size_t i = 0; i < n; ++i) {
      Tuple s;
      for (size_t a = 0; a < arity; ++a) s.push_back(V(rng.Range(0, 6)));
      local.Insert(s);
      ASSERT_TRUE(db.Insert("l", s).ok());
    }
    Tuple t;
    for (size_t a = 0; a < arity; ++a) t.push_back(V(rng.Range(0, 6)));

    auto datalog = IcqLocalTestOnInsert(*comp, db, t);
    auto direct = IcqDirectTestOnInsert(*comp, local, t);
    auto thm52 = CompleteLocalTestOnInsert(*cqc, t, local);
    ASSERT_TRUE(datalog.ok()) << datalog.status().ToString();
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(thm52.ok());
    EXPECT_EQ(*datalog, *direct)
        << text << "\nt=" << TupleToString(t) << "\n" << local.ToString("l");
    EXPECT_EQ(*direct, thm52->outcome)
        << text << "\nt=" << TupleToString(t) << "\n" << local.ToString("l");
  }
}

INSTANTIATE_TEST_SUITE_P(
    IcqFamilies, IcqAgreement,
    ::testing::Combine(
        ::testing::Values(
            "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y",
            "panic :- l(X,Y) & r(Z) & X < Z & Z < Y",
            "panic :- l(X,Y) & r(Z) & X <= Z",
            "panic :- l(X,Y) & r(Z) & Z <> X & X <= Z & Z <= Y",
            "panic :- l(K,X) & r(K,Z) & X <= Z",
            "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y & X < Y"),
        ::testing::Values(7u, 77u)));

// --- Sweep 3b: keyed Fig 6.1 families take the key-group probe ------------
//
// The direct test reads only the inserted tuple's key group through
// Relation::Probe; the compiled Fig 6.1 program keeps scanning the whole
// relation, so it is the oracle. Each trial runs on an unfrozen relation,
// a frozen one, or one frozen and then erased from (its indexes rebuilt
// after the erase), with several key groups, and once more over a random
// verified overlay. The later trials give t a key group of 40 or more rows
// whose bounds share endpoints in a small range, so the direct test's
// filter (only intervals touching a target) and its one-sweep merge see
// long chains of touching, overlapping and gapped intervals.

class KeyedIcqAgreement : public ::testing::TestWithParam<IcqParam> {};

TEST_P(KeyedIcqAgreement, ProbeAgreesWithFullScanAndTheorem52) {
  auto [text, seed] = GetParam();
  Rng rng(seed);
  Rule rule = MustRule(text);
  auto comp = CompileIcq(rule, "l");
  ASSERT_TRUE(comp.ok()) << comp.status().ToString();
  ASSERT_TRUE(comp->key_col.has_value()) << text;
  // The manager's form: the same analysis without the interval program.
  // The direct test below runs on it, the datalog oracle on `comp`.
  auto analyzed = AnalyzeIcq(rule, "l");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_TRUE(analyzed->interval_program.rules.empty());
  EXPECT_EQ(analyzed->key_col, comp->key_col);
  EXPECT_EQ(analyzed->local_arity, comp->local_arity);
  auto cqc = MakeCqc(rule, "l");
  ASSERT_TRUE(cqc.ok()) << cqc.status().ToString();
  const size_t arity = comp->local_arity;
  const size_t key_col = *comp->key_col;
  auto random_tuple = [&rng, arity] {
    Tuple s;
    for (size_t a = 0; a < arity; ++a) s.push_back(V(rng.Range(0, 4)));
    return s;
  };
  auto database_of = [](const Relation& relation) {
    Database db;
    for (const Tuple& s : relation.rows()) EXPECT_TRUE(db.Insert("l", s).ok());
    return db;
  };

  // A tuple that matches the local atom's constants and repeated
  // variables, so it contributes an interval whenever its bounds allow.
  const LocalPattern& slots = comp->branches[0].slots;
  auto matching = [&slots](Tuple s) {
    for (const auto& [col, value] : slots.constants) s[col] = value;
    for (const auto& [a, b] : slots.repeats) s[b] = s[a];
    return s;
  };
  // The columns that hold some branch's interval bounds.
  std::vector<size_t> lower_cols;
  std::vector<size_t> upper_cols;
  for (const IcqBranch& b : comp->branches) {
    for (const LocalSlot& slot : b.slots.lowers) {
      if (slot.col != LocalSlot::kConstant) lower_cols.push_back(slot.col);
    }
    for (const LocalSlot& slot : b.slots.uppers) {
      if (slot.col != LocalSlot::kConstant) upper_cols.push_back(slot.col);
    }
  }
  // A row of t's key group whose bounds span `lo` to `lo + width`. A <>
  // split also bounds Z above by a lower-bound column; that column keeps
  // its lower value.
  auto in_group = [&](Tuple s, int64_t lo, int64_t width) {
    for (size_t col : upper_cols) s[col] = V(lo + width);
    for (size_t col : lower_cols) s[col] = V(lo);
    return matching(std::move(s));
  };
  std::map<Outcome, int> big_group_outcomes;

  for (int trial = 0; trial < 46; ++trial) {
    Relation local(arity);
    size_t n = rng.Below(16);
    for (size_t i = 0; i < n; ++i) local.Insert(random_tuple());
    const bool big_group = trial >= 40;
    Tuple t = big_group ? matching(random_tuple()) : random_tuple();
    if (big_group) {
      // 40 short intervals sharing t's key over 0..27, so they touch,
      // overlap and leave gaps; t's own interval spans up to 10.
      for (size_t i = 0; i < 40; ++i) {
        local.Insert(in_group(t, rng.Range(0, 24), rng.Range(0, 3)));
      }
      t = in_group(t, rng.Range(0, 16), rng.Range(2, 10));
    }
    const int mode = trial % 3;  // 0 unfrozen, 1 frozen, 2 frozen + erased
    if (mode > 0) local.FreezeIndexes();
    if (mode == 2) {
      for (size_t i = 0, e = rng.Below(4); i < e && !local.empty(); ++i) {
        local.Erase(local.rows()[rng.Below(local.size())]);
      }
    }
    const std::string where = text + "\nt=" + TupleToString(t) + "\n" +
                              local.ToString("l");

    size_t rows_read = 0;
    auto datalog = IcqLocalTestOnInsert(*comp, database_of(local), t);
    auto direct = IcqDirectTestOnInsert(*analyzed, local, t, &rows_read);
    ASSERT_TRUE(datalog.ok()) << datalog.status().ToString();
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*datalog, *direct) << where;
    // Theorem 5.2's refutation search grows exponentially with the group:
    // a 40-row group costs up to 0.3 s on the 3-column families and tens
    // of seconds on the 4-column ones, so only the former check it there.
    if (!big_group || arity == 3) {
      auto thm52 = CompleteLocalTestOnInsert(*cqc, t, local);
      ASSERT_TRUE(thm52.ok());
      EXPECT_EQ(*direct, thm52->outcome) << where;
    }
    size_t group = 0;
    for (const Tuple& s : local.rows()) group += s[key_col] == t[key_col];
    EXPECT_LE(rows_read, group) << where;
    if (big_group) ++big_group_outcomes[*direct];

    // Some rows pending insert (hidden), some absent tuples pending delete
    // (restored): the overlay test must equal the test on the copy.
    VerifiedOverlay pending;
    Relation verified = local;
    for (const Tuple& s : local.rows()) {
      if (rng.Chance(1, 3)) pending[s] = false;
    }
    for (size_t i = 0, m = rng.Below(4); i < m; ++i) {
      Tuple s = random_tuple();
      if (big_group) {
        // A pending delete in t's own key group, where it can cover t.
        s = in_group(t, rng.Range(0, 24), rng.Range(0, 3));
      }
      if (!local.Contains(s)) pending[s] = true;
    }
    for (const auto& [s, present] : pending) {
      if (present) {
        verified.Insert(s);
      } else {
        verified.Erase(s);
      }
    }
    auto over = IcqDirectTestOnInsert(*comp, local, pending, t);
    auto copied = IcqLocalTestOnInsert(*comp, database_of(verified), t);
    ASSERT_TRUE(over.ok());
    ASSERT_TRUE(copied.ok());
    EXPECT_EQ(*over, *copied) << where << "verified:\n"
                              << verified.ToString("l");
  }
  // The big groups decide both ways, so neither verdict goes untested.
  EXPECT_GT(big_group_outcomes[Outcome::kHolds], 0) << text;
  EXPECT_GT(big_group_outcomes[Outcome::kUnknown], 0) << text;
}

INSTANTIATE_TEST_SUITE_P(
    KeyedIcqFamilies, KeyedIcqAgreement,
    ::testing::Combine(
        ::testing::Values(
            // Key at column 0.
            "panic :- l(K,Lo,Hi) & r(K,Z) & Lo <= Z & Z <= Hi",
            // Key in a middle column.
            "panic :- l(Lo,K,Hi) & r(K,Z) & Lo <= Z & Z < Hi",
            // Two-column key; B occurs first in r, so it is probed.
            "panic :- l(A,Lo,B,Hi) & r(B,A,Z) & Lo <= Z & Z <= Hi",
            // Repeated key variable.
            "panic :- l(K,K,Lo,Hi) & r(K,Z) & Lo <= Z & Z <= Hi",
            // A constant in the local atom.
            "panic :- l(K,3,Lo,Hi) & r(K,Z) & Lo < Z & Z <= Hi",
            // A <> split over a keyed join.
            "panic :- l(K,Lo,Hi) & r(K,Z) & Lo <= Z & Z <= Hi & Z <> Lo"),
        ::testing::Values(11u, 1111u)));

// --- Sweep 4: rewrite semantics across update kinds and encodings ----------

class RewriteSemantics : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RewriteSemantics, BeforeEqualsAfter) {
  Rng rng(GetParam());
  auto constraint = ParseProgram(
      "panic :- p(X,Y) & q(Y,Z) & not s(X,Z) & X < Z\n"
      "panic :- q(X,X)\n");
  ASSERT_TRUE(constraint.ok());
  for (int trial = 0; trial < 15; ++trial) {
    Database db;
    for (int i = 0; i < 6; ++i) {
      const char* preds[] = {"p", "q", "s"};
      ASSERT_TRUE(db.Insert(preds[rng.Below(3)],
                            {V(rng.Range(0, 3)), V(rng.Range(0, 3))})
                      .ok());
    }
    Tuple t = {V(rng.Range(0, 3)), V(rng.Range(0, 3))};
    const char* preds[] = {"p", "q", "s"};
    std::string pred = preds[rng.Below(3)];
    Update u = rng.Chance(1, 2) ? Update::Insert(pred, t)
                                : Update::Delete(pred, t);
    auto rewritten = RewriteAfterUpdate(*constraint, u);
    ASSERT_TRUE(rewritten.ok());
    Database after = db;
    ASSERT_TRUE(u.ApplyTo(&after).ok());
    auto lhs = IsViolated(*rewritten, db);
    auto rhs = IsViolated(*constraint, after);
    ASSERT_TRUE(lhs.ok() && rhs.ok());
    EXPECT_EQ(*lhs, *rhs) << u.ToString() << "\n" << db.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteSemantics,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Sweep 5: evaluation ablations agree ------------------------------------

class EvalAblation : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvalAblation, NaiveIndexlessSeminaiveAgree) {
  Rng rng(GetParam());
  auto program = ParseProgram(
      "panic :- reach(X,Y) & not e(X,Y) & X < Y\n"
      "reach(X,Y) :- e(X,Y)\n"
      "reach(X,Y) :- reach(X,Z) & e(Z,Y)\n");
  ASSERT_TRUE(program.ok());
  for (int trial = 0; trial < 10; ++trial) {
    Database db;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          db.Insert("e", {V(rng.Range(0, 5)), V(rng.Range(0, 5))}).ok());
    }
    EvalOptions seminaive;
    EvalOptions naive;
    naive.use_seminaive = false;
    EvalOptions noindex;
    noindex.use_index = false;
    auto a = IsViolated(*program, db, seminaive);
    auto b = IsViolated(*program, db, naive);
    auto c = IsViolated(*program, db, noindex);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(*a, *c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalAblation,
                         ::testing::Values(10u, 20u, 30u, 40u));

// --- Sweep 6: one order type, one tier-1 verdict ---------------------------

// The comparison shapes of the config-lattice pool (fi, ord, rcap, swap,
// cap, bounds) plus join, which shares their predicates. The negated
// shapes stay out: with one in the set, tier 1 runs the exact small-model
// oracle, at tenths of a second per call.
const char* const kOrderShapes[] = {
    "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y",
    "panic :- l(X,Y) & X > Y",
    "panic :- r(Z) & Z > 8",
    "panic :- l(X,Y) & l(Y,X2) & X = X2",
    "panic :- emp(E,D,S) & S > 100",
    "panic :- r(Z) & Z > 10\npanic :- emp(E,D,S) & S > 120",
    "panic :- l(X,Y) & r(X)",
};

// Every pool constant (8, 10, 100, 120), values next to each, between
// them and outside them, and symbols, which sort above every int.
const Value kOrderValues[] = {V(-7), V(0),   V(7),   V(8),   V(9),
                              V(10), V(11),  V(50),  V(99),  V(100),
                              V(101), V(110), V(120), V(121), V(500),
                              V("a"), V("q")};

class OrderTypeVerdicts : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrderTypeVerdicts, SameOrderTypeSameColdVerdict) {
  // The tier-1 memo's soundness: updates with one key (predicate, kind,
  // order type against the set's constants) get the same cold
  // HoldsAfterUpdate verdict from every constraint of the set.
  Rng rng(GetParam());
  size_t shared = 0;  // verdicts compared against an earlier same-key one
  size_t holds = 0;
  size_t falls_through = 0;
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<Program> set;
    std::vector<const Program*> programs;
    for (const char* text : kOrderShapes) {
      if (!rng.Chance(1, 3)) continue;
      auto p = ParseProgram(text);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      set.push_back(*p);
    }
    if (set.empty()) continue;
    for (const Program& p : set) programs.push_back(&p);
    const std::vector<Value> pool = CollectProgramConstants(programs);
    const char* preds[] = {"l", "r", "emp"};
    const size_t arity[] = {2, 1, 3};
    const size_t which = rng.Below(3);
    const bool insert = rng.Chance(1, 2);
    // First verdict seen per (key, constraint index): holds, or the
    // status code it fell through with.
    std::map<std::pair<std::string, size_t>, std::pair<Tuple, int>> seen;
    for (int draw = 0; draw < 24; ++draw) {
      Tuple t;
      for (size_t i = 0; i < arity[which]; ++i) {
        t.push_back(kOrderValues[rng.Below(std::size(kOrderValues))]);
      }
      const Update u = insert ? Update::Insert(preds[which], t)
                              : Update::Delete(preds[which], t);
      const std::string key = MakeUpdateSignature(u, pool).Key();
      for (size_t c = 0; c < set.size(); ++c) {
        std::vector<Program> assumed;
        for (size_t o = 0; o < set.size(); ++o) {
          if (o != c) assumed.push_back(set[o]);
        }
        auto d = HoldsAfterUpdate(set[c], u, assumed);
        // -1: holds; otherwise the status code (0 for a decided
        // fall-through).
        const int verdict =
            d.ok() ? (d->outcome == Outcome::kHolds ? -1 : 0)
                   : static_cast<int>(d.status().code());
        (verdict == -1 ? holds : falls_through) += 1;
        auto [it, fresh] = seen.try_emplace({key, c}, t, verdict);
        if (fresh || it->second.first == t) continue;
        ++shared;
        EXPECT_EQ(it->second.second, verdict)
            << "key " << key << " constraint " << set[c].ToString()
            << " tuples " << TupleToString(it->second.first) << " and "
            << TupleToString(t);
      }
    }
  }
  // Non-vacuous: same-key pairs of distinct tuples were compared, and the
  // verdicts themselves vary.
  EXPECT_GT(shared, 50u);
  EXPECT_GT(holds, 0u);
  EXPECT_GT(falls_through, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderTypeVerdicts,
                         ::testing::Values(3u, 14u, 15u, 92u));

}  // namespace
}  // namespace ccpi
