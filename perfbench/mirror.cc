#include "mirror.h"

#include <chrono>

#include "core/local_test.h"
#include "core/ra_local_test.h"
#include "datalog/unfold.h"
#include "eval/engine.h"
#include "obs/trace.h"
#include "plan/update_signature.h"
#include "updates/independence.h"
#include "util/check.h"

namespace ccpi::perfbench {
namespace {

bool Mentions(const Program& p, const std::string& pred) {
  for (const Rule& r : p.rules) {
    for (const Literal& l : r.body) {
      if (!l.is_comparison() && l.atom.pred == pred) return true;
    }
  }
  return false;
}

}  // namespace

LayerMirror::LayerMirror(
    std::vector<std::pair<std::string, Program>> constraints,
    std::set<std::string> local_preds, Database db)
    : local_preds_(std::move(local_preds)), db_(std::move(db)) {
  std::vector<const Program*> programs;
  tier1_memo_ = true;
  for (auto& [name, program] : constraints) {
    constraints_.push_back(Mirrored{name, std::move(program), {}, {}});
  }
  for (Mirrored& c : constraints_) {
    programs.push_back(&c.program);
    tier1_memo_ = tier1_memo_ && SignatureSafe(c.program);
    for (const Mirrored& other : constraints_) {
      if (other.name != c.name) c.assumed.push_back(other.program);
    }
  }
  plan_constants_ = CollectProgramConstants(programs);
}

template <typename Fn>
auto LayerMirror::Timed(const char* key, Fn fn) {
  obs::Span span(key, "mirror");
  auto start = std::chrono::steady_clock::now();
  struct Record {
    CallStat* stat;
    std::chrono::steady_clock::time_point start;
    ~Record() {
      stat->calls += 1;
      stat->total_us += std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    }
  } record{&stats_[key], start};
  return fn();
}

void LayerMirror::Apply(const Update& u) {
  Status st = Timed("relational.apply", [&] { return u.ApplyTo(&db_); });
  CCPI_CHECK(st.ok());
}

std::shared_ptr<const LayerMirror::Tier2> LayerMirror::PrepareTier2(
    Mirrored* c, const std::string& pred) {
  auto it = c->tier2.find(pred);
  if (it != c->tier2.end()) return it->second;
  std::shared_ptr<const Tier2> artifacts;
  Result<UCQ> unfolded = UnfoldToUCQ(c->program);
  if (unfolded.ok() && unfolded->size() == 1 &&
      !(*unfolded)[0].HasNegation()) {
    auto built = std::make_shared<Tier2>();
    built->rule = (*unfolded)[0].ToRule();
    built->arithmetic_free = !(*unfolded)[0].HasArithmetic();
    Result<IcqCompilation> icq = CompileIcq(built->rule, pred);
    if (icq.ok()) built->icq = std::move(*icq);
    Result<Cqc> cqc = MakeCqc(built->rule, pred);
    if (cqc.ok()) built->cqc = std::move(*cqc);
    if (built->icq.has_value() || built->cqc.has_value() ||
        built->arithmetic_free) {
      artifacts = std::move(built);
    }
  }
  return c->tier2.emplace(pred, artifacts).first->second;
}

bool LayerMirror::Replay(const Update& u,
                         const std::vector<CheckReport>& reports) {
  CCPI_CHECK(reports.size() == constraints_.size());
  const bool insert = u.kind == Update::Kind::kInsert;
  if (insert == db_.Contains(u.pred, u.tuple)) {
    // A no-op: the manager checks nothing and writes nothing.
    for (const CheckReport& r : reports) {
      if (r.tier != Tier::kUnaffected) return false;
    }
    return true;
  }
  // Phase 1 reads a frozen database (the columnar path is on by default).
  Timed("relational.freeze", [&] { db_.FreezeIndexes(); });

  bool agree = true;
  bool violated = false;
  std::vector<size_t> full;
  const std::string sig_key =
      tier1_memo_ ? MakeUpdateSignature(u, plan_constants_).Key() : "";
  for (size_t i = 0; i < constraints_.size(); ++i) {
    Mirrored& c = constraints_[i];
    const CheckReport& report = reports[i];
    if (!Mentions(c.program, u.pred)) {
      agree = agree && report.tier == Tier::kUnaffected;
      continue;
    }
    // Tier 1: constraints + update (Section 4), memoized per update shape
    // exactly when the manager memoizes it.
    bool holds = false;
    std::string memo_key = c.name + '\x1f' + sig_key;
    auto memo = tier1_memo_ ? tier1_.find(memo_key) : tier1_.end();
    if (memo != tier1_.end()) {
      holds = memo->second;
    } else {
      Result<ContainmentDecision> d =
          Timed("updates.holds_after_update",
                [&] { return HoldsAfterUpdate(c.program, u, c.assumed); });
      holds = d.ok() && d->outcome == Outcome::kHolds;
      if (tier1_memo_) tier1_[memo_key] = holds;
    }
    if (holds) {
      agree = agree && report.tier == Tier::kIndependence;
      continue;
    }
    // Tier 2: local data, fastest applicable test first.
    Outcome outcome = Outcome::kUnknown;
    if (insert && local_preds_.count(u.pred) > 0) {
      std::shared_ptr<const Tier2> t2 = PrepareTier2(&c, u.pred);
      bool decided = false;
      const Relation& local = db_.Get(u.pred, u.tuple.size());
      if (t2 != nullptr && t2->icq.has_value()) {
        Result<Outcome> o = Timed("core.icq_test", [&] {
          return IcqDirectTestOnInsert(*t2->icq, local, u.tuple);
        });
        if (o.ok()) {
          outcome = *o;
          decided = true;
        }
      }
      if (t2 != nullptr && !decided && t2->arithmetic_free) {
        Result<Outcome> o = Timed("core.ra_test", [&] {
          return RaLocalTestOnInsert(t2->rule, u.pred, u.tuple, db_);
        });
        if (o.ok()) {
          outcome = *o;
          decided = true;
        }
      }
      if (t2 != nullptr && !decided && t2->cqc.has_value()) {
        Result<LocalTestResult> o = Timed("core.cqc_test", [&] {
          return CompleteLocalTestOnInsert(*t2->cqc, u.tuple, local);
        });
        if (o.ok()) outcome = o->outcome;
      }
    }
    if (outcome != Outcome::kUnknown) {
      agree = agree && report.tier == Tier::kLocalTest &&
              report.outcome == outcome;
      violated = violated || outcome == Outcome::kViolated;
      continue;
    }
    agree = agree && report.tier == Tier::kFullCheck;
    full.push_back(i);
  }

  if (!full.empty() && !violated) {
    // Tier 3: tentative apply, re-freeze, full evaluation, rollback on a
    // violation.
    Apply(u);
    Timed("relational.freeze", [&] { db_.FreezeIndexes(); });
    for (size_t i : full) {
      Result<bool> bad = Timed("eval.is_violated", [&] {
        return IsViolated(constraints_[i].program, db_);
      });
      CCPI_CHECK(bad.ok());
      Outcome want = *bad ? Outcome::kViolated : Outcome::kHolds;
      agree = agree && reports[i].outcome == want;
      violated = violated || *bad;
    }
    if (violated) {
      Apply(insert ? Update::Delete(u.pred, u.tuple)
                   : Update::Insert(u.pred, u.tuple));
    }
  } else if (!violated) {
    Apply(u);
  }
  return agree;
}

void LayerMirror::ApplyReset(const std::vector<Edit>& reset) {
  for (const Edit& e : reset) {
    Status st = e.insert ? db_.Insert(e.pred, e.tuple)
                         : db_.Erase(e.pred, e.tuple);
    CCPI_CHECK(st.ok());
  }
}

}  // namespace ccpi::perfbench
