#ifndef CCPI_PERFBENCH_MIRROR_H_
#define CCPI_PERFBENCH_MIRROR_H_

// The traced run's view into the layers below the manager.
//
// The manager times none of its inner calls, so the benchmark repeats them
// from outside: after each real episode, the mirror makes the calls that
// episode made into each layer's public functions — Database writes and
// freezes, HoldsAfterUpdate, the tier-2 local tests, IsViolated — on a
// database of its own that it keeps in step with the manager's, and times
// each. It follows the manager's own decision order (tier-1 memo, the
// Fig 6.1 / Theorem 5.3 / Theorem 5.2 fall-through, tentative apply and
// rollback) and checks that its verdicts agree with the manager's reports.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cqc_form.h"
#include "core/icq_compiler.h"
#include "datalog/ast.h"
#include "manager/constraint_manager.h"
#include "relational/database.h"
#include "workloads.h"

namespace ccpi::perfbench {

/// Calls of one layer function and their summed wall time.
struct CallStat {
  uint64_t calls = 0;
  double total_us = 0;
  double mean_us() const { return calls == 0 ? 0 : total_us / calls; }
};

class LayerMirror {
 public:
  /// `constraints` in the manager's registration order (none subsumed);
  /// `db` is a deep copy of the manager's database.
  LayerMirror(std::vector<std::pair<std::string, Program>> constraints,
              std::set<std::string> local_preds, Database db);

  /// Replays the layer calls of episode `u`, whose manager reports are
  /// `reports`. Returns false when a verdict of the mirror disagrees.
  bool Replay(const Update& u, const std::vector<CheckReport>& reports);

  /// Applies a round reset, untimed.
  void ApplyReset(const std::vector<Edit>& reset);

  /// Per layer function, keyed "<layer>.<function>".
  const std::map<std::string, CallStat>& stats() const { return stats_; }

 private:
  struct Tier2 {
    Rule rule;
    bool arithmetic_free = false;
    std::optional<IcqCompilation> icq;
    std::optional<Cqc> cqc;
  };
  struct Mirrored {
    std::string name;
    Program program;
    std::vector<Program> assumed;  // every other constraint
    std::map<std::string, std::shared_ptr<const Tier2>> tier2;
  };

  /// Null when no tier-2 test applies (as ConstraintManager::PrepareTier2).
  std::shared_ptr<const Tier2> PrepareTier2(Mirrored* c,
                                            const std::string& pred);
  /// Times `fn` into stats_[key], inside a span of the same name.
  template <typename Fn>
  auto Timed(const char* key, Fn fn);
  void Apply(const Update& u);

  std::vector<Mirrored> constraints_;
  std::set<std::string> local_preds_;
  Database db_;
  /// The tier-1 decision memo, mirrored: on iff every program is
  /// comparison-free, keyed like the manager's plan cache.
  bool tier1_memo_ = false;
  std::vector<Value> plan_constants_;
  std::map<std::string, bool> tier1_;
  std::map<std::string, CallStat> stats_;
};

}  // namespace ccpi::perfbench

#endif  // CCPI_PERFBENCH_MIRROR_H_
