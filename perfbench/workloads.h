#ifndef CCPI_PERFBENCH_WORKLOADS_H_
#define CCPI_PERFBENCH_WORKLOADS_H_

// Seeded workload generators of the episode benchmark.
//
// A workload is a fixed schema (constraints, local predicates, topology,
// manager configuration), seed data, and an endless stream of *rounds*.
// Each round is a list of update episodes, each with the verdict the
// generator expects, followed by a reset: direct edits that bring the
// database back to its state at the start of the round. Every round, of
// any seed, has the same sequence of episode kinds; the seed draws only the
// constants (seed data, rows, ranges, names). So per-episode counts over
// whole rounds repeat exactly from run to run, however many rounds a timed
// window happens to fit, and runs with different seeds sample one workload.

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "relational/tuple.h"
#include "updates/update.h"
#include "util/rng.h"

namespace ccpi::perfbench {

/// One update episode and the verdict the generator expects for it.
struct Op {
  Update update;
  /// True: every constraint holds and the manager applies the update.
  /// False: some constraint is violated and the update is refused.
  bool expect_applied = true;
};

/// One direct database edit of a round reset (not checked by the manager).
struct Edit {
  bool insert = true;
  std::string pred;
  Tuple tuple;
};

struct Round {
  std::vector<Op> ops;
  std::vector<Edit> reset;
};

struct Fact {
  std::string pred;
  Tuple tuple;
};

/// Everything needed to build the manager for a workload.
struct WorkloadSpec {
  std::string name;
  std::set<std::string> local_preds;
  /// Constraint name -> program text, in registration order.
  std::vector<std::pair<std::string, std::string>> constraints;
  std::vector<Fact> seed_facts;
  size_t threads = 1;
  size_t depth = 1;
  size_t sites = 1;
  std::map<std::string, size_t> placement;
  uint64_t trip_latency_us = 0;
  /// Rounds run before the timed window (caches, plans, indexes warm).
  size_t warmup_rounds = 2;
};

class Workload {
 public:
  virtual ~Workload() = default;
  const WorkloadSpec& spec() const { return spec_; }
  /// Round `index` of this seed; a pure function of (seed, index).
  virtual Round MakeRound(uint64_t index) const = 0;

 protected:
  explicit Workload(uint64_t seed) : seed_(seed) {}
  /// Generator for round `index`, independent of every other round.
  Rng RoundRng(uint64_t index) const {
    return Rng(seed_ * 0x9E3779B97F4A7C15ULL + index * 0xD1B54A32D192ED03ULL +
               0x243F6A8885A308D3ULL);
  }
  uint64_t seed_;
  WorkloadSpec spec_;
};

/// The workload names MakeWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Null when `name` is not a known workload.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace ccpi::perfbench

#endif  // CCPI_PERFBENCH_WORKLOADS_H_
