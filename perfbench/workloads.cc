#include "workloads.h"

#include <algorithm>

#include "util/check.h"

namespace ccpi::perfbench {
namespace {

/// Seed of every workload's *shape*: the order of episode kinds in a round
/// and which episodes undo which. --seed draws only the constants, so runs
/// with different seeds are samples of one workload, not different ones.
constexpr uint64_t kShapeSeed = 0x5eed;

std::string Str(const char* prefix, uint64_t a) {
  return prefix + std::to_string(a);
}

/// A fixed interleaving of a round's inserts and the deletes that undo
/// some of them: `kinds` in order, and for each delete the position of the
/// insert it removes. Drawn once per seed, so every round shares it.
struct Pattern {
  struct Step {
    int kind = 0;
    /// For a delete: index into `steps` of the insert it undoes; else -1.
    int undoes = -1;
  };
  std::vector<Step> steps;
};

/// Shuffles `insert_kinds`, then slots a delete of each insert listed in
/// `delete_targets` (indexes into the shuffled order, chosen by
/// `pick_targets`) at a random point after that insert.
template <typename PickTargets>
Pattern Interleave(std::vector<int> insert_kinds, int delete_kind, Rng* rng,
                   PickTargets pick_targets) {
  for (size_t i = insert_kinds.size(); i > 1; --i) {
    std::swap(insert_kinds[i - 1], insert_kinds[rng->Below(i)]);
  }
  std::vector<size_t> targets = pick_targets(insert_kinds);
  // Sort key: insert i sits at 4i; its delete lands strictly later.
  struct Slot {
    uint64_t key;
    int kind;
    int target;  // insert index for deletes, -1 otherwise
  };
  std::vector<Slot> slots;
  const uint64_t n = insert_kinds.size();
  for (uint64_t i = 0; i < n; ++i) {
    slots.push_back({4 * i, insert_kinds[i], -1});
  }
  for (size_t t : targets) {
    uint64_t later = 4 * t + 2 + 4 * rng->Below(n - t);
    slots.push_back({later, delete_kind, static_cast<int>(t)});
  }
  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slot& a, const Slot& b) { return a.key < b.key; });
  Pattern p;
  std::vector<int> position_of_insert(n, -1);
  for (const Slot& s : slots) {
    Pattern::Step step;
    step.kind = s.kind;
    if (s.target >= 0) {
      step.undoes = position_of_insert[s.target];
      CCPI_CHECK(step.undoes >= 0);
    } else {
      position_of_insert[s.key / 4] = static_cast<int>(p.steps.size());
    }
    p.steps.push_back(step);
  }
  return p;
}

/// Distinct sample of `count` values from [0, n).
std::vector<size_t> Sample(Rng* rng, size_t n, size_t count) {
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  for (size_t i = 0; i < count; ++i) {
    std::swap(all[i], all[i + rng->Below(n - i)]);
  }
  all.resize(count);
  return all;
}

/// Turns a pattern into a round: `make_insert(kind, rng)` draws the
/// insert of each insert step; deletes undo their insert; every applied
/// insert not deleted within the round is erased by the reset.
template <typename MakeInsert>
Round Realize(const Pattern& pattern, Rng* rng, MakeInsert make_insert) {
  Round round;
  std::vector<bool> undone(pattern.steps.size(), false);
  for (const Pattern::Step& step : pattern.steps) {
    if (step.undoes >= 0) {
      const Op& ins = round.ops[step.undoes];
      CCPI_CHECK(ins.expect_applied);
      round.ops.push_back(
          {Update::Delete(ins.update.pred, ins.update.tuple), true});
      undone[step.undoes] = true;
    } else {
      round.ops.push_back(make_insert(step.kind, rng));
    }
  }
  for (size_t i = 0; i < round.ops.size(); ++i) {
    const Op& op = round.ops[i];
    if (op.update.kind == Update::Kind::kInsert && op.expect_applied &&
        !undone[i]) {
      round.reset.push_back({false, op.update.pred, op.update.tuple});
    }
  }
  return round;
}

// ---------------------------------------------------------------------------
// local-intervals: the Section 6 keyed forbidden-interval constraint over a
// local `reserved` (inventory.ccpi shape), a local-only range check, and an
// arithmetic-free join settled by the Theorem 5.3 RA test. (The join has
// two remote variables, From and To, which keeps the Fig 6.1 interval test,
// tried first, from claiming it.)
//
// Product p has kSlots slots; slot j owns the base reservation
// [1000j, 1000j+500] and remote orders at 1000j+700 and 1000j+900, so:
//   - a sub-range of [1000j, 1000j+500] is covered by the base: the Fig 6.1
//     test proves it safe (tier 2);
//   - [1000j+601.., ..693] is covered by nothing but meets no order: tier 3
//     holds;
//   - [1000j+660.., ..760] meets the order at 700: tier 3 violates;
//   - order(p, 1000j+850) meets no reservation: a remote insert that holds
//     and, with its later delete, moves the order relation's version so the
//     next tier-3 checks pay one trip each.
class LocalIntervals : public Workload {
 public:
  enum Kind { kSubRange, kShipReuse, kTier3Holds, kTier3Violates, kOrder,
              kDelete };
  static constexpr int kProducts = 40;
  static constexpr int kSlots = 10;
  static constexpr int kSeedSubRanges = 4;  // per slot
  static constexpr int kWarehouses = 40;
  static constexpr int kSeedShips = 400;

  explicit LocalIntervals(uint64_t seed) : Workload(seed) {
    spec_.name = "local-intervals";
    spec_.local_preds = {"reserved", "ship"};
    spec_.constraints = {
        {"no-reserved-order",
         "panic :- reserved(P,Lo,Hi) & order(P,Q) & Lo <= Q & Q <= Hi"},
        {"sane-range", "panic :- reserved(P,Lo,Hi) & Hi < Lo"},
        {"no-closed-ship", "panic :- ship(P,W) & closed(W,From,To)"},
    };
    spec_.trip_latency_us = 200;
    Rng rng(seed);
    for (int p = 0; p < kProducts; ++p) {
      for (int j = 0; j < kSlots; ++j) {
        int64_t base = 1000 * j;
        spec_.seed_facts.push_back(
            {"reserved", {V(Str("p", p)), V(base), V(base + 500)}});
        spec_.seed_facts.push_back({"order", {V(Str("p", p)), V(base + 700)}});
        spec_.seed_facts.push_back({"order", {V(Str("p", p)), V(base + 900)}});
        // Even-offset sub-ranges; round inserts use odd offsets, so they
        // never collide with seed rows.
        std::set<std::pair<int64_t, int64_t>> seen;
        while (seen.size() < kSeedSubRanges) {
          int64_t lo = 2 * rng.Range(1, 220);
          int64_t hi = lo + 2 * rng.Range(1, (500 - lo) / 2);
          if (seen.insert({lo, hi}).second) {
            spec_.seed_facts.push_back(
                {"reserved", {V(Str("p", p)), V(base + lo), V(base + hi)}});
          }
        }
      }
    }
    for (int i = 0; i < kSeedShips; ++i) {
      spec_.seed_facts.push_back(
          {"ship", {V(Str("s", i)), V(Str("w", i % kWarehouses))}});
    }
    for (int c = 0; c < 20; ++c) {
      spec_.seed_facts.push_back({"closed", {V(Str("c", c)), V(c), V(c + 7)}});
    }

    // 100 episodes a round: 60 sub-range inserts, 15 ship inserts, 5
    // tier-3 inserts (2 hold, 2 violate, 1 remote order), 20 deletes. The
    // order insert is always among the deleted ones (the remote relation
    // must not grow); the rest of the deletes pick applied local inserts.
    std::vector<int> kinds;
    kinds.insert(kinds.end(), 60, kSubRange);
    kinds.insert(kinds.end(), 15, kShipReuse);
    kinds.insert(kinds.end(), 2, kTier3Holds);
    kinds.insert(kinds.end(), 2, kTier3Violates);
    kinds.push_back(kOrder);
    Rng shape(kShapeSeed);
    pattern_ = Interleave(kinds, kDelete, &shape, [&](const std::vector<int>& k) {
      std::vector<size_t> local;
      std::vector<size_t> targets;
      for (size_t i = 0; i < k.size(); ++i) {
        if (k[i] == kOrder) targets.push_back(i);
        if (k[i] != kOrder && k[i] != kTier3Violates) local.push_back(i);
      }
      for (size_t s : Sample(&shape, local.size(), 19)) {
        targets.push_back(local[s]);
      }
      return targets;
    });
  }

  Round MakeRound(uint64_t index) const override {
    Rng rng = RoundRng(index);
    std::set<Tuple> used;  // reserved rows drawn this round
    std::set<std::pair<int64_t, int64_t>> gap_slots;  // (p, j) in the gap
    int ship_serial = 0;
    // A reserved row of slot-relative range [lo, hi] drawn by `offsets`,
    // unique within the round; with `own_gap_slot`, no other such row of
    // this round shares its (p, j), so none can cover another.
    auto fresh_reserved = [&](auto offsets, bool own_gap_slot) {
      while (true) {
        int64_t p = rng.Range(0, kProducts - 1);
        int64_t j = rng.Range(0, kSlots - 1);
        auto [lo, hi] = offsets();
        if (own_gap_slot && gap_slots.count({p, j}) > 0) continue;
        Tuple t{V(Str("p", p)), V(1000 * j + lo), V(1000 * j + hi)};
        if (!used.insert(t).second) continue;
        if (own_gap_slot) gap_slots.insert({p, j});
        return t;
      }
    };
    return Realize(pattern_, &rng, [&](int kind, Rng* r) -> Op {
      switch (kind) {
        case kSubRange:
          // Odd lo in [1, 441], odd hi in (lo, 500): inside the base.
          return {Update::Insert("reserved", fresh_reserved([&] {
                                   int64_t lo = 1 + 2 * r->Range(0, 220);
                                   int64_t len =
                                       2 * r->Range(1, (500 - lo) / 2);
                                   return std::pair{lo, lo + len};
                                 }, false)),
                  true};
        case kShipReuse: {
          Tuple t{V("x" + std::to_string(index) + "_" +
                    std::to_string(ship_serial++)),
                  V(Str("w", r->Range(0, kWarehouses - 1)))};
          return {Update::Insert("ship", t), true};
        }
        case kTier3Holds:
          // [601..641, 651..691]: outside every reservation, below the
          // order at 700.
          return {Update::Insert("reserved", fresh_reserved([&] {
                                   int64_t lo = 601 + 2 * r->Range(0, 20);
                                   return std::pair{lo, lo + 50};
                                 }, true)),
                  true};
        case kTier3Violates:
          // [661..681, 761..781]: overlaps the order at 700.
          return {Update::Insert("reserved", fresh_reserved([&] {
                                   int64_t lo = 661 + 2 * r->Range(0, 10);
                                   return std::pair{lo, lo + 100};
                                 }, false)),
                  false};
        case kOrder: {
          Tuple t{V(Str("p", r->Range(0, kProducts - 1))),
                  V(1000 * r->Range(0, kSlots - 1) + 850)};
          return {Update::Insert("order", t), true};
        }
      }
      CCPI_CHECK(false);
      return {};
    });
  }

 private:
  Pattern pattern_;
};

// ---------------------------------------------------------------------------
// remote-recheck: the low-conflict re-check stream with remote churn (the
// bench_episode_pipeline PIPE-1 shape). K join constraints
// `panic :- l<k>(X) & r<k>(X)`; a block of K remote deletes (one row out of
// each r<k>) precedes a block of K local inserts, so every insert's tier-3
// re-check finds its r<k> at a new version and pays one cold trip. A seeded
// share of the inserts repeat a row of r<k> and violate. The reset puts the
// deleted remote rows back (the remote site's own writes, which this site
// does not check).
class RemoteRecheck : public Workload {
 public:
  static constexpr int kConstraints = 8;
  static constexpr int kRemoteRows = 64;
  static constexpr int kLocalRows = 32;
  static constexpr int kBlocks = 2;
  static constexpr int kViolatingPerBlock = 3;

  explicit RemoteRecheck(uint64_t seed) : Workload(seed) {
    spec_.name = "remote-recheck";
    for (int k = 0; k < kConstraints; ++k) {
      std::string ks = std::to_string(k);
      spec_.local_preds.insert("l" + ks);
      spec_.constraints.push_back(
          {"join" + ks, "panic :- l" + ks + "(X) & r" + ks + "(X)"});
      for (int v = 0; v < kRemoteRows; ++v) {
        spec_.seed_facts.push_back({"r" + ks, {V(v)}});
      }
      for (int v = 0; v < kLocalRows; ++v) {
        spec_.seed_facts.push_back({"l" + ks, {V(1000 + v)}});
      }
    }
    // One checker lane. With worker threads, the pipeline can free a
    // retired episode while its speculation thread is still signalling the
    // episode's condition variable (SpeculateEpisode notifies after
    // unlocking); ThreadSanitizer reports it, and it crashed about one
    // 20-second run in thirty. On a one-lane pool speculation runs inline
    // at admission: the same pipeline machinery, race-free, but the trips
    // no longer overlap.
    spec_.threads = 1;
    spec_.depth = 4;
    spec_.trip_latency_us = 400;
    spec_.warmup_rounds = 30;
    Rng shape(kShapeSeed);
    for (int b = 0; b < kBlocks; ++b) {
      std::vector<bool> v(kConstraints, false);
      for (size_t k : Sample(&shape, kConstraints, kViolatingPerBlock)) {
        v[k] = true;
      }
      violating_.push_back(v);
    }
  }

  Round MakeRound(uint64_t index) const override {
    Rng rng = RoundRng(index);
    Round round;
    std::vector<Op> cleanup;
    // Remote rows of each r<k> deleted so far this round.
    std::vector<std::set<int64_t>> gone(kConstraints);
    for (int b = 0; b < kBlocks; ++b) {
      for (int k = 0; k < kConstraints; ++k) {
        int64_t row;
        do {
          row = static_cast<int64_t>(rng.Below(kRemoteRows));
        } while (!gone[k].insert(row).second);
        std::string r = "r" + std::to_string(k);
        round.ops.push_back({Update::Delete(r, {V(row)}), true});
        round.reset.push_back({true, r, {V(row)}});
      }
      for (int k = 0; k < kConstraints; ++k) {
        std::string l = "l" + std::to_string(k);
        if (violating_[b][k]) {
          // A row r<k> still holds.
          int64_t hit;
          do {
            hit = static_cast<int64_t>(rng.Below(kRemoteRows));
          } while (gone[k].count(hit) > 0);
          round.ops.push_back({Update::Insert(l, {V(hit)}), false});
        } else {
          Tuple t{V(static_cast<int64_t>(100000 + index * 64 + b * 16 + k))};
          round.ops.push_back({Update::Insert(l, t), true});
          cleanup.push_back({Update::Delete(l, t), true});
        }
      }
    }
    round.ops.insert(round.ops.end(), cleanup.begin(), cleanup.end());
    return round;
  }

 private:
  std::vector<std::vector<bool>> violating_;
};

// ---------------------------------------------------------------------------
// recursive-closure: the overload.ccpi shape. A recursive `path` over
// remote `edge` chains on site 0 and `blocked` on site 1; every `request`
// insert or delete forces a full tier-3 fixpoint of it (HoldsAfterUpdate
// cannot decide a recursive constraint, so even deletes reach tier 3). A
// second, non-recursive constraint keeps requests off blocked nodes: its
// deletes settle at tier 1, and requests from an already-requested entry
// node settle at tier 2 (Theorem 5.3). A side chain leads to a blocked
// node, so requests placed on it violate. Each round rewires one
// (seed-chosen) chain edge to a later node and back: two remote inserts
// checked at tier 3, each moving edge's version so that the next check's
// batched prefetch pays one trip to site 0.
class RecursiveClosure : public Workload {
 public:
  enum Kind { kRequestHolds, kRequestViolates, kDelete };
  static constexpr int kChains = 16;
  static constexpr int kChainLength = 10;
  static constexpr int kSideLength = 4;
  static constexpr int kEntries = 10;

  explicit RecursiveClosure(uint64_t seed) : Workload(seed) {
    spec_.name = "recursive-closure";
    spec_.local_preds = {"request"};
    spec_.constraints = {
        {"no-path-to-blocked",
         "path(X,Y) :- edge(X,Y)\n"
         "path(X,Y) :- edge(X,Z) & path(Z,Y)\n"
         "panic :- request(U,N) & path(N,M) & blocked(M)"},
        {"no-blocked-start", "panic :- request(U,N) & blocked(N)"},
    };
    spec_.sites = 2;
    spec_.placement = {{"edge", 0}, {"blocked", 1}};
    spec_.trip_latency_us = 200;
    for (int c = 0; c < kChains; ++c) {
      for (int i = 0; i + 1 < kChainLength; ++i) {
        spec_.seed_facts.push_back({"edge", {V(Node(c, i)), V(Node(c, i + 1))}});
      }
    }
    for (int i = 0; i + 1 < kSideLength; ++i) {
      spec_.seed_facts.push_back({"edge", {V(Side(i)), V(Side(i + 1))}});
    }
    spec_.seed_facts.push_back({"edge", {V(Side(kSideLength - 1)), V("zb")}});
    spec_.seed_facts.push_back({"blocked", {V("zb")}});
    spec_.seed_facts.push_back({"blocked", {V("zz")}});
    Rng rng(seed);
    for (size_t n : Sample(&rng, kChains * kChainLength, kEntries)) {
      entries_.push_back(Node(n / kChainLength, n % kChainLength));
      spec_.seed_facts.push_back(
          {"request", {V(Str("u", entries_.size())), V(entries_.back())}});
    }
    Rng shape(kShapeSeed);
    rewire_chain_ = static_cast<int>(shape.Below(kChains));
    rewire_from_ = static_cast<int>(shape.Range(0, kChainLength / 2));
    rewire_to_ =
        static_cast<int>(shape.Range(rewire_from_ + 2, kChainLength - 1));
    // 18 request inserts (2 violate) and 5 deletes of applied ones a round.
    std::vector<int> kinds;
    kinds.insert(kinds.end(), 16, kRequestHolds);
    kinds.insert(kinds.end(), 2, kRequestViolates);
    pattern_ = Interleave(kinds, kDelete, &shape, [&](const std::vector<int>& k) {
      std::vector<size_t> applied;
      for (size_t i = 0; i < k.size(); ++i) {
        if (k[i] == kRequestHolds) applied.push_back(i);
      }
      std::vector<size_t> targets;
      for (size_t s : Sample(&shape, applied.size(), 5)) {
        targets.push_back(applied[s]);
      }
      return targets;
    });
    rewire_at_ = shape.Below(pattern_.steps.size() / 2);
  }

  Round MakeRound(uint64_t index) const override {
    Rng rng = RoundRng(index);
    int serial = 0;
    Round round = Realize(pattern_, &rng, [&](int kind, Rng* r) -> Op {
      std::string user = "q" + std::to_string(index) + "_" +
                         std::to_string(serial++);
      if (kind == kRequestViolates) {
        return {Update::Insert("request",
                               {V(user), V(Side(r->Below(kSideLength)))}),
                false};
      }
      return {Update::Insert("request",
                             {V(user), V(entries_[r->Below(kEntries)])}),
              true};
    });
    // Rewire from -> from+1 into from -> to and back, mid-round.
    Tuple old_edge{V(Node(rewire_chain_, rewire_from_)),
                   V(Node(rewire_chain_, rewire_from_ + 1))};
    Tuple new_edge{V(Node(rewire_chain_, rewire_from_)),
                   V(Node(rewire_chain_, rewire_to_))};
    std::vector<Op> rewire = {
        {Update::Delete("edge", old_edge), true},
        {Update::Insert("edge", new_edge), true},
        {Update::Delete("edge", new_edge), true},
        {Update::Insert("edge", old_edge), true},
    };
    round.ops.insert(round.ops.begin() + static_cast<long>(rewire_at_),
                     rewire.begin(), rewire.begin() + 2);
    round.ops.insert(round.ops.begin() + static_cast<long>(rewire_at_) + 8,
                     rewire.begin() + 2, rewire.end());
    return round;
  }

 private:
  static std::string Node(uint64_t chain, uint64_t i) {
    return "c" + std::to_string(chain) + "_" + std::to_string(i);
  }
  static std::string Side(uint64_t i) { return "s" + std::to_string(i); }

  std::vector<std::string> entries_;
  Pattern pattern_;
  int rewire_chain_ = 0;
  int rewire_from_ = 0;
  int rewire_to_ = 0;
  size_t rewire_at_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "local-intervals", "remote-recheck", "recursive-closure"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "local-intervals") return std::make_unique<LocalIntervals>(seed);
  if (name == "remote-recheck") return std::make_unique<RemoteRecheck>(seed);
  if (name == "recursive-closure") {
    return std::make_unique<RecursiveClosure>(seed);
  }
  return nullptr;
}

}  // namespace ccpi::perfbench
