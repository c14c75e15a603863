// Distributed inventory: the paper's motivating scenario. A warehouse site
// owns the `reserved` relation (local); the orders database (`order`) lives
// at headquarters (remote, expensive to read). The global constraint says
// no order quantity may fall inside a reserved range for its product.
//
// The demo runs a stream of reservations through the ConstraintManager and
// shows how many updates each tier resolves and how much simulated access
// cost the local tests save compared to always re-checking remotely.
//
// Build & run:  ./build/examples/distributed_inventory

#include <cstdio>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"
#include "util/rng.h"

using namespace ccpi;  // NOLINT: example brevity

int main() {
  CostModel costs;  // remote round trip = 10, remote tuple = 0.1, local 1e-3
  ConstraintManager mgr({.local_preds = {"reserved"}, .costs = costs});
  (void)mgr.AddConstraint(
      "no-reserved-order",
      *ParseProgram("panic :- reserved(P,Lo,Hi) & order(P,Q) & "
                    "Lo <= Q & Q <= Hi"));

  // Remote orders (populated by the other site) all have quantities in the
  // 500..1000 band.
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    (void)mgr.site().db().Insert(
        "order", {V("prod" + std::to_string(rng.Below(5))),
                  V(rng.Range(500, 1000))});
  }

  // Each product first reserves the whole low band 0..400 — those initial
  // wide reservations genuinely need the remote check. Afterwards the
  // warehouse issues many narrower reservations inside the already-reserved
  // band; the complete local test proves them safe without any remote
  // access. A few straying into the order band trigger full checks (and
  // rejections).
  int applied = 0;
  int rejected = 0;
  auto reserve = [&](const std::string& product, int64_t lo, int64_t hi) {
    auto reports =
        mgr.ApplyUpdate(Update::Insert("reserved", {V(product), V(lo), V(hi)}));
    if (!reports.ok()) {
      std::printf("error: %s\n", reports.status().ToString().c_str());
      std::exit(1);
    }
    bool violated = false;
    for (const CheckReport& r : *reports) {
      violated = violated || r.outcome == Outcome::kViolated;
    }
    (violated ? rejected : applied)++;
  };
  for (int p = 0; p < 5; ++p) {
    reserve("prod" + std::to_string(p), 0, 400);
  }
  for (int i = 0; i < 95; ++i) {
    std::string product = "prod" + std::to_string(rng.Below(5));
    if (rng.Chance(9, 10)) {
      int64_t lo = rng.Range(0, 300);
      reserve(product, lo, lo + rng.Range(0, 100));  // inside the band
    } else {
      int64_t lo = rng.Range(400, 900);
      reserve(product, lo, lo + rng.Range(0, 100));  // risky
    }
  }

  std::printf("reservations applied: %d, rejected (order in range): %d\n\n",
              applied, rejected);
  std::printf("resolution tiers across the stream:\n");
  for (const auto& [tier, count] : mgr.stats().resolved_by) {
    std::printf("  %-14s %zu\n", TierToString(tier), count);
  }
  const AccessStats& access = mgr.stats().access;
  std::printf(
      "\naccess: %zu local tuples, %zu remote tuples in %zu round trips\n",
      access.local_tuples, access.remote_tuples, access.remote_trips);
  std::printf("simulated cost: %.2f (all-remote baseline would pay the\n"
              "remote price for every one of the %d checks)\n",
              access.Cost(costs), applied + rejected);
  return 0;
}
