// Salary audit: the employee-database constraints of Section 2 (Examples
// 2.1–2.3) managed together. Demonstrates constraint registration with
// subsumption, and a mixed insert/delete stream resolved tier by tier.
//
// Build & run:  ./build/examples/salary_audit

#include <cstdio>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"

using namespace ccpi;  // NOLINT: example brevity

int main() {
  ConstraintManager mgr({.local_preds = {"emp", "dept"}});

  // Example 2.1: no employee in both sales and accounting (modeled on the
  // binary assign(E,D) relation so the 3-ary emp keeps salaries).
  (void)mgr.AddConstraint(
      "no-dual", *ParseProgram("panic :- assign(E,sales) & "
                               "assign(E,accounting)"));
  // Example 2.2-style: salaries are positive.
  (void)mgr.AddConstraint("positive-salary",
                          *ParseProgram("panic :- emp(E,D,S) & S < 0"));
  // A cap of 200...
  (void)mgr.AddConstraint("cap-200",
                          *ParseProgram("panic :- emp(E,D,S) & S > 200"));
  // ...makes a cap of 500 redundant: registration detects the subsumption.
  auto redundant = mgr.AddConstraint(
      "cap-500", *ParseProgram("panic :- emp(E,D,S) & S > 500"));
  std::printf("cap-500 registered as redundant: %s\n\n",
              redundant.ok() && *redundant ? "yes" : "no");

  const Update stream[] = {
      Update::Insert("emp", {V("ann"), V("cs"), V(120)}),
      Update::Insert("emp", {V("bob"), V("ee"), V(80)}),
      Update::Insert("emp", {V("carol"), V("cs"), V(250)}),  // breaks cap-200
      Update::Insert("assign", {V("ann"), V("sales")}),
      Update::Insert("assign", {V("ann"), V("accounting")}),  // breaks no-dual
      Update::Delete("emp", {V("bob"), V("ee"), V(80)}),
      Update::Insert("dept", {V("cs")}),
  };
  for (const Update& u : stream) {
    auto reports = mgr.ApplyUpdate(u);
    if (!reports.ok()) {
      std::printf("error: %s\n", reports.status().ToString().c_str());
      return 1;
    }
    std::printf("%-40s", u.ToString().c_str());
    bool rejected = false;
    for (const CheckReport& r : *reports) {
      if (r.outcome == Outcome::kViolated) {
        std::printf(" REJECTED by %s (at %s tier)", r.constraint.c_str(),
                    TierToString(r.tier));
        rejected = true;
      }
    }
    if (!rejected) std::printf(" ok");
    std::printf("\n");
  }

  std::printf("\nresolution tiers:\n");
  for (const auto& [tier, count] : mgr.stats().resolved_by) {
    std::printf("  %-14s %zu\n", TierToString(tier), count);
  }
  std::printf("violations caught: %zu\n", mgr.stats().violations);
  std::printf("final database:\n%s", mgr.site().db().ToString().c_str());
  return 0;
}
