// Correlated failure domains, per-site latency models, and hedged remote
// reads. The robustness properties of ISSUE 10: a domain-level outage
// darkens every member site together (and each member is caught up
// independently on recovery); latency draws are deterministic per seed
// with the fixed model consuming no randomness at all; hedged batched
// reads obey the exact billing rules (issued == won + wasted, one extra
// physical trip per issued hedge, tuples counted once); and the
// latency-aware shed refuses a doomed trip *before* paying for it.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <string>

#include "datalog/parser.h"
#include "distsim/cost_model.h"
#include "distsim/fault_injector.h"
#include "distsim/site_db.h"
#include "distsim/topology.h"
#include "manager/constraint_manager.h"
#include "manager/script.h"
#include "util/thread_pool.h"

namespace ccpi {
namespace {

Program MustParse(const char* text) {
  auto p = ParseProgram(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return *p;
}

TEST(FailureDomainTest, ExpandDomainOutagesCopiesWindowsToEveryMember) {
  TopologyConfig config;
  config.sites = 4;
  FailureDomain rack;
  rack.name = "rack";
  rack.members = {1, 3};
  rack.outages.push_back(OutageWindow{2, 7});
  rack.outages.push_back(OutageWindow{9, 12});
  config.domains.push_back(rack);
  std::vector<std::vector<OutageWindow>> expanded =
      ExpandDomainOutages(config);
  ASSERT_EQ(expanded.size(), 4u);
  EXPECT_TRUE(expanded[0].empty());
  EXPECT_TRUE(expanded[2].empty());
  for (size_t member : {size_t{1}, size_t{3}}) {
    ASSERT_EQ(expanded[member].size(), 2u) << "site " << member;
    EXPECT_EQ(expanded[member][0].begin, 2u);
    EXPECT_EQ(expanded[member][0].end, 7u);
    EXPECT_EQ(expanded[member][1].begin, 9u);
    EXPECT_EQ(expanded[member][1].end, 12u);
  }
}

constexpr const char kDomainScript[] =
    "local l lx\n"
    "sites 3\n"
    "site 0 r1\n"
    "site 1 r2\n"
    "site 2 r3\n"
    "constraint a\n"
    "panic :- l(X,Y) & r1(Z) & X <= Z & Z <= Y\n"
    "constraint b\n"
    "panic :- l(X,Y) & r2(Z) & X <= Z & Z <= Y\n"
    "constraint c\n"
    "panic :- lx(X) & r3(X)\n"
    "fact r1(1000)\n"
    "fact r2(1000)\n"
    "fact r3(5)\n"
    "insert l(1, 5)\n"
    "insert l(6, 9)\n"
    "insert l(11, 14)\n"
    "insert lx(1)\n";

ResilienceConfig DomainResilience() {
  ResilienceConfig resilience;
  resilience.retry.max_attempts = 1;
  resilience.breaker.failure_threshold = 2;
  resilience.breaker.cooldown_ticks = 2;
  return resilience;
}

// The tentpole recovery property: a whole domain dark defers every check
// that touches a member site while the healthy site's checks complete,
// and once the window passes, catch-up recovery fires once per member.
TEST(FailureDomainTest, WholeDomainDarkDefersEveryMemberSiteCheck) {
  auto script = ParseScript(std::string(kDomainScript) +
                            "domain rackA 0 1\n"
                            "domain_outage rackA 0 2\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ScriptOptions& options = script->options;
  options.manager.resilience = DomainResilience();
  // No --fault-* flags: the domain window alone must arm injection.
  ASSERT_FALSE(options.enable_faults);
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every l update fans out to both member sites and both defer; the
  // lx update only touches the healthy site 2 and applies cleanly.
  EXPECT_EQ(report->updates_deferred, 3u);
  EXPECT_NE(report->log_text.find("DEFER  +l(1, 5) deferred:a deferred:b"),
            std::string::npos)
      << report->log_text;
  EXPECT_NE(report->log_text.find("apply  +lx(1)"), std::string::npos);
  // The shutdown drain lands past the window: everything recovers, and
  // the dark->closed breaker edge fires exactly once per member site.
  EXPECT_EQ(report->deferred_pending, 0u);
  EXPECT_EQ(report->stats.deferred_recovered, 6u);
  EXPECT_EQ(report->stats.deferred_violations, 0u);
  EXPECT_EQ(report->stats.sites_recovered, 2u);
}

// A domain window is sugar for the same window on every member site: the
// expanded run must be byte-identical to one configured member-by-member
// with --site-fault-outage.
TEST(FailureDomainTest, DomainOutageEqualsManualPerSiteWindows) {
  auto domain_script = ParseScript(std::string(kDomainScript) +
                                   "domain rackA 0 1\n"
                                   "domain_outage rackA 0 2\n");
  ASSERT_TRUE(domain_script.ok());
  auto plain_script = ParseScript(kDomainScript);
  ASSERT_TRUE(plain_script.ok());

  for (ScriptOptions* options :
       {&domain_script->options, &plain_script->options}) {
    options->manager.resilience = DomainResilience();
    options->print_stats = true;
  }
  ScriptOptions& manual_options = plain_script->options;
  manual_options.enable_faults = true;
  manual_options.site_faults[0].outages.push_back(OutageWindow{0, 2});
  manual_options.site_faults[1].outages.push_back(OutageWindow{0, 2});

  auto domain_report = RunScript(*domain_script);
  auto manual_report = RunScript(*plain_script);
  ASSERT_TRUE(domain_report.ok()) << domain_report.status().ToString();
  ASSERT_TRUE(manual_report.ok()) << manual_report.status().ToString();
  EXPECT_EQ(domain_report->text, manual_report->text);
  EXPECT_EQ(domain_report->stats.sites_recovered,
            manual_report->stats.sites_recovered);
}

TEST(FailureDomainTest, LatencyDrawsAreDeterministicAndBounded) {
  auto run = []() {
    TopologyConfig config;
    config.sites = 2;
    config.placement["a"] = 0;
    SiteDatabase site({"l"}, config);
    CostModel costs;
    costs.latency_model = LatencyModel::kUniform;
    costs.latency_lo_us = 1;
    costs.latency_hi_us = 3;
    costs.latency_seed = 7;
    site.set_site_cost_model(0, costs);
    for (int i = 0; i < 16; ++i) {
      // A fresh row moves a's version, so every read is a physical trip.
      EXPECT_TRUE(site.db().Insert("a", {V(i)}).ok());
      EXPECT_TRUE(site.ReadRemote("a", 1).ok());
    }
    return site.site_latency_ewma_us(0);
  };
  uint64_t ewma = run();
  // Every draw lands in [lo, hi], so the EWMA must too.
  EXPECT_GE(ewma, 1u);
  EXPECT_LE(ewma, 3u);
  // Same seed, fresh instance: the draw sequence (hence the EWMA) is
  // reproduced exactly.
  EXPECT_EQ(ewma, run());
  // Site 1 never took a trip; its EWMA stays at the no-observation 0.
  TopologyConfig config;
  config.sites = 2;
  SiteDatabase site({"l"}, config);
  EXPECT_EQ(site.site_latency_ewma_us(1), 0u);
}

// The default-config guard at the distsim layer: the fixed model consumes
// no latency randomness, so trips leave the EWMA untouched at 0.
TEST(FailureDomainTest, FixedModelConsumesNoLatencyDraws) {
  SiteDatabase site({"l"});
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(site.db().Insert("a", {V(i)}).ok());  // a cold read
    EXPECT_TRUE(site.ReadRemote("a", 1).ok());
  }
  EXPECT_EQ(site.stats().remote_trips, 8u);
  EXPECT_EQ(site.site_latency_ewma_us(0), 0u);
}

TEST(FailureDomainTest, HedgeIdentityAndTripBillingAreExact) {
  auto run = []() {
    TopologyConfig config;
    config.sites = 1;
    SiteDatabase site({"l"}, config);
    CostModel costs;
    costs.latency_model = LatencyModel::kTwoPoint;
    costs.latency_lo_us = 1;
    costs.latency_hi_us = 40;
    costs.latency_slow_share = 0.4;
    costs.latency_seed = 9;
    site.set_site_cost_model(0, costs);
    site.set_hedge(1);
    ThreadPool pool(2);
    size_t logical_trips = 0;
    for (int i = 0; i < 24; ++i) {
      std::string pred = "r" + std::to_string(i);
      EXPECT_TRUE(site.db().Insert(pred, {V(i)}).ok());
      site.PrefetchRemoteBatched({pred}, &pool);
      ++logical_trips;
    }
    auto hedges = [&site](const char* what) {
      return site.metrics().GetCounter(std::string("manager.hedge.") + what)
          ->value();
    };
    // issued, won, wasted
    const std::array<uint64_t, 3> counts = {hedges("issued"), hedges("won"),
                                            hedges("wasted")};
    // The billing rules, exactly: every issued hedge either won or
    // wasted, and cost one extra physical trip; tuples were fetched once
    // per logical read regardless.
    EXPECT_EQ(counts[0], counts[1] + counts[2]);
    EXPECT_EQ(site.stats().remote_trips, logical_trips + counts[0]);
    EXPECT_EQ(site.stats().remote_tuples, logical_trips);
    return counts;
  };
  const std::array<uint64_t, 3> first = run();
  // A 40% slow share past 1x EWMA must actually hedge on this schedule.
  EXPECT_GT(first[0], 0u);
  EXPECT_EQ(first, run());
}

// Latency-aware degradation extends refuse-before-pay: once the site's
// EWMA says the trip cannot finish inside the remaining episode budget,
// the check is shed to kDeferred without paying the trip.
TEST(FailureDomainTest, LatencyShedRefusesBeforePayingTheTrip) {
  CostModel costs;
  costs.latency_model = LatencyModel::kUniform;
  costs.latency_lo_us = 20000;  // every trip simulates 20ms
  costs.latency_hi_us = 20000;
  auto make = [&](uint64_t deadline_ms) {
    BudgetConfig budget;
    budget.per_episode.deadline_ms = deadline_ms;
    auto mgr = std::make_unique<ConstraintManager>(ManagerConfig{
        .local_preds = {"l"}, .costs = costs, .budget = budget});
    EXPECT_TRUE(mgr->AddConstraint(
                       "fi", MustParse(
                                 "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y"))
                    .ok());
    EXPECT_TRUE(mgr->site().db().Insert("r", {V(1000)}).ok());
    return mgr;
  };

  // No EWMA yet: the trip is tried. Under a roomy deadline the first
  // episode's prefetch pays it, the manager learns the latency, and the
  // check completes at tier 3.
  {
    auto mgr = make(10000);
    auto reports = mgr->ApplyUpdate(Update::Insert("l", {V(1), V(3)}));
    ASSERT_TRUE(reports.ok()) << reports.status().ToString();
    EXPECT_GE(mgr->site().site_latency_ewma_us(0), 15000u);
    EXPECT_GE(mgr->stats().access.remote_trips, 1u);
    EXPECT_EQ(mgr->stats().latency_shed, 0u);
    EXPECT_EQ(mgr->stats().resolved_by[Tier::kFullCheck], 1u);
  }

  // Learned latency: the trip is paid outside any episode, so no deadline
  // can refuse it before the EWMA exists. The episode then projects 20ms
  // against its 5ms deadline and sheds through the kResourceExhausted path
  // without paying another trip.
  auto mgr = make(5);
  mgr->site().PrefetchRemoteBatched({"r"}, nullptr);
  ASSERT_GE(mgr->site().site_latency_ewma_us(0), 15000u);
  size_t trips_before = mgr->stats().access.remote_trips;
  ASSERT_GE(trips_before, 1u);
  auto reports = mgr->ApplyUpdate(Update::Insert("l", {V(10), V(13)}));
  ASSERT_TRUE(reports.ok()) << reports.status().ToString();
  bool shed_seen = false;
  for (const CheckReport& r : *reports) {
    if (r.constraint != "fi") continue;
    EXPECT_EQ(r.outcome, Outcome::kDeferred);
    EXPECT_EQ(r.reason, StatusCode::kResourceExhausted);
    shed_seen = true;
  }
  EXPECT_TRUE(shed_seen);
  ManagerStats stats = mgr->stats();
  EXPECT_GE(stats.latency_shed, 1u);
  // The labeled counter is a subset of the budget shed total, and the
  // refused episode paid no trip.
  EXPECT_GE(stats.shed_checks, stats.latency_shed);
  EXPECT_EQ(stats.access.remote_trips, trips_before);
}

// Hedging is a latency optimization, not a semantic change: the per-update
// log is byte-identical hedged or not; only the trip accounting and the
// hedge counters move.
TEST(FailureDomainTest, HedgingIsSemanticallyInvisibleOnTheLog) {
  // Two sites: hedging lives in the batched multi-site prefetch, and the
  // stock churn forces a fresh trip per episode so the EWMA has draws to
  // overshoot.
  const char* text =
      "local reserved\n"
      "sites 2\n"
      "site 0 stock\n"
      "constraint stock\n"
      "panic :- reserved(I,N) & not stock(I,N)\n"
      "fact stock(a, 1)\n"
      "insert reserved(a, 1)\n"
      "insert stock(b, 1)\n"
      "insert reserved(b, 1)\n"
      "insert stock(c, 1)\n"
      "insert reserved(c, 1)\n"
      "insert stock(d, 1)\n"
      "insert reserved(d, 1)\n"
      "insert stock(e, 1)\n"
      "insert reserved(e, 1)\n"
      "insert stock(f, 1)\n"
      "insert reserved(f, 1)\n"
      "insert stock(g, 1)\n"
      "insert reserved(g, 1)\n";
  auto script = ParseScript(text);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ScriptOptions& options = script->options;
  SiteLatencyOverride skewed;
  skewed.model = LatencyModel::kTwoPoint;
  skewed.lo_us = 1;
  skewed.hi_us = 50;
  skewed.slow_share = 0.4;
  options.manager.topology.site_latency[0] = skewed;

  auto unhedged = RunScript(*script);
  options.manager.remote_cache.hedge_after = 1;
  auto hedged = RunScript(*script);
  ASSERT_TRUE(unhedged.ok()) << unhedged.status().ToString();
  ASSERT_TRUE(hedged.ok()) << hedged.status().ToString();

  EXPECT_EQ(unhedged->log_text, hedged->log_text);
  EXPECT_EQ(unhedged->stats.violations, hedged->stats.violations);
  EXPECT_EQ(unhedged->updates_applied, hedged->updates_applied);
  EXPECT_EQ(unhedged->stats.hedges_issued, 0u);
  EXPECT_GT(hedged->stats.hedges_issued, 0u);
  EXPECT_EQ(hedged->stats.hedges_issued,
            hedged->stats.hedges_won + hedged->stats.hedges_wasted);
}

}  // namespace
}  // namespace ccpi
