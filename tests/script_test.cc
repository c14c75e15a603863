#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <string>

#include "manager/script.h"

namespace ccpi {
namespace {

/// Applies one flag expecting success, returning whether it was matched.
bool ApplyOk(std::string_view arg, ScriptOptions* options) {
  bool matched = false;
  Status st = ApplyScriptFlag(arg, options, &matched);
  EXPECT_TRUE(st.ok()) << arg << ": " << st.ToString();
  return matched;
}

/// Applies one flag expecting a usage error that names the flag.
void ExpectBadFlag(std::string_view arg, std::string_view flag_name) {
  ScriptOptions options;
  bool matched = false;
  Status st = ApplyScriptFlag(arg, &options, &matched);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << arg;
  EXPECT_NE(st.message().find(flag_name), std::string::npos)
      << "error for " << arg << " does not name the flag: " << st.message();
}

TEST(ScriptParseTest, FullWorkload) {
  auto script = ParseScript(
      "# a comment\n"
      "local reserved emp\n"
      "constraint no-overlap\n"
      "panic :- reserved(P,Lo,Hi) & order(P,Q) & Lo <= Q & Q <= Hi\n"
      "constraint sane\n"
      "panic :- reserved(P,Lo,Hi) & Hi < Lo\n"
      "fact order(widget, 700)\n"
      "insert reserved(widget, 0, 400)\n"
      "delete reserved(widget, 0, 400)\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->local_preds,
            (std::set<std::string>{"reserved", "emp"}));
  ASSERT_EQ(script->constraints.size(), 2u);
  EXPECT_EQ(script->constraints[0].first, "no-overlap");
  EXPECT_EQ(script->constraints[1].first, "sane");
  EXPECT_TRUE(script->initial.Contains("order", {V("widget"), V(700)}));
  ASSERT_EQ(script->updates.size(), 2u);
  EXPECT_EQ(script->updates[0].kind, Update::Kind::kInsert);
  EXPECT_EQ(script->updates[1].kind, Update::Kind::kDelete);
}

TEST(ScriptParseTest, MultiLineRule) {
  auto script = ParseScript(
      "constraint c\n"
      "panic :- reserved(P,Lo,Hi) &\n"
      "         order(P,Q) &\n"
      "         Lo <= Q & Q <= Hi\n"
      "insert reserved(a, 1, 2)\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->constraints.size(), 1u);
  EXPECT_EQ(script->constraints[0].second.rules[0].body.size(), 4u);
  EXPECT_EQ(script->updates.size(), 1u);
}

TEST(ScriptParseTest, MultipleRulesPerConstraint) {
  auto script = ParseScript(
      "constraint range\n"
      "panic :- emp(E,D,S) & salRange(D,Lo,Hi) & S < Lo\n"
      "panic :- emp(E,D,S) & salRange(D,Lo,Hi) & S > Hi\n");
  ASSERT_TRUE(script.ok());
  EXPECT_EQ(script->constraints[0].second.rules.size(), 2u);
}

TEST(ScriptParseTest, Errors) {
  EXPECT_FALSE(ParseScript("panic :- p(X)\n").ok());  // rule outside block
  EXPECT_FALSE(ParseScript("constraint\n").ok());     // missing name
  EXPECT_FALSE(ParseScript("fact p(X)\n").ok());      // non-ground fact
  EXPECT_FALSE(
      ParseScript("insert p(X) :- q(X)\n").ok());     // rule, not a fact
  EXPECT_FALSE(ParseScript("constraint empty\nfact p(1)\n").ok());
}

TEST(ScriptRunTest, EndToEnd) {
  auto script = ParseScript(
      "local l\n"
      "constraint fi\n"
      "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y\n"
      "fact r(7)\n"
      "insert l(10, 20)\n"   // ok (7 outside)
      "insert l(12, 18)\n"   // ok, resolved locally (covered)
      "insert l(5, 8)\n");   // rejected: 7 in range
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->updates_applied, 2u);
  EXPECT_EQ(report->updates_rejected, 1u);
  EXPECT_NE(report->text.find("REJECT +l(5, 8)"), std::string::npos);
  EXPECT_NE(report->text.find("tier local-test"), std::string::npos);
}

/// A miniature of examples/workloads/overload.ccpi: every insert into the
/// local request relation forces a recursive tier-3 fixpoint over a remote
/// edge chain, so a one-round budget must shed it.
const char* kOverloadScript =
    "local request\n"
    "constraint no-path-to-blocked\n"
    "path(X,Y) :- edge(X,Y)\n"
    "path(X,Y) :- edge(X,Z) & path(Z,Y)\n"
    "panic :- request(U,N) & path(N,M) & blocked(M)\n"
    "fact edge(a, b)\n"
    "fact edge(b, c)\n"
    "fact edge(c, d)\n"
    "fact edge(d, e)\n"
    "fact blocked(z)\n"
    "insert request(u1, a)\n"
    "insert request(u2, b)\n";

TEST(ScriptRunTest, BudgetShedsAreReportedDistinctlyFromDeferrals) {
  auto script = ParseScript(kOverloadScript);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ScriptOptions& options = script->options;
  options.manager.budget.per_check.max_fixpoint_rounds = 1;
  options.print_stats = true;
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->budget_armed);
  EXPECT_GT(report->stats.shed_checks, 0u);
  EXPECT_GT(report->stats.budget_exhausted, 0u);
  EXPECT_EQ(report->stats.deferred_dropped, 0u);
  // A shed check reads "shed:", never "deferred:" (no site was down), and
  // stays pending: the shutdown drain re-attempts it under the same budget.
  EXPECT_NE(report->text.find(" shed:no-path-to-blocked"), std::string::npos)
      << report->text;
  EXPECT_EQ(report->text.find(" deferred:"), std::string::npos);
  EXPECT_NE(report->text.find("PENDING"), std::string::npos);
  EXPECT_NE(report->summary_text.find("budget: "), std::string::npos);
}

TEST(ScriptRunTest, UnbudgetedRunNeverMentionsBudgets) {
  auto script = ParseScript(kOverloadScript);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  script->options.print_stats = true;
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->budget_armed);
  EXPECT_EQ(report->stats.shed_checks, 0u);
  EXPECT_EQ(report->updates_applied, 2u);
  EXPECT_EQ(report->text.find(" shed:"), std::string::npos);
  EXPECT_EQ(report->summary_text.find("budget: "), std::string::npos);
}

TEST(ScriptRunTest, QueueCapAloneArmsBudgetReporting) {
  // --deferred-queue-cap with no other budget still arms the report (the
  // cap can drop or refuse work, so the run must disclose its counters).
  auto script = ParseScript(kOverloadScript);
  ASSERT_TRUE(script.ok());
  script->options.manager.budget.deferred_queue_cap = 4;
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->budget_armed);
  EXPECT_EQ(report->stats.shed_checks, 0u);
  EXPECT_EQ(report->updates_applied, 2u);
}

TEST(ScriptRunTest, SubsumedConstraintReported) {
  auto script = ParseScript(
      "local emp\n"
      "constraint cap-200\n"
      "panic :- emp(E,S) & S > 200\n"
      "constraint cap-500\n"
      "panic :- emp(E,S) & S > 500\n"
      "insert emp(ann, 100)\n");
  ASSERT_TRUE(script.ok());
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->text.find("cap-500 (redundant"), std::string::npos);
}

// ---- the retired plan_cache directive and --plan-cache flag --------------
//
// The compiled-plan cache is the checker's only plan path, so neither
// spelling names an option any more.

TEST(ScriptParseTest, PlanCacheDirective) {
  // An unknown directive outside a constraint block is a stray rule line.
  for (const char* text : {"plan_cache off\nlocal l\n",
                           "plan_cache on\nlocal l\n"}) {
    auto script = ParseScript(text);
    ASSERT_FALSE(script.ok()) << text;
    EXPECT_EQ(script.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(script.status().message().find("line 1"), std::string::npos)
        << script.status().message();
  }
  // Inside a constraint block it is read as a rule, and does not parse.
  EXPECT_FALSE(
      ParseScript("constraint c\npanic :- l(X)\nplan_cache off\n").ok());
}

TEST(ScriptParseTest, PlanCacheDirectiveRejectsBadValue) {
  auto bad = ParseScript("local l\nplan_cache maybe\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The error names the offending line, like every other parse error.
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
      << bad.status().message();
  EXPECT_NE(bad.status().message().find("plan_cache"), std::string::npos);
}

TEST(ScriptFlagTest, PlanCacheFlagIsNoLongerMatched) {
  // An unknown flag like any other (ccpi_check exits 2 on it), whatever
  // its value.
  ScriptOptions options;
  for (const char* flag : {"--plan-cache=off", "--plan-cache=on",
                           "--plan-cache=bogus", "--plan-cache"}) {
    EXPECT_FALSE(ApplyOk(flag, &options)) << flag;
  }
  EXPECT_EQ(ScriptOptionHelp().find("plan"), std::string::npos);
}

TEST(ScriptRunTest, StatsAlwaysReportPlanCounters) {
  // With no switch left, --stats always carries the plan diagnostics
  // line, and a repeated pattern is served from the cache.
  auto script = ParseScript(
      "local l\n"
      "constraint join\n"
      "panic :- l(X,Y) & r(Y)\n"
      "insert l(1, 2)\n"
      "insert l(3, 4)\n");
  ASSERT_TRUE(script.ok());
  script->options.print_stats = true;
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->summary_text.find("plans: "), std::string::npos);
  EXPECT_EQ(report->summary_text.find(" 0 hits"), std::string::npos)
      << report->summary_text;
}

// ---- constraint names ------------------------------------------------------

TEST(ScriptParseTest, RepeatedConstraintNameIsAParseError) {
  // Plan-cache keys, compiled programs and deferred entries all name a
  // constraint by its name. A second `constraint c` used to register a
  // second constraint under the same key, and tier 3 then evaluated the
  // first one's compiled program for both: this script was applied
  // although `panic :- l(X) & r(X)` rejects it.
  const char* text =
      "local l\n"
      "constraint c\n"
      "panic :- l(X) & r(X) & s(X)\n"
      "constraint c\n"
      "panic :- l(X) & r(X)\n"
      "fact r(1)\n"
      "insert l(1)\n";
  auto script = ParseScript(text);
  ASSERT_FALSE(script.ok());
  EXPECT_EQ(script.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(script.status().message().find("line 4"), std::string::npos)
      << script.status().message();
  EXPECT_NE(script.status().message().find("constraint c"),
            std::string::npos)
      << script.status().message();
  // A name that only prefixes another is a different name.
  EXPECT_TRUE(ParseScript("constraint c\npanic :- l(X)\n"
                          "constraint c2\npanic :- r(X)\n")
                  .ok());
}

TEST(ScriptRunTest, RunScriptRefusesARepeatedConstraintName) {
  // A Script assembled in code bypasses the parser; the manager refuses
  // the second registration, so the run fails instead of checking the
  // stream against the wrong constraint.
  auto script = ParseScript(
      "local l\n"
      "constraint c\n"
      "panic :- l(X) & r(X) & s(X)\n"
      "constraint d\n"
      "panic :- l(X) & r(X)\n"
      "fact r(1)\n"
      "insert l(1)\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  script->constraints[1].first = "c";
  auto report = RunScript(*script);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScriptRunTest, UnsafeConstraintEndsTheRunBeforeAnyUpdate) {
  // X occurs only under negation. The run used to check every insert
  // below at tier 1 and exit clean; a later update reaching tier 3 would
  // then fail with "unsafe rule" partway through the stream. Registration
  // refuses the program, so the run ends before any update is checked.
  auto script = ParseScript(
      "local l\n"
      "constraint bad\n"
      "panic :- r(Y) & not l(X)\n"
      "fact r(1)\n"
      "fact l(5)\n"
      "insert l(2)\n"
      "insert l(3)\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto report = RunScript(*script);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("unsafe rule"), std::string::npos)
      << report.status().message();
}

TEST(ScriptRunTest, DeepDefinitionChainRegisters) {
  // p0 :- p1, ..., p9999 :- p10000, p10000 :- l & r: unfolding used to
  // recurse once per level and overflowed the stack at registration.
  std::string text = "local l\nconstraint chain\n";
  constexpr int kDepth = 10000;
  for (int i = 0; i < kDepth; ++i) {
    text += "p" + std::to_string(i) + "(X) :- p" + std::to_string(i + 1) +
            "(X)\n";
  }
  text += "p" + std::to_string(kDepth) + "(X) :- l(X) & r(X)\n";
  text += "panic :- p0(X)\n";
  auto script = ParseScript(text);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->text.find("constraint chain"), std::string::npos);
  EXPECT_EQ(report->updates_applied, 0u);
}

TEST(ScriptRunTest, ExponentialUnfoldingFallsThroughToTheFullCheck) {
  // Two rules per level, 30 levels: 2^30 disjuncts. Unfolding used to run
  // out of memory; past the expansion cap it reports kUnsupported, so tier
  // 1 and tier 2 fall through and tier 3 decides both inserts.
  std::string text = "local l\nconstraint deep\n";
  constexpr int kLevels = 30;
  for (int i = 0; i < kLevels; ++i) {
    const std::string p = "p" + std::to_string(i);
    const std::string next = "p" + std::to_string(i + 1);
    text += p + "(X) :- " + next + "(X)\n";
    text += p + "(X) :- q" + std::to_string(i) + "(X) & " + next + "(X)\n";
  }
  text += "p" + std::to_string(kLevels) + "(X) :- l(X) & r(X)\n";
  text += "panic :- p0(X)\nfact r(1)\ninsert l(2)\ninsert l(1)\n";
  auto script = ParseScript(text);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  const auto start = std::chrono::steady_clock::now();
  auto report = RunScript(*script);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->updates_applied, 1u);
  EXPECT_EQ(report->updates_rejected, 1u);
  EXPECT_NE(report->text.find("apply  +l(2)"), std::string::npos)
      << report->text;
  EXPECT_NE(report->text.find("REJECT +l(1) violates:deep(full-check)"),
            std::string::npos)
      << report->text;
#ifdef NDEBUG
  EXPECT_LT(took.count(), 1.0);
#endif
}

// ---- pipeline directive and --pipeline-depth flag -------------------------

TEST(ScriptParseTest, PipelineDirective) {
  auto four = ParseScript("pipeline 4\nlocal l\n");
  ASSERT_TRUE(four.ok());
  EXPECT_EQ(four->options.manager.pipeline.depth, 4u);
  auto unset = ParseScript("local l\n");
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(unset->options.manager.pipeline.depth, 1u);
}

TEST(ScriptParseTest, PipelineDirectiveRejectsBadValue) {
  for (const char* text : {"local l\npipeline 0\n", "local l\npipeline abc\n",
                           "local l\npipeline\n", "local l\npipeline -3\n"}) {
    auto bad = ParseScript(text);
    EXPECT_FALSE(bad.ok()) << text;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(bad.status().message().find("line 2"), std::string::npos)
        << bad.status().message();
    EXPECT_NE(bad.status().message().find("pipeline"), std::string::npos)
        << bad.status().message();
  }
}

/// Runs `text` with --stats serially, then at pipeline depth 8 over
/// `threads` lanes: the report — log and summary, plan counters included —
/// must be byte-identical.
void ExpectPipelinedMatchesSerial(const char* text, size_t threads) {
  auto script = ParseScript(text);
  ASSERT_TRUE(script.ok());
  script->options.print_stats = true;
  auto serial = RunScript(*script);
  ASSERT_TRUE(serial.ok());
  script->options.manager.pipeline.depth = 8;
  script->options.manager.parallel.threads = threads;
  auto piped = RunScript(*script);
  ASSERT_TRUE(piped.ok());
  EXPECT_EQ(serial->text, piped->text);
}

TEST(ScriptRunTest, PipelinedRunMatchesSerialByteForByte) {
  // The whole point of the serialized commit turn: the report — log and
  // summary both — is byte-identical at any pipeline depth.
  ExpectPipelinedMatchesSerial(
      "local l\n"
      "constraint ord\n"
      "panic :- l(X,Y) & X > Y\n"
      "constraint join\n"
      "panic :- l(X,Y) & r(Y)\n"
      "fact r(7)\n"
      "insert l(1, 2)\n"
      "insert l(5, 3)\n"
      "insert l(4, 7)\n"
      "insert l(2, 9)\n",
      1);
}

/// Comparison-free, and every insert writes l, which both constraints
/// read. Later inserts repeat earlier patterns while their speculations
/// read the tier-1 memo on pool workers and the commit turn stores into
/// it. Billing must still follow the serial run: a compile for the first
/// consultation of an entry, a hit after.
const char kRepeatedPatternScript[] =
    "local l\n"
    "constraint noloop\n"
    "panic :- l(X,X)\n"
    "constraint join\n"
    "panic :- l(X,Y) & r(Y)\n"
    "fact r(7)\n"
    "insert l(1, 2)\n"
    "insert l(3, 3)\n"
    "insert l(4, 7)\n"
    "insert l(2, 9)\n";

TEST(ScriptRunTest, PipelinedPlanBillingMatchesSerialByteForByte) {
  ExpectPipelinedMatchesSerial(kRepeatedPatternScript, 1);
}

TEST(ScriptRunTest, PipelinedPlanBillingOnFourThreadsMatchesSerial) {
  ExpectPipelinedMatchesSerial(kRepeatedPatternScript, 4);
}

/// The value of counter `name` in a MetricsRegistry::ToJson() dump.
uint64_t CounterInDump(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << name;
  return at == std::string::npos ? 0
                                 : std::stoull(json.substr(at + key.size()));
}

TEST(ScriptRunTest, PipelineFlagOverridesScriptDirective) {
  // Only an *effective* depth > 1 admits episodes into the pipeline, so
  // manager.pipeline.admitted observes which knob won.
  const char* text =
      "pipeline 4\n"
      "local l\n"
      "constraint ord\n"
      "panic :- l(X,Y) & X > Y\n"
      "insert l(1, 2)\n";
  auto script = ParseScript(text);
  ASSERT_TRUE(script.ok());
  script->options.collect_metrics = true;
  auto from_directive = RunScript(*script);
  ASSERT_TRUE(from_directive.ok());
  EXPECT_GT(CounterInDump(from_directive->metrics_json,
                          "manager.pipeline.admitted"),
            0u);
  // A --pipeline-depth=1 flag applied after the directive wins.
  ASSERT_TRUE(ApplyOk("--pipeline-depth=1", &script->options));
  auto from_flag = RunScript(*script);
  ASSERT_TRUE(from_flag.ok());
  EXPECT_EQ(
      CounterInDump(from_flag->metrics_json, "manager.pipeline.admitted"),
      0u);
  EXPECT_EQ(from_directive->log_text, from_flag->log_text);
}

// ---- ApplyScriptFlag: the strict ccpi_check flag parser -----------------

TEST(ScriptFlagTest, ValidFlagsApply) {
  ScriptOptions options;
  EXPECT_TRUE(ApplyOk("--threads=8", &options));
  EXPECT_EQ(options.manager.parallel.threads, 8u);
  EXPECT_TRUE(ApplyOk("--pipeline-depth=8", &options));
  EXPECT_EQ(options.manager.pipeline.depth, 8u);
  EXPECT_TRUE(ApplyOk("--fault-rate=0.25", &options));
  EXPECT_DOUBLE_EQ(options.faults.transient_rate, 0.25);
  EXPECT_TRUE(options.enable_faults);
  EXPECT_TRUE(ApplyOk("--fault-timeout-rate=0.5", &options));
  EXPECT_DOUBLE_EQ(options.faults.timeout_rate, 0.5);
  EXPECT_TRUE(ApplyOk("--fault-seed=42", &options));
  EXPECT_EQ(options.faults.seed, 42u);
  EXPECT_TRUE(ApplyOk("--fault-outage=10:25", &options));
  ASSERT_EQ(options.faults.outages.size(), 1u);
  EXPECT_EQ(options.faults.outages[0].begin, 10u);
  EXPECT_EQ(options.faults.outages[0].end, 25u);
  EXPECT_TRUE(ApplyOk("--fault-reject", &options));
  EXPECT_EQ(options.manager.resilience.on_unreachable, DeferredPolicy::kReject);
  EXPECT_TRUE(ApplyOk("--stats", &options));
  EXPECT_TRUE(options.print_stats);
}

TEST(ScriptFlagTest, MalformedNumericValuesAreHardErrors) {
  // Satellite of ISSUE 4: these used to fall back silently to defaults
  // (atoi-style parsing); now each is an InvalidArgument naming the flag.
  ExpectBadFlag("--threads=abc", "--threads");
  ExpectBadFlag("--threads=-2", "--threads");
  ExpectBadFlag("--threads=", "--threads");
  ExpectBadFlag("--threads=4x", "--threads");
  ExpectBadFlag("--fault-rate=1.5", "--fault-rate");
  ExpectBadFlag("--fault-rate=-0.1", "--fault-rate");
  ExpectBadFlag("--fault-rate=nope", "--fault-rate");
  ExpectBadFlag("--fault-timeout-rate=2", "--fault-timeout-rate");
  ExpectBadFlag("--fault-seed=12p", "--fault-seed");
  ExpectBadFlag("--fault-outage=10", "--fault-outage");
  ExpectBadFlag("--fault-outage=a:b", "--fault-outage");
  ExpectBadFlag("--fault-outage=25:10", "--fault-outage");
  ExpectBadFlag("--pipeline-depth=bogus", "--pipeline-depth");
  ExpectBadFlag("--pipeline-depth=0", "--pipeline-depth");
  ExpectBadFlag("--pipeline-depth=-2", "--pipeline-depth");
  ExpectBadFlag("--pipeline-depth=", "--pipeline-depth");
  ExpectBadFlag("--pipeline-depth=4x", "--pipeline-depth");
}

TEST(ScriptFlagTest, MalformedValueLeavesOptionsUntouched) {
  ScriptOptions options;
  bool matched = false;
  Status st = ApplyScriptFlag("--threads=abc", &options, &matched);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(options.manager.parallel.threads,
            ScriptOptions{}.manager.parallel.threads);
}

TEST(ScriptFlagTest, UnrecognizedFlagsAreNotMatched) {
  ScriptOptions options;
  EXPECT_FALSE(ApplyOk("--no-such-flag=1", &options));
  EXPECT_FALSE(ApplyOk("workload.ccpi", &options));
  // Tool-level flags are deliberately not ApplyScriptFlag's business.
  EXPECT_FALSE(ApplyOk("--export-souffle", &options));
  EXPECT_FALSE(ApplyOk("--trace-out=x.json", &options));
}

TEST(ScriptFlagTest, ColumnarFlagIsNoLongerMatched) {
  // Relations have one storage layout, so the old layout switch is an
  // unknown flag like any other (ccpi_check exits 2 on it).
  ScriptOptions options;
  EXPECT_FALSE(ApplyOk("--columnar=off", &options));
}

TEST(ScriptFlagTest, RemoteCacheFlagIsNoLongerMatched) {
  // Every remote read goes through the snapshot cache, so the old cache
  // switch is an unknown flag like any other (ccpi_check exits 2 on it),
  // whatever its value.
  ScriptOptions options;
  for (const char* flag : {"--remote-cache=off", "--remote-cache=on",
                           "--remote-cache=bogus", "--remote-cache"}) {
    EXPECT_FALSE(ApplyOk(flag, &options)) << flag;
  }
  EXPECT_EQ(ScriptOptionHelp().find("remote-cache"), std::string::npos);
}

TEST(ScriptFlagTest, BudgetFlagsApply) {
  ScriptOptions options;
  EXPECT_FALSE(options.manager.budget.armed());
  EXPECT_TRUE(ApplyOk("--deadline-ms=750", &options));
  EXPECT_EQ(options.manager.budget.episode_deadline_ms, 750u);
  EXPECT_TRUE(ApplyOk("--max-fixpoint-rounds=6", &options));
  EXPECT_EQ(options.manager.budget.per_check.max_fixpoint_rounds, 6u);
  EXPECT_TRUE(ApplyOk("--max-derived-tuples=10000", &options));
  EXPECT_EQ(options.manager.budget.per_check.max_derived_tuples, 10000u);
  EXPECT_TRUE(ApplyOk("--deferred-queue-cap=32", &options));
  EXPECT_EQ(options.manager.budget.deferred_queue_cap, 32u);
  EXPECT_TRUE(ApplyOk("--overflow-policy=shed-oldest", &options));
  EXPECT_EQ(options.manager.budget.overflow, OverflowPolicy::kShedOldest);
  EXPECT_TRUE(ApplyOk("--overflow-policy=block-recheck", &options));
  EXPECT_EQ(options.manager.budget.overflow, OverflowPolicy::kBlockRecheck);
  EXPECT_TRUE(ApplyOk("--overflow-policy=reject-update", &options));
  EXPECT_EQ(options.manager.budget.overflow, OverflowPolicy::kRejectUpdate);
  EXPECT_TRUE(options.manager.budget.armed());
}

TEST(ScriptFlagTest, MalformedBudgetValuesAreHardErrors) {
  ExpectBadFlag("--deadline-ms=abc", "--deadline-ms");
  ExpectBadFlag("--deadline-ms=-5", "--deadline-ms");
  ExpectBadFlag("--deadline-ms=", "--deadline-ms");
  ExpectBadFlag("--max-fixpoint-rounds=2.5", "--max-fixpoint-rounds");
  ExpectBadFlag("--max-derived-tuples=lots", "--max-derived-tuples");
  ExpectBadFlag("--deferred-queue-cap=-1", "--deferred-queue-cap");
  ExpectBadFlag("--overflow-policy=panic", "--overflow-policy");
  ExpectBadFlag("--overflow-policy=", "--overflow-policy");
  // A bad value must not half-apply.
  ScriptOptions options;
  bool matched = false;
  Status st = ApplyScriptFlag("--deadline-ms=abc", &options, &matched);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(options.manager.budget.armed());
}

TEST(ScriptFlagTest, ValidateRejectsRateSumAboveOne) {
  ScriptOptions options;
  ASSERT_TRUE(ApplyOk("--fault-rate=0.7", &options));
  ASSERT_TRUE(ApplyOk("--fault-timeout-rate=0.4", &options));
  Status st = ValidateScriptOptions(options);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  options.faults.timeout_rate = 0.3;
  EXPECT_TRUE(ValidateScriptOptions(options).ok());
}

// ---- ISSUE 10: latency models, failure domains, hedged reads ------------

TEST(ScriptParseTest, LatencyAndDomainDirectives) {
  auto script = ParseScript(
      "local l\n"
      "constraint fi\n"
      "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y\n"
      "sites 4\n"
      "site_latency 0 fixed:250\n"
      "site_latency 1 uniform:10:50\n"
      "site_latency 2 twopoint:100:5000:0.1\n"
      "domain rack0 0 1\n"
      "domain rack1 2 3\n"
      "domain_outage rack0 4 10\n"
      "hedge_after 3\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  const TopologyConfig& t = script->options.manager.topology;
  ASSERT_EQ(t.site_latency.size(), 3u);
  EXPECT_EQ(t.site_latency.at(0).model, LatencyModel::kFixed);
  EXPECT_EQ(t.site_latency.at(0).fixed_us, 250u);
  EXPECT_EQ(t.site_latency.at(1).model, LatencyModel::kUniform);
  EXPECT_EQ(t.site_latency.at(1).lo_us, 10u);
  EXPECT_EQ(t.site_latency.at(1).hi_us, 50u);
  EXPECT_EQ(t.site_latency.at(2).model, LatencyModel::kTwoPoint);
  EXPECT_DOUBLE_EQ(t.site_latency.at(2).slow_share, 0.1);
  ASSERT_EQ(t.domains.size(), 2u);
  EXPECT_EQ(t.domains[0].name, "rack0");
  EXPECT_EQ(t.domains[0].members, (std::vector<size_t>{0, 1}));
  // "domain_outage rack0 4 10" darkens the half-open window [4, 10) on
  // each member's trip counter — the same convention as --fault-outage.
  // Windows collect by name and attach to the domain at run time.
  const auto& outages = script->options.domain_outages;
  ASSERT_EQ(outages.size(), 1u);
  ASSERT_EQ(outages.at("rack0").size(), 1u);
  EXPECT_EQ(outages.at("rack0")[0].begin, 4u);
  EXPECT_EQ(outages.at("rack0")[0].end, 10u);
  EXPECT_EQ(script->options.manager.remote_cache.hedge_after, 3u);
}

/// Expects ParseScript to fail with a message containing `needle`.
void ExpectParseError(std::string_view text, std::string_view needle) {
  auto script = ParseScript(text);
  ASSERT_FALSE(script.ok()) << "parsed: " << text;
  EXPECT_NE(script.status().message().find(needle), std::string::npos)
      << "error for \"" << text
      << "\" missing \"" << needle << "\": " << script.status().message();
}

TEST(ScriptParseTest, LatencyAndDomainDirectivesRejectBadValues) {
  ExpectParseError("site_latency 0 gaussian:5\n", "site_latency");
  ExpectParseError("site_latency 0 fixed:0\n", "site_latency");
  ExpectParseError("site_latency 0 uniform:50:10\n", "site_latency");
  ExpectParseError("site_latency 0 twopoint:10:50:1.5\n", "site_latency");
  ExpectParseError("site_latency x fixed:10\n", "site_latency");
  ExpectParseError("domain rack0\n", "domain");
  ExpectParseError("domain rack0 0 x\n", "domain");
  ExpectParseError("sites 2\ndomain rack0 0\ndomain_outage rack0 9 4\n",
                   "domain_outage");
  ExpectParseError("domain_outage ghost 4 10\n", "undefined domain");
  // Cross-directive validation at end of parse: duplicate names,
  // overlapping membership, out-of-range sites.
  ExpectParseError("sites 4\ndomain rack0 0\ndomain rack0 1\n",
                   "declared twice");
  ExpectParseError("sites 4\ndomain rack0 0 1\ndomain rack1 1 2\n",
                   "member of two failure domains");
  ExpectParseError("sites 2\ndomain rack0 0 5\n", "claims site 5");
  ExpectParseError("sites 2\nsite_latency 7 fixed:10\n", "names site 7");
  ExpectParseError("hedge_after x\n", "hedge_after");
}

TEST(ScriptFlagTest, LatencyAndDomainFlagsApply) {
  ScriptOptions options;
  EXPECT_TRUE(ApplyOk("--site-latency=1:twopoint:100:5000:0.1", &options));
  ASSERT_EQ(options.manager.topology.site_latency.count(1), 1u);
  const SiteLatencyOverride& latency =
      options.manager.topology.site_latency.at(1);
  EXPECT_EQ(latency.model, LatencyModel::kTwoPoint);
  EXPECT_EQ(latency.lo_us, 100u);
  EXPECT_EQ(latency.hi_us, 5000u);
  EXPECT_TRUE(ApplyOk("--hedge-after=3", &options));
  EXPECT_EQ(options.manager.remote_cache.hedge_after, 3u);
  EXPECT_TRUE(ApplyOk("--domains=rack0:0+1,rack1:2", &options));
  const std::vector<FailureDomain>& domains = options.manager.topology.domains;
  ASSERT_EQ(domains.size(), 2u);
  EXPECT_EQ(domains[0].name, "rack0");
  EXPECT_EQ(domains[0].members, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(domains[1].members, (std::vector<size_t>{2}));
  EXPECT_TRUE(ApplyOk("--domain-outage=rack0:4:10", &options));
  ASSERT_EQ(options.domain_outages.count("rack0"), 1u);
  ASSERT_EQ(options.domain_outages.at("rack0").size(), 1u);
  EXPECT_EQ(options.domain_outages.at("rack0")[0].begin, 4u);
  EXPECT_EQ(options.domain_outages.at("rack0")[0].end, 10u);
}

TEST(ScriptFlagTest, MalformedLatencyAndDomainValuesAreHardErrors) {
  ExpectBadFlag("--site-latency=1", "--site-latency");
  ExpectBadFlag("--site-latency=1:gaussian:5", "--site-latency");
  ExpectBadFlag("--site-latency=1:fixed:0", "--site-latency");
  ExpectBadFlag("--site-latency=1:uniform:50:10", "--site-latency");
  ExpectBadFlag("--site-latency=1:twopoint:10:50:2", "--site-latency");
  ExpectBadFlag("--site-latency=x:fixed:10", "--site-latency");
  ExpectBadFlag("--hedge-after=abc", "--hedge-after");
  ExpectBadFlag("--hedge-after=", "--hedge-after");
  ExpectBadFlag("--hedge-after=-1", "--hedge-after");
  ExpectBadFlag("--domains=", "--domains");
  ExpectBadFlag("--domains=rack0", "--domains");
  ExpectBadFlag("--domains=rack0:", "--domains");
  ExpectBadFlag("--domains=rack0:a+b", "--domains");
  ExpectBadFlag("--domains=:0+1", "--domains");
  ExpectBadFlag("--domain-outage=rack0", "--domain-outage");
  ExpectBadFlag("--domain-outage=rack0:9:4", "--domain-outage");
  ExpectBadFlag("--domain-outage=rack0:a:b", "--domain-outage");
}

TEST(ScriptFlagTest, ValidateRejectsInconsistentDomainAndLatencyFlags) {
  {
    // --site-latency must name a site < --sites.
    ScriptOptions options;
    ASSERT_TRUE(ApplyOk("--sites=2", &options));
    ASSERT_TRUE(ApplyOk("--site-latency=5:fixed:10", &options));
    EXPECT_EQ(ValidateScriptOptions(options).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // --domains membership must not overlap.
    ScriptOptions options;
    ASSERT_TRUE(ApplyOk("--domains=rack0:0+1,rack1:1+2", &options));
    EXPECT_EQ(ValidateScriptOptions(options).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Duplicate domain names.
    ScriptOptions options;
    ASSERT_TRUE(ApplyOk("--domains=rack0:0,rack0:1", &options));
    EXPECT_EQ(ValidateScriptOptions(options).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // Domain members must be < the site count.
    ScriptOptions options;
    ASSERT_TRUE(ApplyOk("--sites=2", &options));
    ASSERT_TRUE(ApplyOk("--domains=rack0:0+7", &options));
    EXPECT_EQ(ValidateScriptOptions(options).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // --domain-outage must name a domain of the configuration.
    ScriptOptions options;
    ASSERT_TRUE(ApplyOk("--domains=rack0:0", &options));
    ASSERT_TRUE(ApplyOk("--domain-outage=ghost:4:10", &options));
    EXPECT_EQ(ValidateScriptOptions(options).code(),
              StatusCode::kInvalidArgument);
  }
  {
    // All of the above together, well-formed, validates clean.
    ScriptOptions options;
    ASSERT_TRUE(ApplyOk("--sites=4", &options));
    ASSERT_TRUE(ApplyOk("--site-latency=1:uniform:10:50", &options));
    ASSERT_TRUE(ApplyOk("--domains=rack0:0+1,rack1:2+3", &options));
    ASSERT_TRUE(ApplyOk("--domain-outage=rack1:4:10", &options));
    ASSERT_TRUE(ApplyOk("--hedge-after=3", &options));
    EXPECT_TRUE(ValidateScriptOptions(options).ok());
  }
}

TEST(ScriptRunTest, HedgeFlagOverridesScriptDirective) {
  // The script pins hedge_after 7; the flag says 0 (off). The flag comes
  // later, so it wins: the run must report zero hedging and print no hedge
  // stats line.
  const char* text =
      "local l\n"
      "constraint fi\n"
      "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y\n"
      "hedge_after 7\n"
      "fact r(7)\n"
      "insert l(10, 20)\n";
  auto script = ParseScript(text);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->options.manager.remote_cache.hedge_after, 7u);
  script->options.print_stats = true;
  ASSERT_TRUE(ApplyOk("--hedge-after=0", &script->options));
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->stats.hedges_issued, 0u);
  EXPECT_EQ(report->summary_text.find("hedge:"), std::string::npos);
  // Without the flag the directive takes effect: the stats block now
  // carries the hedge accounting line (all zeros on this tiny workload —
  // arming alone must not fabricate hedges).
  auto directive_only = ParseScript(text);
  ASSERT_TRUE(directive_only.ok());
  directive_only->options.print_stats = true;
  auto armed = RunScript(*directive_only);
  ASSERT_TRUE(armed.ok()) << armed.status().ToString();
  EXPECT_NE(armed->summary_text.find("hedge: 0 issued"), std::string::npos);
}

TEST(ScriptRunTest, DomainOutageFlagAttachesToScriptDomains) {
  // --domain-outage without --domains resolves against the script's own
  // `domain` directives; naming a domain the script does not define is an
  // InvalidArgument from RunScript's validation, not a crash.
  auto script = ParseScript(
      "local l\n"
      "constraint fi\n"
      "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y\n"
      "sites 2\n"
      "site 0 r\n"
      "domain rackA 0 1\n"
      "fact r(7)\n"
      "insert l(10, 20)\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  script->options.domain_outages["ghost"].push_back(OutageWindow{0, 4});
  auto report = RunScript(*script);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(report.status().message().find("ghost"), std::string::npos);
  // Named correctly it applies: the whole run happens inside the window,
  // so the remote check defers instead of resolving.
  script->options.domain_outages.erase("ghost");
  script->options.domain_outages["rackA"].push_back(OutageWindow{0, 100});
  auto deferred = RunScript(*script);
  ASSERT_TRUE(deferred.ok()) << deferred.status().ToString();
  EXPECT_EQ(deferred->updates_deferred, 1u);
}


// ---- One option table: directives first, flags second -------------------

/// A directive row's override case: `prefix` sets up what validation needs,
/// `directive` is the script line, `flag` the later flag value, and `view`
/// renders the knob both write.
struct OverrideCase {
  std::string prefix;
  std::string directive;
  std::string flag;
  std::function<std::string(const ScriptOptions&)> view;
};

std::map<std::string, OverrideCase> OverrideCases() {
  std::map<std::string, OverrideCase> cases;
  cases["pipeline"] = {
      "", "pipeline 4", "2", [](const ScriptOptions& o) {
        return std::to_string(o.manager.pipeline.depth);
      }};
  cases["sites"] = {
      "", "sites 3", "2", [](const ScriptOptions& o) {
        return std::to_string(o.manager.topology.sites);
      }};
  cases["site_latency"] = {
      "sites 2\n", "site_latency 1 fixed:250", "1:uniform:10:50",
      [](const ScriptOptions& o) {
        const SiteLatencyOverride& m = o.manager.topology.site_latency.at(1);
        return std::to_string(static_cast<int>(m.model)) + ":" +
               std::to_string(m.fixed_us) + ":" + std::to_string(m.lo_us) +
               ":" + std::to_string(m.hi_us);
      }};
  cases["hedge_after"] = {
      "", "hedge_after 7", "0", [](const ScriptOptions& o) {
        return std::to_string(o.manager.remote_cache.hedge_after);
      }};
  // domain_outage appends, so the flag's window is the last one.
  cases["domain_outage"] = {
      "sites 2\ndomain r 0 1\n", "domain_outage r 4 10", "r:1:2",
      [](const ScriptOptions& o) {
        const OutageWindow& w = o.domain_outages.at("r").back();
        return std::to_string(w.begin) + ":" + std::to_string(w.end);
      }};
  return cases;
}

TEST(ScriptOptionTableTest, DirectiveThenFlagGivesTheFlagValue) {
  const std::map<std::string, OverrideCase> cases = OverrideCases();
  size_t covered = 0;
  for (const ScriptOption& row : ScriptOptionTable()) {
    if (row.directive.empty() || row.flag.empty()) continue;
    std::string directive(row.directive);
    auto it = cases.find(directive);
    ASSERT_NE(it, cases.end()) << "no override case for " << directive;
    const OverrideCase& c = it->second;
    ++covered;
    std::string flag = "--" + std::string(row.flag) + "=" + c.flag;
    // The flag alone, on top of the prefix: the value the flag means.
    auto flag_only = ParseScript(c.prefix);
    ASSERT_TRUE(flag_only.ok()) << flag_only.status().ToString();
    ASSERT_TRUE(ApplyOk(flag, &flag_only->options));
    // The directive, then the same flag: the flag comes later and wins.
    auto both = ParseScript(c.prefix + c.directive + "\n");
    ASSERT_TRUE(both.ok()) << directive << ": " << both.status().ToString();
    const std::string from_directive = c.view(both->options);
    ASSERT_TRUE(ApplyOk(flag, &both->options));
    EXPECT_TRUE(ValidateScriptOptions(both->options).ok()) << directive;
    EXPECT_EQ(c.view(both->options), c.view(flag_only->options)) << directive;
    EXPECT_NE(c.view(both->options), from_directive)
        << directive << ": the case must use two different values";
  }
  EXPECT_EQ(covered, cases.size()) << "a case names no table row";
}

TEST(ScriptOptionTableTest, DirectiveAndFlagAreOneParse) {
  // `site_latency 1 fixed:250` and `--site-latency=1:fixed:250` reach the
  // same setter: the directive's arguments are joined by ':'.
  auto script = ParseScript("sites 2\nsite_latency 1 fixed:250\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ScriptOptions flagged;
  ASSERT_TRUE(ApplyOk("--sites=2", &flagged));
  ASSERT_TRUE(ApplyOk("--site-latency=1:fixed:250", &flagged));
  const SiteLatencyOverride& a =
      script->options.manager.topology.site_latency.at(1);
  const SiteLatencyOverride& b = flagged.manager.topology.site_latency.at(1);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.fixed_us, b.fixed_us);
}

TEST(ScriptOptionTableTest, HelpListsEveryFlagOnce) {
  const std::string help = ScriptOptionHelp();
  for (const ScriptOption& row : ScriptOptionTable()) {
    if (row.flag.empty()) continue;
    std::string lead = "  --" + std::string(row.flag) +
                       (row.metavar.empty() ? " " : "=");
    size_t at = help.find(lead);
    ASSERT_NE(at, std::string::npos) << row.flag;
    EXPECT_EQ(help.find(lead, at + 1), std::string::npos) << row.flag;
  }
}

TEST(ScriptFlagTest, NumericCeilingsRejectValuesThatCrashOrWrap) {
  // Each of these aborted, overflowed or wrapped before the table carried
  // a ceiling: a site count or thread count that no allocation can hold,
  // a deadline past the range of the steady clock (or wrapping to one
  // already passed), and a hedge multiple that wraps the threshold.
  ExpectBadFlag("--sites=100000000000", "--sites");
  ExpectBadFlag("--threads=1000000000000", "--threads");
  ExpectBadFlag("--deadline-ms=4611686018427387904", "--deadline-ms");
  ExpectBadFlag("--deadline-ms=18446744073709551615", "--deadline-ms");
  ExpectBadFlag("--hedge-after=9223372036854775808", "--hedge-after");
  // A trip latency is slept for real: past one minute it is a hang.
  ExpectBadFlag("--site-latency=0:fixed:9223372036854775807",
                "--site-latency");
  ExpectBadFlag("--site-latency=0:fixed:60000001", "--site-latency");
  ExpectBadFlag("--site-latency=0:uniform:1:18446744073709551615",
                "--site-latency");
  ExpectBadFlag("--site-latency=0:twopoint:1:60000001:0.5",
                "--site-latency");
  // The directive form shares the row, so it inherits the ceiling.
  ExpectParseError("sites 100000000000\n", "line 1: sites");
  ExpectParseError("hedge_after 9223372036854775808\n", "line 1: hedge_after");
  ExpectParseError("site_latency 0 fixed:60000001\n", "line 1: site_latency");
  // The ceilings themselves are accepted.
  ScriptOptions options;
  EXPECT_TRUE(ApplyOk("--sites=1024", &options));
  EXPECT_TRUE(ApplyOk("--threads=256", &options));
  EXPECT_TRUE(ApplyOk("--deadline-ms=86400000", &options));
  EXPECT_TRUE(ApplyOk("--hedge-after=1000", &options));
  EXPECT_TRUE(ApplyOk("--site-latency=0:uniform:1:60000000", &options));
}

TEST(ScriptParseTest, DomainOutageMayPrecedeItsDomain) {
  auto script = ParseScript(
      "domain_outage rack0 4 10\n"
      "sites 2\n"
      "domain rack0 0 1\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->options.domain_outages.at("rack0").size(), 1u);
}

TEST(ScriptFlagTest, ValidateChecksTheMergedConfiguration) {
  {
    // Consistent alone, inconsistent once --sites=2 lands on top.
    auto script = ParseScript("sites 3\ndomain d 0 1 2\n");
    ASSERT_TRUE(script.ok()) << script.status().ToString();
    ASSERT_TRUE(ApplyOk("--sites=2", &script->options));
    Status st = ValidateScriptOptions(script->options);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("claims site 2"), std::string::npos)
        << st.message();
  }
  {
    // --domains replaces the script's domains; an outage the script
    // attached to a removed domain is an error naming it, not dropped.
    auto script = ParseScript(
        "sites 2\ndomain rackA 0\ndomain_outage rackA 0 4\n");
    ASSERT_TRUE(script.ok()) << script.status().ToString();
    ASSERT_TRUE(ApplyOk("--domains=rackB:1", &script->options));
    Status st = ValidateScriptOptions(script->options);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("rackA"), std::string::npos) << st.message();
  }
}

TEST(ScriptRunTest, ProgrammaticSiteCountIsHonored) {
  // A caller that sets the topology directly gets that topology: the
  // --stats block lists one line per site only with more than one site.
  auto script = ParseScript(
      "local l\n"
      "constraint fi\n"
      "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y\n"
      "fact r(7)\n"
      "insert l(10, 20)\n");
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  script->options.print_stats = true;
  script->options.manager.topology.sites = 3;
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->summary_text.find("site2: breaker"), std::string::npos)
      << report->summary_text;
}

}  // namespace
}  // namespace ccpi
