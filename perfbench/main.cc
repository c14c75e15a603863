// episode_bench: the checker's episode benchmark (see README.md).
//
//   episode_bench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out DIR] [--samples FILE]
//
// One process, one ConstraintManager, one client in a closed loop: the
// next update is issued only when the previous one has returned (with a
// pipelined manager, when the pipeline has room). --trace 0 measures the
// end-to-end metrics with timing and tracing off; --trace 1 measures the
// per-layer metrics in a separate traced run and writes the Chrome trace
// and the per-layer table to DIR. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"
#include "mirror.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/relation.h"
#include "util/check.h"
#include "workloads.h"

namespace ccpi::perfbench {
namespace {

/// Share of a traced run's time spent untraced, as the overhead baseline.
constexpr double kUntracedShare = 0.25;
/// Episodes whose spans are kept in memory (and in the Chrome trace).
constexpr uint64_t kMaxRecordedEpisodes = 3000;

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string samples;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 3600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out_dir = value;
    } else if (flag == "--samples") {
      args->samples = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && MakeWorkload(args->workload, 0) != nullptr;
}

/// Episode outcomes and costs of some rounds.
struct Tally {
  uint64_t episodes = 0;
  uint64_t failed = 0;
  uint64_t errors = 0;
  uint64_t deferred = 0;
  uint64_t mismatched = 0;
  /// Reports per settling tier, indexed by Tier.
  std::array<uint64_t, 5> tiers{};
  /// Wall time of the episodes themselves (round resets excluded).
  double op_ns = 0;
  double cpu_ns = 0;
  std::vector<double> latency_ns;
  /// Reference-kernel times, one per round (see ReferenceKernelNs).
  std::vector<double> reference_ns;
  /// Process-wide Relation counters, counted around the episodes only.
  uint64_t index_builds = 0;
  uint64_t segment_builds = 0;
  uint64_t copies = 0;

  void Add(const Tally& o) {
    episodes += o.episodes;
    failed += o.failed;
    errors += o.errors;
    deferred += o.deferred;
    mismatched += o.mismatched;
    for (size_t i = 0; i < tiers.size(); ++i) tiers[i] += o.tiers[i];
    op_ns += o.op_ns;
    cpu_ns += o.cpu_ns;
    index_builds += o.index_builds;
    segment_builds += o.segment_builds;
    copies += o.copies;
    latency_ns.insert(latency_ns.end(), o.latency_ns.begin(),
                      o.latency_ns.end());
    reference_ns.insert(reference_ns.end(), o.reference_ns.begin(),
                        o.reference_ns.end());
  }
  uint64_t tier(Tier t) const { return tiers[static_cast<size_t>(t)]; }
};

using Reports = std::vector<CheckReport>;

void Judge(const Op& op, const Result<Reports>& result, Tally* tally,
           std::vector<Reports>* out) {
  tally->episodes += 1;
  if (!result.ok()) {
    tally->errors += 1;
    tally->failed += 1;
    out->emplace_back();
    return;
  }
  bool violated = false;
  bool deferred = false;
  for (const CheckReport& r : *result) {
    tally->tiers[static_cast<size_t>(r.tier)] += 1;
    violated = violated || r.outcome == Outcome::kViolated;
    deferred = deferred || r.outcome == Outcome::kDeferred;
  }
  if (deferred) {
    tally->deferred += 1;
    tally->failed += 1;
  } else if (violated == op.expect_applied) {
    tally->mismatched += 1;
    tally->failed += 1;
  }
  out->push_back(*result);
}

/// Runs the episodes of `round` (not its reset) and returns each episode's
/// reports (empty for an episode that errored).
std::vector<Reports> RunRound(ConstraintManager* mgr, const Round& round,
                              Tally* tally) {
  std::vector<Reports> reports;
  const size_t n = round.ops.size();
  const uint64_t index0 = Relation::DebugIndexBuildCount();
  const uint64_t segment0 = Relation::DebugSegmentBuildCount();
  const uint64_t copy0 = Relation::DebugCopyCount();
  const double cpu0 = CpuNs();
  if (mgr->pipeline().depth <= 1) {
    for (const Op& op : round.ops) {
      double t0 = NowNs();
      Result<Reports> r = mgr->ApplyUpdate(op.update);
      double t1 = NowNs();
      tally->op_ns += t1 - t0;
      tally->latency_ns.push_back(t1 - t0);
      Judge(op, r, tally, &reports);
    }
  } else {
    // An episode's latency runs from its admission to the return of the
    // call that retired it (admissions retire the pipeline's head when it
    // is full); the round's last few retire in the closing Drain.
    std::vector<double> admitted(n);
    std::vector<double> retired(n);
    size_t done = 0;
    const double start = NowNs();
    for (size_t i = 0; i < n; ++i) {
      admitted[i] = NowNs();
      mgr->ApplyUpdateAsync(round.ops[i].update);
      const double now = NowNs();
      for (size_t r = i + 1 - mgr->in_flight(); done < r; ++done) {
        retired[done] = now;
      }
    }
    std::vector<Result<Reports>> results = mgr->Drain();
    const double end = NowNs();
    for (; done < n; ++done) retired[done] = end;
    tally->op_ns += end - start;
    CCPI_CHECK(results.size() == n);
    for (size_t i = 0; i < n; ++i) {
      tally->latency_ns.push_back(retired[i] - admitted[i]);
      Judge(round.ops[i], results[i], tally, &reports);
    }
  }
  tally->cpu_ns += CpuNs() - cpu0;
  tally->index_builds += Relation::DebugIndexBuildCount() - index0;
  tally->segment_builds += Relation::DebugSegmentBuildCount() - segment0;
  tally->copies += Relation::DebugCopyCount() - copy0;
  return reports;
}

void ApplyReset(ConstraintManager* mgr, const Round& round) {
  for (const Edit& e : round.reset) {
    Status st = e.insert ? mgr->site().db().Insert(e.pred, e.tuple)
                         : mgr->site().db().Erase(e.pred, e.tuple);
    CCPI_CHECK(st.ok());
  }
}

/// Order-independent FNV-1a digest of a set of rows, one "pred(tuple)"
/// line each.
uint64_t Digest(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& line : lines) {
    for (char c : line + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

uint64_t Digest(const Database& db) {
  std::vector<std::string> lines;
  for (const std::string& pred : db.PredicateNames()) {
    for (const Tuple& row : db.Get(pred, 0).rows()) {
      lines.push_back(pred + TupleToString(row));
    }
  }
  return Digest(std::move(lines));
}

uint64_t Digest(const std::vector<Fact>& facts) {
  std::vector<std::string> lines;
  for (const Fact& f : facts) lines.push_back(f.pred + TupleToString(f.tuple));
  return Digest(std::move(lines));
}

Database DeepCopy(const Database& src) {
  Database out;
  for (const std::string& pred : src.PredicateNames()) {
    for (const Tuple& row : src.Get(pred, 0).rows()) {
      CCPI_CHECK(out.Insert(pred, row).ok());
    }
  }
  return out;
}

std::vector<std::pair<std::string, Program>> ParseConstraints(
    const WorkloadSpec& spec) {
  std::vector<std::pair<std::string, Program>> out;
  for (const auto& [name, text] : spec.constraints) {
    Result<Program> p = ParseProgram(text);
    CCPI_CHECK(p.ok());
    out.emplace_back(name, *p);
  }
  return out;
}

/// A workload's manager after set-up: constraints registered, seed data
/// loaded, warm-up rounds run. `seed_digest` is the digest of the seed
/// data, which every run must end with (rounds restore their start state).
struct Prepared {
  std::unique_ptr<ConstraintManager> mgr;
  double setup_s = 0;
  uint64_t seed_digest = 0;
  uint64_t next_round = 0;
  std::vector<double> add_constraint_us;
  Tally warmup;
};

Prepared Prepare(const Workload& wl) {
  const WorkloadSpec& spec = wl.spec();
  Prepared p;
  const double t0 = NowNs();
  CostModel costs;
  costs.trip_latency_us = spec.trip_latency_us;
  TopologyConfig topology;
  topology.sites = spec.sites;
  topology.placement = spec.placement;
  p.mgr = std::make_unique<ConstraintManager>(
      spec.local_preds, costs, ResilienceConfig{},
      ParallelConfig{spec.threads}, RemoteCacheConfig{}, BudgetConfig{},
      topology, PlanCacheConfig{}, PipelineConfig{spec.depth});
  for (auto& [name, program] : ParseConstraints(spec)) {
    const double a0 = NowNs();
    Result<bool> subsumed = p.mgr->AddConstraint(name, program);
    p.add_constraint_us.push_back((NowNs() - a0) / 1e3);
    CCPI_CHECK(subsumed.ok() && !*subsumed);
  }
  for (const Fact& f : spec.seed_facts) {
    CCPI_CHECK(p.mgr->site().db().Insert(f.pred, f.tuple).ok());
  }
  for (; p.next_round < spec.warmup_rounds; ++p.next_round) {
    Round round = wl.MakeRound(p.next_round);
    RunRound(p.mgr.get(), round, &p.warmup);
    ApplyReset(p.mgr.get(), round);
  }
  p.setup_s = (NowNs() - t0) / 1e9;
  p.seed_digest = Digest(spec.seed_facts);
  return p;
}

/// A fixed piece of work shaped like the checker's own (hash-map updates,
/// string building, sorting; about a millisecond), timed between rounds as
/// a gauge of how fast the host runs this process right now. run.py scales
/// the end-to-end timings by it (see README.md).
double ReferenceKernelNs() {
  const double t0 = NowNs();
  std::unordered_map<int64_t, int64_t> counts;
  std::vector<std::string> names;
  for (int64_t i = 0; i < 20000; ++i) {
    counts[(i * 2654435761LL) % 10007] += i;
    if (i % 10 == 0) names.push_back(std::to_string(i * 7919));
  }
  std::sort(names.begin(), names.end());
  static volatile size_t sink = 0;
  sink = sink + counts.size() + names.front().size();
  return NowNs() - t0;
}

/// Runs whole rounds until `seconds` of episode time have passed, timing
/// the reference kernel after each. `per_round` sees each round after it
/// ran, before its reset.
template <typename PerRound>
Tally RunWindow(const Workload& wl, Prepared* p, double seconds,
                PerRound per_round) {
  Tally window;
  while (window.op_ns < seconds * 1e9) {
    Round round = wl.MakeRound(p->next_round++);
    Tally t;
    std::vector<Reports> reports = RunRound(p->mgr.get(), round, &t);
    per_round(round, reports, t);
    ApplyReset(p->mgr.get(), round);
    t.reference_ns.push_back(ReferenceKernelNs());
    window.Add(t);
  }
  return window;
}

double Quantile(std::vector<double> v, double q, size_t* above) {
  CCPI_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  size_t idx = rank == 0 ? 0 : rank - 1;
  if (above != nullptr) *above = v.size() - idx - 1;
  return v[idx];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5, nullptr); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void PrintTiers(const char* label, const Tally& t, uint64_t rounds) {
  auto per = [&](Tier tier) {
    return static_cast<double>(t.tier(tier)) / static_cast<double>(rounds);
  };
  std::printf("%s per round: unaffected %g, independence %g, local-test %g, "
              "full-check %g\n",
              label, per(Tier::kUnaffected), per(Tier::kIndependence),
              per(Tier::kLocalTest), per(Tier::kFullCheck));
}

bool TallyClean(const char* label, const Tally& t) {
  if (t.failed == 0) return true;
  std::printf("%s: %llu failed episodes (errors %llu, deferred %llu, "
              "wrong verdict %llu)\n",
              label, static_cast<unsigned long long>(t.failed),
              static_cast<unsigned long long>(t.errors),
              static_cast<unsigned long long>(t.deferred),
              static_cast<unsigned long long>(t.mismatched));
  return false;
}

/// --trace 0: the end-to-end metrics of one process: one set-up, one timed
/// window. run.py runs several such processes per benchmark run and
/// combines them; with --samples, every episode latency (us, one per line)
/// goes to that file so the combined quantiles pool all processes.
int RunEndToEnd(const Workload& wl, const Args& args) {
  obs::SetTimingEnabled(false);
  Prepared p = Prepare(wl);
  bool correct = TallyClean("warm-up", p.warmup);

  const AccessStats a0 = p.mgr->site().stats();
  const uint64_t first_round = p.next_round;
  std::array<uint64_t, 5> round_tiers{};
  bool rounds_alike = true;
  Tally w = RunWindow(
      wl, &p, args.seconds,
      [&](const Round&, const std::vector<Reports>&, const Tally& t) {
        if (p.next_round == first_round + 1) round_tiers = t.tiers;
        rounds_alike = rounds_alike && t.tiers == round_tiers;
      });
  const AccessStats a1 = p.mgr->site().stats();
  const uint64_t rounds = p.next_round - first_round;
  const uint64_t digest = Digest(p.mgr->site().db());
  correct = TallyClean("timed window", w) && correct;
  correct = correct && digest == p.seed_digest && rounds_alike;

  const double n = static_cast<double>(w.episodes);
  size_t above_p99 = 0;
  const double p99 = Quantile(w.latency_ns, 0.99, &above_p99);
  const double affected = static_cast<double>(
      w.tier(Tier::kIndependence) + w.tier(Tier::kLocalTest) +
      w.tier(Tier::kFullCheck));
  const double settled_locally = static_cast<double>(
      w.tier(Tier::kIndependence) + w.tier(Tier::kLocalTest));
  std::vector<Metric> metrics = {
      {"episodes_per_s", n / (w.op_ns / 1e9), "1/s"},
      {"episode_p50_us", Median(w.latency_ns) / 1e3, "us"},
      {"episode_p99_us", p99 / 1e3, "us"},
      {"cpu_us_per_episode", w.cpu_ns / 1e3 / n, "us"},
      {"remote_trips_per_episode",
       static_cast<double>(a1.remote_trips - a0.remote_trips) / n, "count"},
      {"remote_tuples_per_episode",
       static_cast<double>(a1.remote_tuples - a0.remote_tuples) / n, "count"},
      {"local_settle_share", affected > 0 ? settled_locally / affected : 0,
       "ratio"},
      {"failed_share", static_cast<double>(w.failed) / n, "ratio"},
      {"setup_s", p.setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"reference_kernel_us", Median(w.reference_ns) / 1e3, "us"},
  };

  if (!args.samples.empty()) {
    std::ofstream out(args.samples);
    for (double ns : w.latency_ns) out << ns / 1e3 << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.samples.c_str());
      return 1;
    }
  }
  std::printf("workload %s seed %llu: %llu episodes in %llu rounds, "
              "%.3f s of episode time, %zu samples above p99\n",
              wl.spec().name.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(w.episodes),
              static_cast<unsigned long long>(rounds), w.op_ns / 1e9,
              above_p99);
  PrintTiers("tiers", w, rounds);
  std::printf("every round settled alike: %s\n", rounds_alike ? "yes" : "NO");
  std::printf("database digest %016llx (seed state %016llx)\n",
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(p.seed_digest));
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintResult(correct, w.episodes, w.failed, metrics);
  return 0;
}

// ---- traced run ------------------------------------------------------------

uint64_t CounterValue(obs::MetricsRegistry& reg, const char* name) {
  return reg.GetCounter(name)->value();
}

/// Count and nanosecond sum of a histogram, for window deltas.
struct HistPoint {
  uint64_t count = 0;
  uint64_t sum = 0;
};

HistPoint HistValue(obs::MetricsRegistry& reg, const std::string& name) {
  obs::HistogramSnapshot s = reg.GetHistogram(name)->Snapshot();
  return {s.count, s.sum};
}

double MeanUs(HistPoint before, HistPoint after) {
  uint64_t n = after.count - before.count;
  return n == 0 ? 0 : static_cast<double>(after.sum - before.sum) / n / 1e3;
}

struct SpanAgg {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
};

/// Per span name: count, total and self time (duration minus the part its
/// child spans cover). Spans inside mirror spans belong to the mirror and
/// are left out, as are the mirror spans themselves.
std::map<std::string, SpanAgg> AggregateSpans(
    std::vector<obs::TraceEvent> events) {
  std::sort(events.begin(), events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
              return a.dur_ns > b.dur_ns;
            });
  std::vector<double> child_ns(events.size(), 0);
  std::vector<bool> mirrored(events.size(), false);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    while (!stack.empty()) {
      const obs::TraceEvent& top = events[stack.back()];
      if (top.tid == e.tid && top.ts_ns + top.dur_ns > e.ts_ns) break;
      stack.pop_back();
    }
    mirrored[i] = e.category == "mirror";
    if (!stack.empty()) {
      child_ns[stack.back()] += static_cast<double>(e.dur_ns);
      mirrored[i] = mirrored[i] || mirrored[stack.back()];
    }
    stack.push_back(i);
  }
  std::map<std::string, SpanAgg> out;
  for (size_t i = 0; i < events.size(); ++i) {
    if (mirrored[i]) continue;
    SpanAgg& a = out[events[i].name];
    a.count += 1;
    a.total_ns += static_cast<double>(events[i].dur_ns);
    a.self_ns += static_cast<double>(events[i].dur_ns) - child_ns[i];
  }
  return out;
}

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// The traced run's report: overhead, coverage, span self times, the
/// mirror's layer calls, and every per-layer metric.
std::string LayerTable(const WorkloadSpec& spec, const Tally& plain,
                       const Tally& traced, const Tally& recorded,
                       double plain_eps, double traced_eps,
                       const std::map<std::string, SpanAgg>& spans,
                       double episode_ns, const LayerMirror& mirror,
                       const std::vector<Metric>& metrics) {
  const double n = static_cast<double>(traced.episodes);
  std::string out = "# Layer table: " + spec.name + "\n\n";
  out += Format(
      "Untraced: %llu episodes, %.1f episodes/s. Traced: %llu episodes; "
      "spans kept for the first %llu, which ran at %.1f episodes/s "
      "(tracing overhead %.3fx).\n\n",
      static_cast<unsigned long long>(plain.episodes), plain_eps,
      static_cast<unsigned long long>(traced.episodes),
      static_cast<unsigned long long>(recorded.episodes), traced_eps,
      traced_eps > 0 ? plain_eps / traced_eps : 0);
  out += Format(
      "Tiers per traced episode: independence %.3f, local-test %.3f, "
      "full-check %.3f.\n\n",
      traced.tier(Tier::kIndependence) / n, traced.tier(Tier::kLocalTest) / n,
      traced.tier(Tier::kFullCheck) / n);
  out += "## Spans of the kept episodes\n\n"
         "Self time is a span's duration minus its child spans. Coverage is "
         "the self time of every span below `manager.apply_update` over the "
         "episodes' own time; the rest of an episode is work no span names "
         "yet. Speculation spans of a pipelined manager run on worker "
         "threads beside the episode, so coverage can exceed 1 there.\n\n"
         "| span | count | total ms | self ms | self / episode time |\n"
         "|---|---:|---:|---:|---:|\n";
  for (const auto& [name, agg] : spans) {
    out += Format("| %s | %llu | %.3f | %.3f | %.4f |\n", name.c_str(),
                  static_cast<unsigned long long>(agg.count),
                  agg.total_ns / 1e6, agg.self_ns / 1e6,
                  episode_ns > 0 ? agg.self_ns / episode_ns : 0);
  }
  out += "\n## Layer calls repeated by the mirror\n\n"
         "| call | calls per episode | mean us | total ms |\n"
         "|---|---:|---:|---:|\n";
  for (const auto& [key, stat] : mirror.stats()) {
    out += Format("| %s | %.4f | %.3f | %.3f |\n", key.c_str(),
                  static_cast<double>(stat.calls) / n, stat.mean_us(),
                  stat.total_us / 1e3);
  }
  out += "\n## Per-layer metrics\n\n| metric | value | unit |\n"
         "|---|---:|---|\n";
  for (const Metric& m : metrics) {
    out += Format("| %s | %.4f | %s |\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }
  return out;
}

/// --trace 1: the per-layer metrics, the Chrome trace and the layer table.
int RunTraced(const Workload& wl, const Args& args) {
  const WorkloadSpec& spec = wl.spec();
  // Timing on through set-up, so the plan compiles of the warm-up rounds
  // land in plan.compile_latency_ns.
  obs::SetTimingEnabled(true);
  Prepared p = Prepare(wl);
  obs::SetTimingEnabled(false);
  bool correct = TallyClean("warm-up", p.warmup);

  // Untraced baseline for the tracing overhead.
  Tally plain = RunWindow(wl, &p, args.seconds * kUntracedShare,
                          [](const Round&, const std::vector<Reports>&,
                             const Tally&) {});

  LayerMirror mirror(ParseConstraints(spec), spec.local_preds,
                     DeepCopy(p.mgr->site().db()));
  obs::MetricsRegistry& reg = p.mgr->metrics();
  const char* kCounters[] = {
      "distsim.local_tuples",  "ra.nodes_evaluated",
      "plan.hits",             "plan.compiles",
      "distsim.cache_hits",    "distsim.cache_misses",
      "distsim.remote_trips",  "eval.fixpoint_rounds",
      "eval.tuples_derived",   "manager.resolved.full-check",
      "manager.pipeline.committed", "manager.pipeline.admitted",
  };
  const std::vector<std::string> kHists = {
      "manager.check_latency_ns.independence",
      "manager.check_latency_ns.local-test",
      "manager.check_latency_ns.full-check",
      "manager.remote_eval_latency_ns",
      "manager.pipeline.commit_wait_ns",
      "distsim.cache_fill_latency_ns",
  };
  std::map<std::string, uint64_t> c0;
  for (const char* c : kCounters) c0[c] = CounterValue(reg, c);
  std::map<std::string, HistPoint> h0;
  for (const std::string& h : kHists) h0[h] = HistValue(reg, h);

  obs::SetTimingEnabled(true);
  obs::TraceRecorder recorder;
  recorder.Install();
  bool recording = true;
  Tally recorded;  // the rounds whose spans were kept
  uint64_t mirror_disagreements = 0;
  Tally traced = RunWindow(
      wl, &p, args.seconds * (1 - kUntracedShare),
      [&](const Round& round, const std::vector<Reports>& reports,
          const Tally& t) {
        if (recording) {
          recorded.Add(t);
          if (recorded.episodes >= kMaxRecordedEpisodes) {
            recorder.Uninstall();
            recording = false;
          }
        }
        for (size_t i = 0; i < round.ops.size(); ++i) {
          if (reports[i].empty() ||
              !mirror.Replay(round.ops[i].update, reports[i])) {
            mirror_disagreements += 1;
          }
        }
        mirror.ApplyReset(round.reset);
      });
  recorder.Uninstall();
  obs::SetTimingEnabled(false);
  const uint64_t digest = Digest(p.mgr->site().db());
  correct = TallyClean("untraced window", plain) && correct;
  correct = TallyClean("traced window", traced) && correct;
  correct = correct && mirror_disagreements == 0 && digest == p.seed_digest;

  auto delta = [&](const char* name) {
    return static_cast<double>(CounterValue(reg, name) - c0[name]);
  };
  auto hist_us = [&](const std::string& name) {
    return MeanUs(h0[name], HistValue(reg, name));
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  auto mirror_us = [&](const char* key) {
    auto it = mirror.stats().find(key);
    return it == mirror.stats().end() ? 0 : it->second.mean_us();
  };
  auto mirror_calls = [&](const char* key) {
    auto it = mirror.stats().find(key);
    return it == mirror.stats().end() ? 0
                                      : static_cast<double>(it->second.calls);
  };
  const double n = static_cast<double>(traced.episodes);

  std::map<std::string, SpanAgg> spans = AggregateSpans(recorder.events());
  const double episode_ns = spans["manager.apply_update"].total_ns;
  double layer_self_ns = 0;
  for (const auto& [name, agg] : spans) {
    if (name != "manager.apply_update") layer_self_ns += agg.self_ns;
  }
  const SpanAgg& reads = spans["distsim.remote_read"];
  const SpanAgg& batches = spans["distsim.remote_batch"];
  const double plain_eps = plain.episodes / (plain.op_ns / 1e9);
  const double traced_eps = recorded.episodes / (recorded.op_ns / 1e9);
  double add_us = 0;
  for (double us : p.add_constraint_us) add_us += us;
  add_us /= static_cast<double>(p.add_constraint_us.size());
  const HistPoint compiles = HistValue(reg, "plan.compile_latency_ns");

  std::vector<Metric> metrics = {
      {"relational.apply_us", mirror_us("relational.apply"), "us"},
      {"relational.freeze_us", mirror_us("relational.freeze"), "us"},
      {"relational.index_builds_per_episode", traced.index_builds / n,
       "count"},
      {"relational.segment_builds_per_episode", traced.segment_builds / n,
       "count"},
      {"relational.copies_per_episode", traced.copies / n, "count"},
      {"updates.holds_after_update_us",
       mirror_us("updates.holds_after_update"), "us"},
      {"updates.calls_per_episode",
       mirror_calls("updates.holds_after_update") / n, "count"},
      {"core.icq_test_us", mirror_us("core.icq_test"), "us"},
      {"core.ra_test_us", mirror_us("core.ra_test"), "us"},
      {"core.cqc_test_us", mirror_us("core.cqc_test"), "us"},
      {"core.local_tuples_per_episode", delta("distsim.local_tuples") / n,
       "count"},
      {"ra.nodes_per_episode", delta("ra.nodes_evaluated") / n, "count"},
      {"plan.hit_ratio",
       ratio(delta("plan.hits"), delta("plan.hits") + delta("plan.compiles")),
       "ratio"},
      {"plan.compile_us", MeanUs(HistPoint{}, compiles), "us"},
      {"distsim.cache_hit_ratio",
       ratio(delta("distsim.cache_hits"),
             delta("distsim.cache_hits") + delta("distsim.cache_misses")),
       "ratio"},
      {"distsim.fill_us", hist_us("distsim.cache_fill_latency_ns"), "us"},
      {"distsim.remote_read_us",
       ratio(reads.total_ns + batches.total_ns,
             static_cast<double>(reads.count + batches.count)) /
           1e3,
       "us"},
      {"distsim.trip_sleep_us_per_episode",
       delta("distsim.remote_trips") * spec.trip_latency_us / n, "us"},
      {"eval.is_violated_us", mirror_us("eval.is_violated"), "us"},
      {"eval.fixpoint_rounds_per_episode", delta("eval.fixpoint_rounds") / n,
       "count"},
      {"eval.tuples_derived_per_episode", delta("eval.tuples_derived") / n,
       "count"},
      {"manager.check_us.independence",
       hist_us("manager.check_latency_ns.independence"), "us"},
      {"manager.check_us.local-test",
       hist_us("manager.check_latency_ns.local-test"), "us"},
      {"manager.check_us.full-check",
       hist_us("manager.check_latency_ns.full-check"), "us"},
      {"manager.remote_eval_us", hist_us("manager.remote_eval_latency_ns"),
       "us"},
      {"manager.full_checks_per_episode",
       delta("manager.resolved.full-check") / n, "count"},
      {"manager.pipeline.commit_ratio",
       ratio(delta("manager.pipeline.committed"),
             delta("manager.pipeline.admitted")),
       "ratio"},
      {"manager.pipeline.commit_wait_us",
       hist_us("manager.pipeline.commit_wait_ns"), "us"},
      {"subsumption.add_constraint_us", add_us, "us"},
      {"trace.overhead_ratio", ratio(plain_eps, traced_eps), "ratio"},
      {"trace.layer_coverage", ratio(layer_self_ns, episode_ns), "ratio"},
  };

  const std::string stem = args.out_dir + "/" + spec.name;
  Status written = recorder.WriteChromeJson(stem + ".trace.json");
  if (!written.ok()) {
    std::fprintf(stderr, "cannot write %s.trace.json: %s\n", stem.c_str(),
                 written.message().c_str());
    return 1;
  }
  std::string table = LayerTable(spec, plain, traced, recorded, plain_eps,
                                 traced_eps, spans, episode_ns, mirror,
                                 metrics);
  std::ofstream(stem + ".layers.md") << table;
  std::fputs(table.c_str(), stdout);
  if (mirror_disagreements > 0) {
    std::printf("mirror disagreed with the manager on %llu episodes\n",
                static_cast<unsigned long long>(mirror_disagreements));
  }
  std::printf("database digest %016llx (seed state %016llx)\n",
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(p.seed_digest));
  PrintResult(correct, plain.episodes + traced.episodes,
              plain.failed + traced.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace ccpi::perfbench

int main(int argc, char** argv) {
  using namespace ccpi::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: episode_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--samples FILE]\nworkloads:");
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
  return args.trace ? RunTraced(*wl, args) : RunEndToEnd(*wl, args);
}
