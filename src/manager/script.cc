#include "manager/script.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "datalog/parser.h"
#include "manager/constraint_manager.h"
#include "util/strings.h"

namespace ccpi {

namespace {

std::string Trim(const std::string& s) {
  size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

bool EndsWithContinuation(const std::string& line) {
  if (line.empty()) return false;
  char last = line.back();
  if (last == '&' || last == ',') return true;
  return line.size() >= 2 && line.substr(line.size() - 2) == ":-";
}

/// Splits `s` at every `sep`; an empty `s` is one empty part.
std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  while (true) {
    size_t at = s.find(sep);
    parts.push_back(s.substr(0, at));
    if (at == std::string_view::npos) return parts;
    s = s.substr(at + 1);
  }
}

/// Stores an integer in [lo, hi]. The ceilings in the table keep a value
/// from sizing an allocation that aborts, overflowing the deadline clock
/// or wrapping the hedge threshold.
template <typename T>
bool SetUint(std::string_view v, uint64_t lo, uint64_t hi, T* out) {
  uint64_t n = 0;
  if (!ParseUint64(v, &n) || n < lo || n > hi) return false;
  *out = static_cast<T>(n);
  return true;
}

/// "A:B", the half-open trip window [A, B). An inverted window would be a
/// silent no-op, not an outage, so A <= B.
bool ParseWindow(std::string_view v, OutageWindow* out) {
  std::vector<std::string_view> ab = Split(v, ':');
  OutageWindow w;
  if (ab.size() != 2 || !ParseUint64(ab[0], &w.begin) ||
      !ParseUint64(ab[1], &w.end) || w.begin > w.end) {
    return false;
  }
  *out = w;
  return true;
}

/// Splits "S:rest" into a site index and the remainder.
bool SplitSitePrefix(std::string_view value, size_t* site,
                     std::string_view* rest) {
  size_t colon = value.find(':');
  uint64_t s = 0;
  if (colon == std::string_view::npos ||
      !ParseUint64(value.substr(0, colon), &s)) {
    return false;
  }
  *site = static_cast<size_t>(s);
  *rest = value.substr(colon + 1);
  return true;
}

/// Ceiling on one simulated trip: a minute. Every trip is slept for real,
/// so a larger value is a hang, not a slow network.
constexpr uint64_t kMaxTripLatencyUs = 60'000'000;

/// One microsecond parameter of a latency spec, in [1, kMaxTripLatencyUs].
bool ParseTripLatency(std::string_view v, uint64_t* out) {
  return ParseUint64(v, out) && *out >= 1 && *out <= kMaxTripLatencyUs;
}

/// "fixed:U", "uniform:LO:HI" or "twopoint:LO:HI:P". Microsecond
/// parameters must be in [1, kMaxTripLatencyUs] (a zero latency is a
/// config error, not a free network) and LO <= HI; P is a probability in
/// [0,1].
bool ParseLatencySpec(std::string_view spec, SiteLatencyOverride* out) {
  std::vector<std::string_view> parts = Split(spec, ':');
  SiteLatencyOverride o;
  if (parts[0] == "fixed" && parts.size() == 2) {
    o.model = LatencyModel::kFixed;
    if (!ParseTripLatency(parts[1], &o.fixed_us)) return false;
  } else if ((parts[0] == "uniform" && parts.size() == 3) ||
             (parts[0] == "twopoint" && parts.size() == 4)) {
    o.model = parts.size() == 3 ? LatencyModel::kUniform
                                : LatencyModel::kTwoPoint;
    if (!ParseTripLatency(parts[1], &o.lo_us) ||
        !ParseTripLatency(parts[2], &o.hi_us) || o.lo_us > o.hi_us ||
        (parts.size() == 4 && !ParseProbability(parts[3], &o.slow_share))) {
      return false;
    }
  } else {
    return false;
  }
  *out = o;
  return true;
}

/// A failure domain from its name and member-site tokens.
bool ParseDomain(std::string_view name,
                 std::span<const std::string_view> members,
                 FailureDomain* out) {
  if (name.empty() || members.empty()) return false;
  FailureDomain dom;
  dom.name = std::string(name);
  for (std::string_view m : members) {
    uint64_t site = 0;
    if (!ParseUint64(m, &site)) return false;
    dom.members.push_back(static_cast<size_t>(site));
  }
  *out = std::move(dom);
  return true;
}

bool SetRate(std::string_view v, double* rate, ScriptOptions* o) {
  if (!ParseProbability(v, rate)) return false;
  o->enable_faults = true;
  return true;
}

bool SetSiteRate(std::string_view v,
                 std::optional<double> SiteFaultOverride::*rate,
                 ScriptOptions* o) {
  size_t site = 0;
  std::string_view rest;
  double p = 0;
  if (!SplitSitePrefix(v, &site, &rest) || !ParseProbability(rest, &p)) {
    return false;
  }
  o->site_faults[site].*rate = p;
  o->enable_faults = true;
  return true;
}

/// Every run option, declared once. A directive's arguments arrive joined
/// by ':', in the flag's value syntax.
const ScriptOption kOptions[] = {
    {"stats", "", "", "", "",
     "print retry/deferred/breaker statistics\n"
     "(to stderr, with the rest of the summary)",
     [](std::string_view, ScriptOptions* o) {
       o->print_stats = true;
       return true;
     }},
    {"threads", "", "N", "a non-negative integer (at most 256)", "",
     "pool threads for the tier-3 fan-out,\n"
     "per-site prefetch and pipeline speculation\n"
     "(default 1 = sequential; reports are\n"
     "identical at any thread count)",
     [](std::string_view v, ScriptOptions* o) {
       return SetUint(v, 0, 256, &o->manager.parallel.threads);
     }},
    {"pipeline-depth", "pipeline", "N", "a positive integer", "",
     "episode pipeline depth (default 1 = serial;\n"
     "N>1 speculates check phases ahead while\n"
     "commits stay serialized in admission order,\n"
     "so stdout is byte-identical at any depth);\n"
     "overrides the script's pipeline directive",
     [](std::string_view v, ScriptOptions* o) {
       return SetUint(v, 1, UINT64_MAX, &o->manager.pipeline.depth);
     }},
    {"fault-rate", "", "P", "a probability in [0,1]",
     "Fault injection (simulated remote-site failures)",
     "per-trip transient failure probability [0,1]",
     [](std::string_view v, ScriptOptions* o) {
       return SetRate(v, &o->faults.transient_rate, o);
     }},
    {"fault-timeout-rate", "", "P", "a probability in [0,1]", "",
     "per-trip timeout probability [0,1]",
     [](std::string_view v, ScriptOptions* o) {
       return SetRate(v, &o->faults.timeout_rate, o);
     }},
    {"fault-outage", "", "A:B", "A:B with integer trips, A <= B", "",
     "hard outage for remote trips A..B-1\n"
     "(repeatable)",
     [](std::string_view v, ScriptOptions* o) {
       OutageWindow w;
       if (!ParseWindow(v, &w)) return false;
       o->faults.outages.push_back(w);
       o->enable_faults = true;
       return true;
     }},
    {"fault-seed", "", "N", "a non-negative integer", "",
     "RNG seed of the failure schedule (default 1)",
     [](std::string_view v, ScriptOptions* o) {
       return SetUint(v, 0, UINT64_MAX, &o->faults.seed);
     }},
    {"fault-reject", "", "", "", "",
     "refuse undecided updates instead of applying\n"
     "them optimistically with a deferred re-check",
     [](std::string_view, ScriptOptions* o) {
       o->manager.resilience.on_unreachable = DeferredPolicy::kReject;
       return true;
     }},
    {"sites", "sites", "N", "a positive integer (at most 1024)",
     "Topology (N remote sites, see docs/distsim.md)",
     "number of remote fault domains (default 1);\n"
     "each site owns its own breaker, cache, and\n"
     "failure schedule, and checks touching only\n"
     "healthy sites keep completing during a\n"
     "single-site outage",
     [](std::string_view v, ScriptOptions* o) {
       return SetUint(v, 1, 1024, &o->manager.topology.sites);
     }},
    {"placement", "", "p:0,q:1", "pred:site pairs like p:0,q:1", "",
     "pin remote predicates to sites; unpinned\n"
     "predicates hash to a site deterministically",
     [](std::string_view v, ScriptOptions* o) {
       std::map<std::string, size_t> pins;
       for (std::string_view pair : Split(v, ',')) {
         size_t colon = pair.find(':');
         uint64_t s = 0;
         if (colon == std::string_view::npos || colon == 0 ||
             !ParseUint64(pair.substr(colon + 1), &s)) {
           return false;
         }
         pins[std::string(pair.substr(0, colon))] = static_cast<size_t>(s);
       }
       for (auto& [pred, s] : pins) o->manager.topology.placement[pred] = s;
       return true;
     }},
    {"", "site", "", "SITE then the predicates it holds", "", "",
     [](std::string_view v, ScriptOptions* o) {
       std::vector<std::string_view> parts = Split(v, ':');
       uint64_t s = 0;
       if (parts.size() < 2 || !ParseUint64(parts[0], &s)) return false;
       for (size_t i = 1; i < parts.size(); ++i) {
         o->manager.topology.placement[std::string(parts[i])] =
             static_cast<size_t>(s);
       }
       return true;
     }},
    {"site-fault-rate", "", "S:P", "SITE:PROBABILITY", "",
     "per-site override of --fault-rate",
     [](std::string_view v, ScriptOptions* o) {
       return SetSiteRate(v, &SiteFaultOverride::transient_rate, o);
     }},
    {"site-fault-timeout-rate", "", "S:P", "SITE:PROBABILITY", "",
     "per-site override of --fault-timeout-rate",
     [](std::string_view v, ScriptOptions* o) {
       return SetSiteRate(v, &SiteFaultOverride::timeout_rate, o);
     }},
    {"site-fault-outage", "", "S:A:B", "SITE:A:B with trips A <= B", "",
     "outage for site S's trips A..B-1 (repeatable)",
     [](std::string_view v, ScriptOptions* o) {
       size_t site = 0;
       std::string_view rest;
       OutageWindow w;
       if (!SplitSitePrefix(v, &site, &rest) || !ParseWindow(rest, &w)) {
         return false;
       }
       o->site_faults[site].outages.push_back(w);
       o->enable_faults = true;
       return true;
     }},
    {"site-fault-seed", "", "S:N", "SITE:SEED", "",
     "per-site override of the derived seed",
     [](std::string_view v, ScriptOptions* o) {
       size_t site = 0;
       std::string_view rest;
       uint64_t seed = 0;
       if (!SplitSitePrefix(v, &site, &rest) || !ParseUint64(rest, &seed)) {
         return false;
       }
       o->site_faults[site].seed = seed;
       o->enable_faults = true;
       return true;
     }},
    {"site-latency", "site_latency",
     "S:fixed:U | S:uniform:LO:HI | S:twopoint:LO:HI:P",
     "SITE:fixed:U, SITE:uniform:LO:HI or SITE:twopoint:LO:HI:P "
     "(microseconds 1..60000000, LO <= HI)",
     "",
     "per-site trip-latency model (microseconds,\n"
     "1..60000000 = one minute, LO <= HI;\n"
     "twopoint draws HI with probability P,\n"
     "else LO; draws are deterministic per\n"
     "seed; repeatable)",
     [](std::string_view v, ScriptOptions* o) {
       size_t site = 0;
       std::string_view rest;
       SiteLatencyOverride model;
       if (!SplitSitePrefix(v, &site, &rest) ||
           !ParseLatencySpec(rest, &model)) {
         return false;
       }
       o->manager.topology.site_latency[site] = model;
       return true;
     }},
    {"hedge-after", "hedge_after", "N",
     "a non-negative EWMA multiple (0 = off, at most 1000)", "",
     "hedge a batched remote read whose drawn\n"
     "latency exceeds N x the site's observed\n"
     "EWMA with one deterministic backup trip\n"
     "(0 = off, default; each issued hedge bills\n"
     "one extra trip, tuples are counted once)",
     [](std::string_view v, ScriptOptions* o) {
       return SetUint(v, 0, 1000, &o->manager.remote_cache.hedge_after);
     }},
    {"domains", "", "NAME:S0+S1,...", "NAME:S0+S1,... domain specs", "",
     "correlated failure domains; a site may\n"
     "belong to at most one (replaces the\n"
     "script's domain directives wholesale)",
     [](std::string_view v, ScriptOptions* o) {
       std::vector<FailureDomain> domains;
       for (std::string_view spec : Split(v, ',')) {
         size_t colon = spec.find(':');
         FailureDomain dom;
         if (colon == std::string_view::npos ||
             !ParseDomain(spec.substr(0, colon),
                          Split(spec.substr(colon + 1), '+'), &dom)) {
           return false;
         }
         domains.push_back(std::move(dom));
       }
       o->manager.topology.domains = std::move(domains);
       return true;
     }},
    {"", "domain", "", "NAME then member site indices", "", "",
     [](std::string_view v, ScriptOptions* o) {
       std::vector<std::string_view> parts = Split(v, ':');
       FailureDomain dom;
       if (!ParseDomain(parts[0], std::span(parts).subspan(1), &dom)) {
         return false;
       }
       o->manager.topology.domains.push_back(std::move(dom));
       return true;
     }},
    {"domain-outage", "domain_outage", "NAME:A:B",
     "NAME:A:B with trips A <= B", "",
     "outage for trips A..B of every member site\n"
     "of NAME (repeatable; implies fault\n"
     "injection)",
     [](std::string_view v, ScriptOptions* o) {
       size_t colon = v.find(':');
       OutageWindow w;
       if (colon == 0 || colon == std::string_view::npos ||
           !ParseWindow(v.substr(colon + 1), &w)) {
         return false;
       }
       o->domain_outages[std::string(v.substr(0, colon))].push_back(w);
       return true;
     }},
    {"deadline-ms", "", "N",
     "a non-negative integer (0 = none, at most 86400000)",
     "Execution budgets and overload control (see docs/budgets.md)",
     "wall-clock budget per update episode; checks\n"
     "that would run past it are shed to the\n"
     "deferred queue (0 = no deadline, default)",
     [](std::string_view v, ScriptOptions* o) {
       return SetUint(v, 0, 86'400'000,
                      &o->manager.budget.episode_deadline_ms);
     }},
    {"max-fixpoint-rounds", "", "N", "a non-negative integer (0 = unlimited)",
     "",
     "per-check cap on fixpoint rounds\n"
     "(0 = unlimited, default)",
     [](std::string_view v, ScriptOptions* o) {
       return SetUint(v, 0, UINT64_MAX,
                      &o->manager.budget.per_check.max_fixpoint_rounds);
     }},
    {"max-derived-tuples", "", "N", "a non-negative integer (0 = unlimited)",
     "",
     "per-check cap on derived tuples\n"
     "(0 = unlimited, default)",
     [](std::string_view v, ScriptOptions* o) {
       return SetUint(v, 0, UINT64_MAX,
                      &o->manager.budget.per_check.max_derived_tuples);
     }},
    {"deferred-queue-cap", "", "N", "a non-negative integer (0 = unbounded)",
     "",
     "bound on queued deferred re-checks\n"
     "(0 = unbounded, default)",
     [](std::string_view v, ScriptOptions* o) {
       return SetUint(v, 0, UINT64_MAX,
                      &o->manager.budget.deferred_queue_cap);
     }},
    {"overflow-policy", "", "P", "reject-update, shed-oldest or block-recheck",
     "",
     "reject-update | shed-oldest | block-recheck:\n"
     "what to do when the queue cap is hit\n"
     "(default reject-update)",
     [](std::string_view v, ScriptOptions* o) {
       for (auto [name, policy] :
            {std::pair{"reject-update", OverflowPolicy::kRejectUpdate},
             std::pair{"shed-oldest", OverflowPolicy::kShedOldest},
             std::pair{"block-recheck", OverflowPolicy::kBlockRecheck}}) {
         if (v != name) continue;
         o->manager.budget.overflow = policy;
         return true;
       }
       return false;
     }},
};

/// Parses "pred(c1, c2, ...)" into a ground atom.
Result<std::pair<std::string, Tuple>> ParseGroundAtom(
    const std::string& text) {
  CCPI_ASSIGN_OR_RETURN(Rule rule, ParseRule(text));
  if (!rule.body.empty()) {
    return Status::InvalidArgument("expected a plain fact, got a rule: " +
                                   text);
  }
  Tuple t;
  t.reserve(rule.head.args.size());
  for (const Term& arg : rule.head.args) {
    if (!arg.is_const()) {
      return Status::InvalidArgument("fact arguments must be constants: " +
                                     text);
    }
    t.push_back(arg.constant());
  }
  return std::make_pair(rule.head.pred, std::move(t));
}

/// The row of a directive keyword; `keyword` is never empty.
const ScriptOption* FindDirective(std::string_view keyword) {
  for (const ScriptOption& row : kOptions) {
    if (row.directive == keyword) return &row;
  }
  return nullptr;
}

}  // namespace

std::span<const ScriptOption> ScriptOptionTable() { return kOptions; }

std::string ScriptOptionHelp() {
  constexpr size_t kColumn = 26;
  std::string out;
  for (const ScriptOption& row : kOptions) {
    if (row.flag.empty()) continue;
    if (!row.heading.empty()) out += "\n" + std::string(row.heading) + ":\n";
    std::string lead = "  --" + std::string(row.flag);
    if (!row.metavar.empty()) lead += "=" + std::string(row.metavar);
    out += lead + (lead.size() < kColumn
                       ? std::string(kColumn - lead.size(), ' ')
                       : "\n" + std::string(kColumn, ' '));
    std::vector<std::string_view> lines = Split(row.help, '\n');
    for (size_t i = 0; i < lines.size(); ++i) {
      if (i > 0) out += std::string(kColumn, ' ');
      out += std::string(lines[i]) + "\n";
    }
  }
  return out;
}

Result<Script> ParseScript(std::string_view text) {
  Script script;
  std::string current_name;
  std::string current_rules;
  auto flush_constraint = [&]() -> Status {
    if (current_name.empty()) return Status::OK();
    CCPI_ASSIGN_OR_RETURN(Program program, ParseProgram(current_rules));
    if (program.rules.empty()) {
      return Status::InvalidArgument("constraint " + current_name +
                                     " has no rules");
    }
    script.constraints.emplace_back(current_name, std::move(program));
    current_name.clear();
    current_rules.clear();
    return Status::OK();
  };

  std::istringstream in{std::string(text)};
  std::string raw;
  bool continuing = false;
  int line_number = 0;
  while (std::getline(in, raw)) {
    ++line_number;
    size_t comment = raw.find_first_of("#%");
    if (comment != std::string::npos) raw = raw.substr(0, comment);
    std::string line = Trim(raw);
    if (line.empty()) continue;

    // A continuation line of a multi-line rule inside a constraint block.
    if (continuing) {
      current_rules += " " + line + "\n";
      continuing = EndsWithContinuation(line);
      continue;
    }

    std::istringstream ls(line);
    std::string keyword;
    ls >> keyword;
    std::string rest = Trim(line.substr(keyword.size()));
    if (keyword == "local") {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      std::string pred;
      while (ls >> pred) script.local_preds.insert(pred);
    } else if (const ScriptOption* row = FindDirective(keyword)) {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      std::string value, token;
      while (ls >> token) value += (value.empty() ? "" : ":") + token;
      if (!row->set(value, &script.options)) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) + ": " + keyword +
            " wants " + std::string(row->wants) + ", got \"" + rest + "\"");
      }
    } else if (keyword == "constraint") {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      if (rest.empty()) {
        return Status::InvalidArgument("line " + std::to_string(line_number) +
                                       ": constraint needs a name");
      }
      for (const auto& [name, program] : script.constraints) {
        if (name == rest) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_number) + ": constraint " + rest +
              " is already defined");
        }
      }
      current_name = rest;
    } else if (keyword == "fact") {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      CCPI_ASSIGN_OR_RETURN(auto fact, ParseGroundAtom(rest));
      CCPI_RETURN_IF_ERROR(
          script.initial.Insert(fact.first, std::move(fact.second)));
    } else if (keyword == "insert" || keyword == "delete") {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      CCPI_ASSIGN_OR_RETURN(auto atom, ParseGroundAtom(rest));
      script.updates.push_back(keyword == "insert"
                                   ? Update::Insert(atom.first, atom.second)
                                   : Update::Delete(atom.first, atom.second));
    } else {
      // A rule line of the current constraint.
      if (current_name.empty()) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": rule outside a constraint block: " + line);
      }
      current_rules += line + "\n";
      continuing = EndsWithContinuation(line);
    }
  }
  CCPI_RETURN_IF_ERROR(flush_constraint());
  CCPI_RETURN_IF_ERROR(ValidateScriptOptions(script.options));
  return script;
}

Status ApplyScriptFlag(std::string_view arg, ScriptOptions* options,
                       bool* matched) {
  *matched = false;
  if (arg.substr(0, 2) != "--") return Status::OK();
  arg.remove_prefix(2);
  for (const ScriptOption& row : kOptions) {
    if (row.flag.empty() || arg.substr(0, row.flag.size()) != row.flag) {
      continue;
    }
    std::string_view value = arg.substr(row.flag.size());
    // A bare switch is the whole argument; a valued flag is "--flag=VALUE".
    if (row.metavar.empty() ? !value.empty()
                            : value.empty() || value[0] != '=') {
      continue;
    }
    if (!value.empty()) value.remove_prefix(1);
    *matched = true;
    if (row.set(value, options)) return Status::OK();
    return Status::InvalidArgument("--" + std::string(row.flag) + " wants " +
                                   std::string(row.wants) + ", got \"" +
                                   std::string(value) + "\"");
  }
  return Status::OK();
}

Status ValidateScriptOptions(const ScriptOptions& options) {
  const size_t sites = options.manager.topology.sites;
  auto beyond = [sites](const std::string& claim) {
    return Status::InvalidArgument(claim + " but the topology has " +
                                   std::to_string(sites) + " site(s)");
  };
  if (options.faults.transient_rate + options.faults.timeout_rate > 1.0) {
    return Status::InvalidArgument(
        "the transient and timeout fault rates must sum to <= 1");
  }
  for (const auto& [site, o] : options.site_faults) {
    double transient =
        o.transient_rate.value_or(options.faults.transient_rate);
    double timeout = o.timeout_rate.value_or(options.faults.timeout_rate);
    if (transient + timeout > 1.0) {
      return Status::InvalidArgument(
          "site " + std::to_string(site) +
          ": effective fault rates must sum to <= 1");
    }
    if (site >= sites) {
      return beyond("a per-site fault override names site " +
                    std::to_string(site));
    }
  }
  for (const auto& [pred, site] : options.manager.topology.placement) {
    if (site >= sites) {
      return beyond("placement pins " + pred + " to site " +
                    std::to_string(site));
    }
  }
  for (const auto& [site, model] : options.manager.topology.site_latency) {
    (void)model;
    if (site >= sites) {
      return beyond("site_latency names site " + std::to_string(site));
    }
  }
  std::set<std::string> names;
  std::set<size_t> claimed;
  for (const FailureDomain& dom : options.manager.topology.domains) {
    if (!names.insert(dom.name).second) {
      return Status::InvalidArgument("failure domain \"" + dom.name +
                                     "\" is declared twice");
    }
    for (size_t member : dom.members) {
      if (member >= sites) {
        return beyond("failure domain \"" + dom.name + "\" claims site " +
                      std::to_string(member));
      }
      if (!claimed.insert(member).second) {
        return Status::InvalidArgument(
            "site " + std::to_string(member) +
            " is a member of two failure domains");
      }
    }
  }
  for (const auto& [name, windows] : options.domain_outages) {
    (void)windows;
    if (names.count(name) == 0) {
      return Status::InvalidArgument(
          "domain_outage names undefined domain \"" + name + "\"");
    }
  }
  return Status::OK();
}

Result<ScriptReport> RunScript(const Script& script) {
  const ScriptOptions& options = script.options;
  CCPI_RETURN_IF_ERROR(ValidateScriptOptions(options));
  ManagerConfig config = options.manager;
  config.local_preds = script.local_preds;
  const CostModel& costs = config.costs;
  // Domain outages attach by name to the domains (validation guarantees
  // each name resolves).
  const TopologyConfig& topology = config.topology;
  for (FailureDomain& dom : config.topology.domains) {
    auto it = options.domain_outages.find(dom.name);
    if (it == options.domain_outages.end()) continue;
    dom.outages.insert(dom.outages.end(), it->second.begin(),
                       it->second.end());
  }

  ConstraintManager mgr(config);
  // Correlated failure domains ride the per-site injectors: each domain's
  // outage windows are copied to every member site, so the whole domain
  // goes dark (and recovers) together. Any expanded window arms fault
  // injection even without --fault-* flags.
  std::vector<std::vector<OutageWindow>> domain_windows =
      ExpandDomainOutages(topology);
  bool any_domain_outage = false;
  for (const std::vector<OutageWindow>& windows : domain_windows) {
    if (!windows.empty()) any_domain_outage = true;
  }
  // One injector per site, each with its own schedule. Site 0 inherits
  // the base config (and seed) verbatim — a 1-site faulted run is
  // bit-identical to the pre-topology tool — while site s>0 derives
  // seed + s * golden-ratio so sites fail independently unless a
  // --site-fault-seed pins them together.
  std::vector<std::unique_ptr<FaultInjector>> injectors;
  if (options.enable_faults || any_domain_outage) {
    for (size_t s = 0; s < topology.sites; ++s) {
      FaultConfig cfg = options.faults;
      if (s > 0) cfg.seed = cfg.seed + s * 0x9e3779b97f4a7c15ull;
      auto it = options.site_faults.find(s);
      if (it != options.site_faults.end()) {
        const SiteFaultOverride& o = it->second;
        if (o.transient_rate) cfg.transient_rate = *o.transient_rate;
        if (o.timeout_rate) cfg.timeout_rate = *o.timeout_rate;
        if (o.seed) cfg.seed = *o.seed;
        cfg.outages.insert(cfg.outages.end(), o.outages.begin(),
                           o.outages.end());
      }
      if (s < domain_windows.size()) {
        cfg.outages.insert(cfg.outages.end(), domain_windows[s].begin(),
                           domain_windows[s].end());
      }
      injectors.push_back(std::make_unique<FaultInjector>(cfg));
      mgr.site().set_site_fault_injector(s, injectors.back().get());
    }
  }
  std::ostringstream out;
  for (const auto& [name, program] : script.constraints) {
    CCPI_ASSIGN_OR_RETURN(bool subsumed, mgr.AddConstraint(name, program));
    out << "constraint " << name
        << (subsumed ? " (redundant: subsumed by earlier constraints)" : "")
        << "\n";
  }
  // Initial facts are installed without checking (the paper's standing
  // assumption is that constraints hold before the first update).
  for (const std::string& pred : script.initial.PredicateNames()) {
    // Get returns the stored relation whatever arity hint is passed.
    const Relation& rel = script.initial.Get(pred, 0);
    for (const Tuple& t : rel.rows()) {
      CCPI_RETURN_IF_ERROR(mgr.site().db().Insert(pred, t));
    }
  }

  bool reject_on_defer =
      config.resilience.on_unreachable == DeferredPolicy::kReject;
  ScriptReport report;
  auto log_update = [&](const Update& u,
                        const std::vector<CheckReport>& checks) {
    bool rejected = false;
    bool deferred = false;
    bool overflow = false;
    std::string detail;
    for (const CheckReport& c : checks) {
      if (c.outcome == Outcome::kViolated) {
        rejected = true;
        detail += " violates:" + c.constraint + "(" + TierToString(c.tier) +
                  ")";
      } else if (c.outcome == Outcome::kDeferred) {
        deferred = true;
        overflow = overflow || c.queue_overflow;
        // A budget-shed check reads "shed:", an unreachable-site deferral
        // "deferred:" — unbudgeted runs can never print the former.
        detail += (c.reason == StatusCode::kResourceExhausted ? " shed:"
                                                              : " deferred:") +
                  c.constraint;
      }
    }
    bool refused = deferred && (reject_on_defer || overflow);
    const char* verb = rejected   ? "REJECT "
                       : !deferred ? "apply  "
                       : refused   ? "REFUSE "
                                   : "DEFER  ";
    out << verb << u.ToString() << detail << "\n";
    if (deferred) ++report.updates_deferred;
    if (rejected || refused) {
      ++report.updates_rejected;
    } else {
      ++report.updates_applied;
    }
  };
  // Every depth drives through the pipeline: at depth 1 ApplyUpdateAsync
  // runs the episode on admission, exactly as ApplyUpdate would. Results
  // come back in admission order, so the verb lines are byte-identical at
  // any depth, and the first errored result fails the run.
  for (const Update& u : script.updates) mgr.ApplyUpdateAsync(u);
  std::vector<Result<std::vector<CheckReport>>> results = mgr.Drain();
  for (size_t i = 0; i < results.size(); ++i) {
    CCPI_RETURN_IF_ERROR(results[i].status());
    log_update(script.updates[i], *results[i]);
  }

  // Shutdown drain: give the deferred queue a last chance to resolve (the
  // outage may have ended after the final update). Simulated time is free
  // at shutdown, so wait out the breaker cooldown between rounds; stop
  // when a round makes no progress (the site is still unreachable).
  while (!mgr.deferred_queue().empty()) {
    mgr.TickBreaker(config.resilience.breaker.cooldown_ticks + 1);
    CCPI_ASSIGN_OR_RETURN(std::vector<DeferredResolution> late,
                          mgr.RecheckDeferred());
    if (late.empty()) break;
    for (const DeferredResolution& r : late) {
      out << "recheck " << r.check.update.ToString() << " "
          << r.check.constraint << ": " << OutcomeToString(r.outcome)
          << (r.rolled_back ? " (rolled back)" : "") << "\n";
    }
  }
  for (const DeferredCheck& d : mgr.deferred_queue()) {
    out << "PENDING " << d.update.ToString() << " " << d.constraint
        << " (remote site never answered)\n";
  }
  report.stats = mgr.stats();
  const ManagerStats& stats = report.stats;
  report.deferred_pending = mgr.deferred_queue().size();
  report.budget_armed =
      config.budget.armed() || config.budget.deferred_queue_cap != 0;

  std::ostringstream summary;
  summary << "---\n";
  for (const auto& [tier, count] : stats.resolved_by) {
    summary << "tier " << TierToString(tier) << ": " << count << " checks\n";
  }
  const AccessStats& access = stats.access;
  summary << "access: " << access.local_tuples << " local tuples, "
          << access.remote_tuples << " remote tuples in "
          << access.remote_trips << " trips (cost " << access.Cost(costs)
          << ")\n";
  summary << "cache: " << access.cache_hits << " remote reads served ("
          << access.cached_tuples << " cached tuples)\n";
  if (options.print_stats) {
    // Diagnostics only: plan.* counters live outside ManagerStats.
    summary << "plans: " << mgr.metrics().GetCounter("plan.compiles")->value()
            << " compiles, " << mgr.metrics().GetCounter("plan.hits")->value()
            << " hits, "
            << mgr.metrics().GetCounter("plan.delta_tuples")->value()
            << " delta bindings\n";
  }
  if (options.print_stats) {
    summary << "remote: " << stats.remote_attempts << " attempts, "
            << stats.remote_retries << " retries, " << stats.remote_failures
            << " failed episodes, " << access.remote_failures
            << " failed trips\n";
    summary << "deferred: " << stats.deferred << " checks ("
            << stats.breaker_fast_fails << " breaker fast-fails), "
            << stats.deferred_recovered << " recovered, "
            << stats.deferred_violations << " late violations, "
            << report.deferred_pending << " pending\n";
    const CircuitBreaker& site0 = mgr.site_breaker(0);
    summary << "breaker: " << CircuitStateToString(site0.state())
            << " (opened " << site0.times_opened() << "x)\n";
    if (mgr.sites() > 1) {
      for (size_t s = 0; s < mgr.sites(); ++s) {
        const AccessStats& ss = mgr.site().site_stats(s);
        const CircuitBreaker& b = mgr.site_breaker(s);
        summary << "site" << s << ": breaker "
                << CircuitStateToString(b.state()) << " (opened "
                << b.times_opened() << "x), " << ss.remote_trips
                << " trips, " << ss.remote_failures << " failed, "
                << ss.cache_hits << " cache hits\n";
      }
      summary << "recovery: " << stats.sites_recovered
              << " site recoveries, " << stats.cache_revalidated
              << " cache entries revalidated\n";
    }
    // The hedge and latency lines exist only when their feature does, so
    // a default-config --stats block is byte-identical to earlier tools.
    if (config.remote_cache.hedge_after > 0) {
      summary << "hedge: " << stats.hedges_issued << " issued, "
              << stats.hedges_won << " won, " << stats.hedges_wasted
              << " wasted\n";
    }
    bool latency_models = costs.latency_model != LatencyModel::kFixed;
    for (const auto& [site, o] : topology.site_latency) {
      (void)site;
      if (o.model != LatencyModel::kFixed) latency_models = true;
    }
    if (latency_models) {
      summary << "latency: " << stats.latency_shed
              << " checks shed by EWMA projection\n";
    }
    if (report.budget_armed) {
      summary << "budget: " << stats.t3_admitted << " admitted, "
              << stats.shed_checks << " shed, " << stats.budget_exhausted
              << " exhausted, " << stats.deferred_dropped << " dropped\n";
    }
  }
  if (options.collect_metrics) {
    report.metrics_json = mgr.metrics().ToJson();
  }
  report.log_text = out.str();
  report.summary_text = summary.str();
  report.text = report.log_text + report.summary_text;
  return report;
}

}  // namespace ccpi
