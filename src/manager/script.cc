#include "manager/script.h"

#include <memory>
#include <optional>
#include <sstream>

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

/// Parses a latency-model spec — "fixed:U", "uniform:LO:HI" or
/// "twopoint:LO:HI:P" — shared by the `site_latency` directive and the
/// --site-latency flag. Microsecond parameters must be >= 1 (a zero or
/// negative latency is a config error, not a free network) and LO <= HI;
/// P is a probability in [0,1].
bool ParseLatencySpec(std::string_view spec, SiteLatencyOverride* out) {
  std::vector<std::string_view> parts;
  while (true) {
    size_t colon = spec.find(':');
    parts.push_back(spec.substr(0, colon));
    if (colon == std::string_view::npos) break;
    spec = spec.substr(colon + 1);
  }
  SiteLatencyOverride o;
  if (parts[0] == "fixed" && parts.size() == 2) {
    o.model = LatencyModel::kFixed;
    if (!ParseUint64(parts[1], &o.fixed_us) || o.fixed_us == 0) return false;
  } else if (parts[0] == "uniform" && parts.size() == 3) {
    o.model = LatencyModel::kUniform;
    if (!ParseUint64(parts[1], &o.lo_us) ||
        !ParseUint64(parts[2], &o.hi_us) || o.lo_us == 0 ||
        o.lo_us > o.hi_us) {
      return false;
    }
  } else if (parts[0] == "twopoint" && parts.size() == 4) {
    o.model = LatencyModel::kTwoPoint;
    if (!ParseUint64(parts[1], &o.lo_us) ||
        !ParseUint64(parts[2], &o.hi_us) || o.lo_us == 0 ||
        o.lo_us > o.hi_us || !ParseProbability(parts[3], &o.slow_share)) {
      return false;
    }
  } else {
    return false;
  }
  *out = o;
  return true;
}

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

}  // namespace

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
    } else if (keyword == "sites") {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      uint64_t n = 0;
      if (!ParseUint64(rest, &n) || n == 0) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": sites wants a positive integer, got \"" + rest + "\"");
      }
      script.topology.sites = static_cast<size_t>(n);
    } else if (keyword == "site") {
      // "site K p q ..." pins remote predicates p, q to site K.
      CCPI_RETURN_IF_ERROR(flush_constraint());
      std::string index_text;
      ls >> index_text;
      uint64_t index = 0;
      if (!ParseUint64(index_text, &index)) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": site wants an index then predicates, got \"" + rest + "\"");
      }
      std::string pred;
      size_t pinned = 0;
      while (ls >> pred) {
        script.topology.placement[pred] = static_cast<size_t>(index);
        ++pinned;
      }
      if (pinned == 0) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": site " + index_text + " pins no predicates");
      }
    } else if (keyword == "site_latency") {
      // "site_latency K SPEC" gives site K its own latency model.
      CCPI_RETURN_IF_ERROR(flush_constraint());
      std::string index_text, spec;
      ls >> index_text >> spec;
      uint64_t index = 0;
      SiteLatencyOverride o;
      if (!ParseUint64(index_text, &index) || spec.empty() ||
          !ParseLatencySpec(spec, &o)) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": site_latency wants SITE then fixed:U, uniform:LO:HI or "
            "twopoint:LO:HI:P (microseconds >= 1, LO <= HI), got \"" +
            rest + "\"");
      }
      script.topology.site_latency[static_cast<size_t>(index)] = o;
    } else if (keyword == "domain") {
      // "domain NAME S1 S2 ..." declares a correlated failure domain.
      CCPI_RETURN_IF_ERROR(flush_constraint());
      std::string name;
      ls >> name;
      FailureDomain dom;
      dom.name = name;
      std::string member_text;
      while (ls >> member_text) {
        uint64_t m = 0;
        if (!ParseUint64(member_text, &m)) {
          return Status::InvalidArgument(
              "line " + std::to_string(line_number) +
              ": domain wants NAME then member site indices, got \"" +
              rest + "\"");
        }
        dom.members.push_back(static_cast<size_t>(m));
      }
      if (name.empty() || dom.members.empty()) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": domain wants NAME then at least one member site, got \"" +
            rest + "\"");
      }
      script.topology.domains.push_back(std::move(dom));
    } else if (keyword == "domain_outage") {
      // "domain_outage NAME A B" darkens every member of NAME for the
      // half-open trip window [A, B), same convention as --fault-outage.
      // The domain must be declared above.
      CCPI_RETURN_IF_ERROR(flush_constraint());
      std::string name, begin_text, end_text;
      ls >> name >> begin_text >> end_text;
      uint64_t begin = 0, end = 0;
      if (name.empty() || !ParseUint64(begin_text, &begin) ||
          !ParseUint64(end_text, &end) || begin > end) {
        // An inverted window would be a silent no-op, not an outage.
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": domain_outage wants NAME A B with trips A <= B, got \"" +
            rest + "\"");
      }
      bool found = false;
      for (FailureDomain& dom : script.topology.domains) {
        if (dom.name != name) continue;
        dom.outages.push_back(OutageWindow{begin, end});
        found = true;
        break;
      }
      if (!found) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": domain_outage names undefined domain \"" + name + "\"");
      }
    } else if (keyword == "hedge_after") {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      uint64_t n = 0;
      if (!ParseUint64(rest, &n)) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": hedge_after wants a non-negative EWMA multiple (0 = off), "
            "got \"" + rest + "\"");
      }
      script.hedge_after = n;
    } else if (keyword == "plan_cache") {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      if (rest == "on") {
        script.plan_cache = true;
      } else if (rest == "off") {
        script.plan_cache = false;
      } else {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": plan_cache wants on or off, got \"" + rest + "\"");
      }
    } else if (keyword == "pipeline") {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      uint64_t n = 0;
      if (!ParseUint64(rest, &n) || n == 0) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) +
            ": pipeline wants a positive depth, got \"" + rest + "\"");
      }
      script.pipeline_depth = static_cast<size_t>(n);
    } else if (keyword == "constraint") {
      CCPI_RETURN_IF_ERROR(flush_constraint());
      if (rest.empty()) {
        return Status::InvalidArgument("line " + std::to_string(line_number) +
                                       ": constraint needs a name");
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
  for (const auto& [pred, s] : script.topology.placement) {
    if (s >= script.topology.sites) {
      return Status::InvalidArgument(
          "site " + std::to_string(s) + " pins predicate " + pred +
          " but the script declares only " +
          std::to_string(script.topology.sites) + " site(s)");
    }
  }
  // Directive order is free (`sites` may follow `domain`), so domain and
  // latency site indices are checked here, like placement above.
  std::set<std::string> domain_names;
  std::set<size_t> claimed;
  for (const FailureDomain& dom : script.topology.domains) {
    if (!domain_names.insert(dom.name).second) {
      return Status::InvalidArgument("domain \"" + dom.name +
                                     "\" is declared twice");
    }
    for (size_t member : dom.members) {
      if (member >= script.topology.sites) {
        return Status::InvalidArgument(
            "domain \"" + dom.name + "\" claims site " +
            std::to_string(member) + " but the script declares only " +
            std::to_string(script.topology.sites) + " site(s)");
      }
      if (!claimed.insert(member).second) {
        return Status::InvalidArgument(
            "site " + std::to_string(member) +
            " is a member of two failure domains");
      }
    }
  }
  for (const auto& [site, o] : script.topology.site_latency) {
    (void)o;
    if (site >= script.topology.sites) {
      return Status::InvalidArgument(
          "site_latency names site " + std::to_string(site) +
          " but the script declares only " +
          std::to_string(script.topology.sites) + " site(s)");
    }
  }
  return script;
}

namespace {

/// "--name=value" accessor: if `arg` starts with "--<name>=", returns the
/// value part; otherwise nullopt.
std::optional<std::string_view> FlagValue(std::string_view arg,
                                          std::string_view name) {
  if (arg.size() < name.size() + 3 || arg.substr(0, 2) != "--") {
    return std::nullopt;
  }
  if (arg.substr(2, name.size()) != name) return std::nullopt;
  if (arg[2 + name.size()] != '=') return std::nullopt;
  return arg.substr(name.size() + 3);
}

Status BadFlag(std::string_view name, std::string_view wants,
               std::string_view got) {
  return Status::InvalidArgument("--" + std::string(name) + " wants " +
                                 std::string(wants) + ", got \"" +
                                 std::string(got) + "\"");
}

/// Splits "S:rest" into a site index and the remainder; the --site-fault-*
/// flags all use this prefix.
bool SplitSitePrefix(std::string_view value, size_t* site,
                     std::string_view* rest) {
  size_t colon = value.find(':');
  if (colon == std::string_view::npos) return false;
  uint64_t s = 0;
  if (!ParseUint64(value.substr(0, colon), &s)) return false;
  *site = static_cast<size_t>(s);
  *rest = value.substr(colon + 1);
  return true;
}

}  // namespace

Status ApplyScriptFlag(std::string_view arg, ScriptOptions* options,
                       bool* matched) {
  *matched = true;
  if (auto v = FlagValue(arg, "threads")) {
    uint64_t n = 0;
    if (!ParseUint64(*v, &n)) {
      return BadFlag("threads", "a non-negative integer", *v);
    }
    options->parallel.threads = static_cast<size_t>(n);
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "remote-cache")) {
    if (*v == "on") {
      options->remote_cache.enabled = true;
    } else if (*v == "off") {
      options->remote_cache.enabled = false;
    } else {
      return BadFlag("remote-cache", "on or off", *v);
    }
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "plan-cache")) {
    if (*v == "on") {
      options->plan_cache.enabled = true;
    } else if (*v == "off") {
      options->plan_cache.enabled = false;
    } else {
      return BadFlag("plan-cache", "on or off", *v);
    }
    options->plan_cache_from_flags = true;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "columnar")) {
    if (*v == "on") {
      options->columnar = true;
    } else if (*v == "off") {
      options->columnar = false;
    } else {
      return BadFlag("columnar", "on or off", *v);
    }
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "pipeline-depth")) {
    uint64_t n = 0;
    if (!ParseUint64(*v, &n) || n == 0) {
      return BadFlag("pipeline-depth", "a positive integer", *v);
    }
    options->pipeline.depth = static_cast<size_t>(n);
    options->pipeline_from_flags = true;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "fault-rate")) {
    double rate = 0;
    if (!ParseProbability(*v, &rate)) {
      return BadFlag("fault-rate", "a probability in [0,1]", *v);
    }
    options->faults.transient_rate = rate;
    options->enable_faults = true;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "fault-timeout-rate")) {
    double rate = 0;
    if (!ParseProbability(*v, &rate)) {
      return BadFlag("fault-timeout-rate", "a probability in [0,1]", *v);
    }
    options->faults.timeout_rate = rate;
    options->enable_faults = true;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "fault-seed")) {
    uint64_t n = 0;
    if (!ParseUint64(*v, &n)) {
      return BadFlag("fault-seed", "a non-negative integer", *v);
    }
    options->faults.seed = n;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "fault-outage")) {
    size_t colon = v->find(':');
    uint64_t begin = 0, end = 0;
    if (colon == std::string_view::npos ||
        !ParseUint64(v->substr(0, colon), &begin) ||
        !ParseUint64(v->substr(colon + 1), &end) || begin > end) {
      // An inverted window would be a silent no-op, not an outage.
      return BadFlag("fault-outage", "A:B with integer trips, A <= B", *v);
    }
    options->faults.outages.push_back(OutageWindow{begin, end});
    options->enable_faults = true;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "deadline-ms")) {
    uint64_t n = 0;
    if (!ParseUint64(*v, &n)) {
      return BadFlag("deadline-ms", "a non-negative integer (0 = none)", *v);
    }
    options->budget.per_episode.deadline_ms = n;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "max-fixpoint-rounds")) {
    uint64_t n = 0;
    if (!ParseUint64(*v, &n)) {
      return BadFlag("max-fixpoint-rounds",
                     "a non-negative integer (0 = unlimited)", *v);
    }
    options->budget.per_check.max_fixpoint_rounds = n;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "max-derived-tuples")) {
    uint64_t n = 0;
    if (!ParseUint64(*v, &n)) {
      return BadFlag("max-derived-tuples",
                     "a non-negative integer (0 = unlimited)", *v);
    }
    options->budget.per_check.max_derived_tuples = n;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "deferred-queue-cap")) {
    uint64_t n = 0;
    if (!ParseUint64(*v, &n)) {
      return BadFlag("deferred-queue-cap",
                     "a non-negative integer (0 = unbounded)", *v);
    }
    options->budget.deferred_queue_cap = static_cast<size_t>(n);
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "overflow-policy")) {
    if (*v == "reject-update") {
      options->budget.overflow = OverflowPolicy::kRejectUpdate;
    } else if (*v == "shed-oldest") {
      options->budget.overflow = OverflowPolicy::kShedOldest;
    } else if (*v == "block-recheck") {
      options->budget.overflow = OverflowPolicy::kBlockRecheck;
    } else {
      return BadFlag("overflow-policy",
                     "reject-update, shed-oldest or block-recheck", *v);
    }
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "sites")) {
    uint64_t n = 0;
    if (!ParseUint64(*v, &n) || n == 0) {
      return BadFlag("sites", "a positive integer", *v);
    }
    options->topology.sites = static_cast<size_t>(n);
    options->topology_from_flags = true;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "placement")) {
    // "p:0,q:1" — comma-separated predicate:site pairs.
    std::string_view remaining = *v;
    while (!remaining.empty()) {
      size_t comma = remaining.find(',');
      std::string_view pair = remaining.substr(0, comma);
      remaining = comma == std::string_view::npos
                      ? std::string_view{}
                      : remaining.substr(comma + 1);
      size_t colon = pair.find(':');
      uint64_t s = 0;
      if (colon == std::string_view::npos || colon == 0 ||
          !ParseUint64(pair.substr(colon + 1), &s)) {
        return BadFlag("placement", "pred:site pairs like p:0,q:1", *v);
      }
      options->topology.placement[std::string(pair.substr(0, colon))] =
          static_cast<size_t>(s);
    }
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "site-fault-rate")) {
    size_t site = 0;
    std::string_view rest;
    double rate = 0;
    if (!SplitSitePrefix(*v, &site, &rest) ||
        !ParseProbability(rest, &rate)) {
      return BadFlag("site-fault-rate", "SITE:PROBABILITY", *v);
    }
    options->site_faults[site].transient_rate = rate;
    options->enable_faults = true;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "site-fault-timeout-rate")) {
    size_t site = 0;
    std::string_view rest;
    double rate = 0;
    if (!SplitSitePrefix(*v, &site, &rest) ||
        !ParseProbability(rest, &rate)) {
      return BadFlag("site-fault-timeout-rate", "SITE:PROBABILITY", *v);
    }
    options->site_faults[site].timeout_rate = rate;
    options->enable_faults = true;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "site-fault-seed")) {
    size_t site = 0;
    std::string_view rest;
    uint64_t n = 0;
    if (!SplitSitePrefix(*v, &site, &rest) || !ParseUint64(rest, &n)) {
      return BadFlag("site-fault-seed", "SITE:SEED", *v);
    }
    options->site_faults[site].seed = n;
    options->enable_faults = true;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "site-fault-outage")) {
    size_t site = 0;
    std::string_view rest;
    if (!SplitSitePrefix(*v, &site, &rest)) {
      return BadFlag("site-fault-outage", "SITE:A:B with trips A <= B", *v);
    }
    size_t colon = rest.find(':');
    uint64_t begin = 0, end = 0;
    if (colon == std::string_view::npos ||
        !ParseUint64(rest.substr(0, colon), &begin) ||
        !ParseUint64(rest.substr(colon + 1), &end) || begin > end) {
      return BadFlag("site-fault-outage", "SITE:A:B with trips A <= B", *v);
    }
    options->site_faults[site].outages.push_back(OutageWindow{begin, end});
    options->enable_faults = true;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "site-latency")) {
    size_t site = 0;
    std::string_view rest;
    SiteLatencyOverride o;
    if (!SplitSitePrefix(*v, &site, &rest) || !ParseLatencySpec(rest, &o)) {
      return BadFlag("site-latency",
                     "SITE:fixed:U, SITE:uniform:LO:HI or "
                     "SITE:twopoint:LO:HI:P (microseconds >= 1, LO <= HI)",
                     *v);
    }
    options->topology.site_latency[site] = o;
    options->site_latency_from_flags = true;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "hedge-after")) {
    uint64_t n = 0;
    if (!ParseUint64(*v, &n)) {
      return BadFlag("hedge-after", "a non-negative EWMA multiple (0 = off)",
                     *v);
    }
    options->remote_cache.hedge_after = n;
    options->hedge_from_flags = true;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "domains")) {
    // "NAME:S0+S1,NAME2:S2" — comma-separated domains, '+'-separated
    // member sites. Replaces the script's `domain` directives wholesale.
    std::vector<FailureDomain> domains;
    std::string_view remaining = *v;
    while (!remaining.empty()) {
      size_t comma = remaining.find(',');
      std::string_view spec = remaining.substr(0, comma);
      remaining = comma == std::string_view::npos
                      ? std::string_view{}
                      : remaining.substr(comma + 1);
      size_t colon = spec.find(':');
      if (colon == std::string_view::npos || colon == 0) {
        return BadFlag("domains", "NAME:S0+S1,... domain specs", *v);
      }
      FailureDomain dom;
      dom.name = std::string(spec.substr(0, colon));
      std::string_view members = spec.substr(colon + 1);
      while (!members.empty()) {
        size_t plus = members.find('+');
        uint64_t m = 0;
        if (!ParseUint64(members.substr(0, plus), &m)) {
          return BadFlag("domains", "NAME:S0+S1,... domain specs", *v);
        }
        dom.members.push_back(static_cast<size_t>(m));
        members = plus == std::string_view::npos ? std::string_view{}
                                                 : members.substr(plus + 1);
      }
      if (dom.members.empty()) {
        return BadFlag("domains", "NAME:S0+S1,... domain specs", *v);
      }
      domains.push_back(std::move(dom));
    }
    if (domains.empty()) {
      return BadFlag("domains", "NAME:S0+S1,... domain specs", *v);
    }
    options->topology.domains = std::move(domains);
    options->domains_from_flags = true;
    return Status::OK();
  }
  if (auto v = FlagValue(arg, "domain-outage")) {
    size_t colon = v->find(':');
    uint64_t begin = 0, end = 0;
    if (colon == std::string_view::npos || colon == 0) {
      return BadFlag("domain-outage", "NAME:A:B with trips A <= B", *v);
    }
    std::string_view rest = v->substr(colon + 1);
    size_t colon2 = rest.find(':');
    if (colon2 == std::string_view::npos ||
        !ParseUint64(rest.substr(0, colon2), &begin) ||
        !ParseUint64(rest.substr(colon2 + 1), &end) || begin > end) {
      // An inverted window would be a silent no-op, not an outage.
      return BadFlag("domain-outage", "NAME:A:B with trips A <= B", *v);
    }
    options->domain_outages[std::string(v->substr(0, colon))].push_back(
        OutageWindow{begin, end});
    return Status::OK();
  }
  if (arg == "--fault-reject") {
    options->resilience.on_unreachable = DeferredPolicy::kReject;
    return Status::OK();
  }
  if (arg == "--stats") {
    options->print_stats = true;
    return Status::OK();
  }
  *matched = false;
  return Status::OK();
}

Status ValidateScriptOptions(const ScriptOptions& options) {
  if (options.faults.transient_rate + options.faults.timeout_rate > 1.0) {
    return Status::InvalidArgument(
        "--fault-rate and --fault-timeout-rate must sum to <= 1");
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
  }
  if (options.topology_from_flags) {
    for (const auto& [pred, s] : options.topology.placement) {
      if (s >= options.topology.sites) {
        return Status::InvalidArgument(
            "--placement pins " + pred + " to site " + std::to_string(s) +
            " but --sites=" + std::to_string(options.topology.sites));
      }
    }
    for (const auto& [site, o] : options.site_faults) {
      (void)o;
      if (site >= options.topology.sites) {
        return Status::InvalidArgument(
            "--site-fault-* names site " + std::to_string(site) +
            " but --sites=" + std::to_string(options.topology.sites));
      }
    }
    for (const auto& [site, o] : options.topology.site_latency) {
      (void)o;
      if (site >= options.topology.sites) {
        return Status::InvalidArgument(
            "--site-latency names site " + std::to_string(site) +
            " but --sites=" + std::to_string(options.topology.sites));
      }
    }
  }
  std::set<std::string> domain_names;
  std::set<size_t> claimed;
  for (const FailureDomain& dom : options.topology.domains) {
    if (!domain_names.insert(dom.name).second) {
      return Status::InvalidArgument("--domains defines domain \"" +
                                     dom.name + "\" twice");
    }
    for (size_t member : dom.members) {
      if (!claimed.insert(member).second) {
        return Status::InvalidArgument(
            "--domains puts site " + std::to_string(member) +
            " in two failure domains");
      }
      if (options.topology_from_flags && member >= options.topology.sites) {
        return Status::InvalidArgument(
            "--domains claims site " + std::to_string(member) +
            " but --sites=" + std::to_string(options.topology.sites));
      }
    }
  }
  if (options.domains_from_flags) {
    for (const auto& [name, windows] : options.domain_outages) {
      (void)windows;
      if (domain_names.find(name) == domain_names.end()) {
        return Status::InvalidArgument(
            "--domain-outage names domain \"" + name +
            "\" but --domains does not define it");
      }
    }
  }
  return Status::OK();
}

Result<ScriptReport> RunScript(const Script& script, const CostModel& costs) {
  ScriptOptions options;
  options.costs = costs;
  return RunScript(script, options);
}

Result<ScriptReport> RunScript(const Script& script,
                               const ScriptOptions& options) {
  const CostModel& costs = options.costs;
  // Effective topology: the script's directives, overridden field-wise by
  // the command line (--sites replaces the count; --placement entries win
  // per predicate).
  TopologyConfig topology = script.topology;
  if (options.topology_from_flags) topology.sites = options.topology.sites;
  for (const auto& [pred, s] : options.topology.placement) {
    topology.placement[pred] = s;
  }
  for (const auto& [pred, s] : topology.placement) {
    if (s >= topology.sites) {
      return Status::InvalidArgument(
          "placement pins " + pred + " to site " + std::to_string(s) +
          " but the topology has " + std::to_string(topology.sites) +
          " site(s)");
    }
  }
  for (const auto& [site, o] : options.site_faults) {
    (void)o;
    if (site >= topology.sites) {
      return Status::InvalidArgument(
          "--site-fault-* names site " + std::to_string(site) +
          " but the topology has " + std::to_string(topology.sites) +
          " site(s)");
    }
  }
  // Per-site latency models: flag entries override the script's
  // site-wise. Failure domains: --domains replaces the script's
  // wholesale, then --domain-outage windows attach to the effective
  // domains by name.
  for (const auto& [site, o] : options.topology.site_latency) {
    topology.site_latency[site] = o;
  }
  if (options.domains_from_flags) topology.domains = options.topology.domains;
  for (const auto& [name, windows] : options.domain_outages) {
    FailureDomain* dom = nullptr;
    for (FailureDomain& d : topology.domains) {
      if (d.name == name) {
        dom = &d;
        break;
      }
    }
    if (dom == nullptr) {
      return Status::InvalidArgument(
          "--domain-outage names domain \"" + name +
          "\" but the effective topology does not define it");
    }
    dom->outages.insert(dom->outages.end(), windows.begin(), windows.end());
  }
  // Re-validate the merged topology (script domains may now pair with
  // --sites, or vice versa) so a bad combination is a graceful error,
  // not a Topology-constructor CHECK failure.
  {
    std::set<std::string> names;
    std::set<size_t> claimed;
    for (const FailureDomain& dom : topology.domains) {
      if (!names.insert(dom.name).second) {
        return Status::InvalidArgument("failure domain \"" + dom.name +
                                       "\" is defined twice");
      }
      for (size_t member : dom.members) {
        if (member >= topology.sites) {
          return Status::InvalidArgument(
              "failure domain \"" + dom.name + "\" claims site " +
              std::to_string(member) + " but the topology has " +
              std::to_string(topology.sites) + " site(s)");
        }
        if (!claimed.insert(member).second) {
          return Status::InvalidArgument(
              "site " + std::to_string(member) +
              " is a member of two failure domains");
        }
      }
    }
  }
  for (const auto& [site, o] : topology.site_latency) {
    (void)o;
    if (site >= topology.sites) {
      return Status::InvalidArgument(
          "site_latency names site " + std::to_string(site) +
          " but the topology has " + std::to_string(topology.sites) +
          " site(s)");
    }
  }

  // Effective plan-cache switch: an explicit --plan-cache flag wins over
  // the script's own directive, which wins over the default (on).
  PlanCacheConfig plan_cache = options.plan_cache;
  if (!options.plan_cache_from_flags && script.plan_cache.has_value()) {
    plan_cache.enabled = *script.plan_cache;
  }

  // Effective pipeline depth: an explicit --pipeline-depth flag wins over
  // the script's own `pipeline` directive, which wins over the default
  // (1 = serial).
  PipelineConfig pipeline = options.pipeline;
  if (!options.pipeline_from_flags && script.pipeline_depth.has_value()) {
    pipeline.depth = *script.pipeline_depth;
  }

  // Effective hedging threshold: an explicit --hedge-after flag wins over
  // the script's own `hedge_after` directive, which wins over the default
  // (0 = off).
  RemoteCacheConfig remote_cache = options.remote_cache;
  if (!options.hedge_from_flags && script.hedge_after.has_value()) {
    remote_cache.hedge_after = *script.hedge_after;
  }

  // Columnar read path: a process-wide switch on Relation, applied before
  // the manager freezes anything. Semantically invisible (byte-identical
  // reports either way); off forces every evaluator down the
  // row-at-a-time path.
  Relation::SetColumnarEnabled(options.columnar);

  ConstraintManager mgr(script.local_preds, costs, options.resilience,
                        options.parallel, remote_cache,
                        options.budget, topology, plan_cache, pipeline);
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
      options.resilience.on_unreachable == DeferredPolicy::kReject;
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
  if (pipeline.depth > 1) {
    // Pipelined drive: admit the whole stream, then read results back in
    // admission order. Commits are serialized inside the manager, so the
    // verb lines below are byte-identical to the serial loop; the first
    // errored result aborts the run exactly where the serial
    // ASSIGN_OR_RETURN would have.
    for (const Update& u : script.updates) mgr.ApplyUpdateAsync(u);
    std::vector<Result<std::vector<CheckReport>>> results = mgr.Drain();
    for (size_t i = 0; i < results.size(); ++i) {
      CCPI_RETURN_IF_ERROR(results[i].status());
      log_update(script.updates[i], *results[i]);
    }
  } else {
    for (const Update& u : script.updates) {
      CCPI_ASSIGN_OR_RETURN(std::vector<CheckReport> checks,
                            mgr.ApplyUpdate(u));
      log_update(u, checks);
    }
  }

  // Shutdown drain: give the deferred queue a last chance to resolve (the
  // outage may have ended after the final update). Simulated time is free
  // at shutdown, so wait out the breaker cooldown between rounds; stop
  // when a round makes no progress (the site is still unreachable).
  while (!mgr.deferred_queue().empty()) {
    mgr.TickBreaker(options.resilience.breaker.cooldown_ticks + 1);
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
  const ManagerStats stats = mgr.stats();
  report.deferred_recovered = stats.deferred_recovered;
  report.deferred_violations = stats.deferred_violations;
  report.deferred_pending = mgr.deferred_queue().size();
  report.violations = stats.violations;
  report.budget_armed =
      options.budget.armed() || options.budget.deferred_queue_cap != 0;
  report.shed_checks = stats.shed_checks;
  report.budget_exhausted = stats.budget_exhausted;
  report.deferred_dropped = stats.deferred_dropped;
  report.sites_recovered = stats.sites_recovered;
  report.cache_revalidated = stats.cache_revalidated;
  report.hedges_issued = stats.hedges_issued;
  report.hedges_won = stats.hedges_won;
  report.hedges_wasted = stats.hedges_wasted;
  report.latency_shed = stats.latency_shed;

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
  if (options.remote_cache.enabled) {
    summary << "cache: " << access.cache_hits << " remote reads served ("
            << access.cached_tuples << " cached tuples)\n";
  }
  if (plan_cache.enabled && options.print_stats) {
    // Diagnostics only: plan.* counters live outside ManagerStats, so the
    // report proper stays byte-identical cache on/off; this line exists
    // only when the cache does.
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
    if (remote_cache.hedge_after > 0) {
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
