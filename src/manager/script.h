#ifndef CCPI_MANAGER_SCRIPT_H_
#define CCPI_MANAGER_SCRIPT_H_

#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "datalog/ast.h"
#include "distsim/cost_model.h"
#include "distsim/fault_injector.h"
#include "distsim/topology.h"
#include "manager/constraint_manager.h"
#include "relational/database.h"
#include "updates/update.h"
#include "util/status.h"

namespace ccpi {

/// Per-site overrides of the base FaultConfig, from the --site-fault-*
/// flags. Unset fields inherit the base (global) fault flags; outage
/// windows are appended to the inherited ones.
struct SiteFaultOverride {
  std::optional<double> transient_rate;
  std::optional<double> timeout_rate;
  std::optional<uint64_t> seed;
  std::vector<OutageWindow> outages;
};

/// The whole configuration of a script run: access pricing, the remote
/// topology, fault injection, and the manager's knobs. A script's option
/// directives fill it in file order; `ccpi_check` then applies its flags
/// in argv order, so whichever setting comes later wins. ScriptOptionTable
/// lists every knob reachable from either surface.
struct ScriptOptions {
  /// The manager's configuration: access pricing, the remote topology
  /// (site count, placement, per-site latency models and failure
  /// domains), resilience, the thread pool (--threads: the tier-3
  /// fan-out, prefetch and speculation; reports are identical at any
  /// thread count), hedged remote reads
  /// (--hedge-after), the episode pipeline
  /// (--pipeline-depth; the per-update log is byte-identical at any
  /// depth), and execution budgets (--deadline-ms and friends; off by
  /// default). `manager.local_preds` stays empty: RunScript takes the
  /// script's `local` lines.
  ManagerConfig manager;
  /// Remote faults to inject; used only when enable_faults is true. With
  /// N sites this is the base config every site inherits: site 0 keeps
  /// the seed verbatim, site s derives seed + s * golden-ratio so the
  /// sites draw independent schedules by default.
  FaultConfig faults;
  bool enable_faults = false;
  /// Correlated-outage windows by domain name, attached at run time to the
  /// domain of that name in `manager.topology.domains`. Naming a domain
  /// that does not exist there fails validation. Any entry implies fault
  /// injection (the expanded windows ride the per-site FaultInjectors).
  std::map<std::string, std::vector<OutageWindow>> domain_outages;
  /// Per-site fault overrides from --site-fault-rate=S:P and friends;
  /// any entry implies enable_faults.
  std::map<size_t, SiteFaultOverride> site_faults;
  /// Append the full ManagerStats block (retries, deferred/recovered
  /// outcomes, breaker state) to the report text.
  bool print_stats = false;
  /// Fill ScriptReport::metrics_json with the manager's metrics-registry
  /// dump (ccpi_check --metrics-out). Enable timing (SetTimingEnabled)
  /// before the run if the latency histograms should be populated.
  bool collect_metrics = false;
};

/// A declarative constraint-checking workload, the input format of the
/// `ccpi_check` tool. Line-oriented:
///
///     # comments with '#' or '%'
///     local reserved emp            # predicates held at this site
///     constraint no-dual            # begins a named constraint...
///     panic :- assign(E,sales) & assign(E,accounting)
///     constraint referential        # ...until the next directive
///     panic :- emp(E,D,S) & not dept(D)
///     fact emp(ann, cs, 120)        # initial data (not checked)
///     insert emp(bob, ee, 90)       # update stream, checked in order
///     delete emp(ann, cs, 120)
///     sites 3                       # remote fault domains (default 1)
///     site 1 dept assign            # pin remote preds to a site; unpinned
///                                   # ones hash to a site deterministically
///     site_latency 1 twopoint:100:5000:0.1   # per-site latency model
///     domain rack0 0 1              # correlated failure domain
///     domain_outage rack0 4 10      # whole domain dark for trips 4..9
///     hedge_after 3                 # hedge batched reads past 3x EWMA
///     pipeline 4                    # episode pipeline depth (default 1)
///
/// Constraint names are unique: a repeated `constraint NAME` is a parse
/// error naming its line. Rules may span lines exactly as in ParseProgram
/// (break after `:-`, `&` or `,`). The option directives (sites ...
/// pipeline) are rows of ScriptOptionTable: their arguments, joined by
/// ':', take the value syntax of the row's flag, so `site_latency 1
/// fixed:250` and `--site-latency=1:fixed:250` are one parse. They set
/// `options` in file order, so a later line overrides an earlier one;
/// `domain` and `site` accumulate, and `domain_outage` may precede its
/// `domain`.
struct Script {
  std::set<std::string> local_preds;
  std::vector<std::pair<std::string, Program>> constraints;
  Database initial;
  std::vector<Update> updates;
  /// The run configuration the script's directives set. RunScript runs
  /// exactly this; `ccpi_check` applies its flags on top first.
  ScriptOptions options;
};

/// Parses a script and validates its options alone (ValidateScriptOptions).
Result<Script> ParseScript(std::string_view text);

/// The outcome of running a script through the ConstraintManager.
struct ScriptReport {
  /// Human-readable per-update log plus the tier/access summary —
  /// log_text followed by summary_text, kept whole for callers that want
  /// the full transcript.
  std::string text;
  /// The per-update log alone (constraint registrations, one verb line
  /// per update, recheck/PENDING lines).
  std::string log_text;
  /// The closing summary alone ("---", tier table, access line, optional
  /// stats block). `ccpi_check` routes this to stderr so stdout stays
  /// machine-parseable.
  std::string summary_text;
  /// MetricsRegistry::ToJson() of the run's manager, when
  /// ScriptOptions::collect_metrics was set; empty otherwise.
  std::string metrics_json;
  size_t updates_applied = 0;
  /// Updates refused: violations plus, under DeferredPolicy::kReject,
  /// updates that could not be verified during an outage.
  size_t updates_rejected = 0;
  /// Updates with at least one check deferred because the remote site was
  /// unreachable (they were applied optimistically or refused, per the
  /// DeferredPolicy).
  size_t updates_deferred = 0;
  /// Deferred checks still unresolved at shutdown (remote never answered).
  size_t deferred_pending = 0;
  /// Whether any budget or queue bound was configured for this run; the
  /// budget counters of `stats` (shed_checks, budget_exhausted,
  /// deferred_dropped) can only be nonzero when it is, and `ccpi_check`
  /// prints its "budget:" stdout line (and uses the budget exit code) only
  /// then.
  bool budget_armed = false;
  /// The manager's statistics at the end of the run, shutdown drain
  /// included (violations immediate or late, deferred recoveries, budget,
  /// recovery and hedge accounting).
  ManagerStats stats;
};

/// Runs `script` under `script.options`. A configuration that fails
/// ValidateScriptOptions fails the run with that InvalidArgument, and so
/// does a constraint that AddConstraint refuses (a repeated name, or an
/// unsafe or unstratifiable program), before any update is checked.
Result<ScriptReport> RunScript(const Script& script);

/// One run option, declared once for both of its surfaces: the
/// `--flag=VALUE` command-line flag and, where it has one, the script
/// directive whose space-separated arguments, joined by ':', are the same
/// VALUE. Rows with an empty `flag` are directive-only (`site`, `domain`),
/// because their grammar and append semantics differ from the flags that
/// reach the same fields.
struct ScriptOption {
  std::string_view flag;
  std::string_view directive;
  /// The VALUE placeholder that --help shows; empty for a bare switch
  /// such as --stats, which takes no value.
  std::string_view metavar;
  /// What a rejected value should have been, for the error text.
  std::string_view wants;
  /// The --help section heading that opens at this row, if any.
  std::string_view heading;
  /// The --help description; one '\n'-separated line per output line.
  std::string_view help;
  /// Strict setter: false for a malformed or out-of-range value, in which
  /// case `options` is left untouched.
  bool (*set)(std::string_view value, ScriptOptions* options);
};

/// Every run option, in --help order.
std::span<const ScriptOption> ScriptOptionTable();

/// The --help lines of every flag row, with their section headings.
std::string ScriptOptionHelp();

/// Applies one `ccpi_check`-style `--flag=VALUE` (or bare `--switch`) from
/// ScriptOptionTable to `options`. Values are validated strictly: a
/// malformed or out-of-range value is an InvalidArgument naming the flag,
/// never a silent fallback to a default. Flags the tool handles itself
/// (--help, --export-souffle, --trace-out, ...) are not recognized here.
///
/// On return, *matched says whether `arg` was one of the table's flags;
/// the Status is non-OK only for a recognized flag with a bad value.
Status ApplyScriptFlag(std::string_view arg, ScriptOptions* options,
                       bool* matched);

/// The one cross-field check of a configuration, whichever surfaces built
/// it: the fault probabilities (global and per-site effective) sum to at
/// most 1; every site index that placement, a per-site fault override or
/// a latency model names is < manager.topology.sites; failure-domain names
/// are unique, no site is in two domains and every member is < sites; and
/// every domain outage names a domain. ParseScript, `ccpi_check` and
/// RunScript all call it.
Status ValidateScriptOptions(const ScriptOptions& options);

}  // namespace ccpi

#endif  // CCPI_MANAGER_SCRIPT_H_
