// The metric catalog in docs/observability.md is the contract for
// `ccpi_check --metrics-out`: its tables must name exactly the counters,
// gauges and histograms a freshly built manager registers — no metric
// missing from the doc, no documented metric missing from the registry —
// at one site and at several.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "manager/constraint_manager.h"

namespace ccpi {
namespace {

using Catalog = std::set<std::pair<std::string, std::string>>;  // kind, name

/// Replaces every `placeholder` in each name by each of `values`.
Catalog Expand(const Catalog& in, const std::string& placeholder,
               const std::vector<std::string>& values) {
  Catalog out;
  for (const auto& [kind, name] : in) {
    const size_t at = name.find(placeholder);
    if (at == std::string::npos) {
      out.insert({kind, name});
      continue;
    }
    for (const std::string& v : values) {
      std::string expanded = name;
      expanded.replace(at, placeholder.size(), v);
      out.insert({kind, expanded});
    }
  }
  return out;
}

/// Every table row of the doc whose second cell is a metric kind, with
/// `<tier>` and `<k>` expanded for a `sites`-site manager.
Catalog DocumentedCatalog(size_t sites) {
  std::ifstream in(CCPI_OBSERVABILITY_DOC);
  EXPECT_TRUE(in.good()) << CCPI_OBSERVABILITY_DOC;
  Catalog rows;
  std::string line;
  while (std::getline(in, line)) {
    // | `name` | kind | meaning |
    if (line.rfind("| `", 0) != 0) continue;
    const size_t name_end = line.find("` |", 3);
    if (name_end == std::string::npos) continue;
    const size_t kind_end = line.find(" |", name_end + 3);
    if (kind_end == std::string::npos) continue;
    const std::string kind = line.substr(name_end + 4, kind_end - name_end - 4);
    if (kind != "counter" && kind != "gauge" && kind != "histogram") continue;
    rows.insert({kind, line.substr(3, name_end - 3)});
  }
  std::vector<std::string> tiers;
  for (Tier t : {Tier::kSubsumed, Tier::kUnaffected, Tier::kIndependence,
                 Tier::kLocalTest, Tier::kFullCheck}) {
    tiers.push_back(TierToString(t));
  }
  std::vector<std::string> site_ids;
  for (size_t k = 0; k < sites; ++k) site_ids.push_back(std::to_string(k));
  return Expand(Expand(rows, "<tier>", tiers), "<k>", site_ids);
}

/// Every metric in a MetricsRegistry::ToJson() dump: one `"name": ...`
/// line per metric, under its "counters"/"gauges"/"histograms" section.
Catalog RegisteredCatalog(const obs::MetricsRegistry& registry) {
  std::istringstream dump(registry.ToJson());
  Catalog metrics;
  std::string kind;
  std::string line;
  while (std::getline(dump, line)) {
    if (line.rfind("  \"", 0) == 0) {
      // `  "counters": {` opens a section; the kind is its singular.
      const std::string section = line.substr(3, line.find('"', 3) - 3);
      kind = section.substr(0, section.size() - 1);
    } else if (line.rfind("    \"", 0) == 0) {
      metrics.insert({kind, line.substr(5, line.find('"', 5) - 5)});
    }
  }
  return metrics;
}

TEST(MetricCatalogTest, DocNamesExactlyTheMetricsAFreshManagerRegisters) {
  for (size_t sites : {1u, 3u}) {
    SCOPED_TRACE("sites=" + std::to_string(sites));
    TopologyConfig topology;
    topology.sites = sites;
    ConstraintManager mgr({"l"}, CostModel{}, ResilienceConfig{},
                          ParallelConfig{}, RemoteCacheConfig{},
                          BudgetConfig{}, topology);
    const Catalog documented = DocumentedCatalog(sites);
    const Catalog registered = RegisteredCatalog(mgr.metrics());
    ASSERT_FALSE(registered.empty());
    for (const auto& [kind, name] : registered) {
      EXPECT_TRUE(documented.count({kind, name}))
          << kind << " " << name << " is registered but not documented";
    }
    for (const auto& [kind, name] : documented) {
      EXPECT_TRUE(registered.count({kind, name}))
          << kind << " " << name << " is documented but not registered";
    }
  }
}

}  // namespace
}  // namespace ccpi
