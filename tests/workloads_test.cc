// Runs every sample workload shipped in examples/workloads through the
// script engine and checks the headline outcomes, so the CLI samples can
// never rot.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "manager/script.h"
#include "obs/trace.h"

namespace ccpi {
namespace {

std::string ReadWorkload(const std::string& name) {
  std::ifstream in(std::string(CCPI_WORKLOAD_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "missing workload " << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(WorkloadsTest, Inventory) {
  auto script = ParseScript(ReadWorkload("inventory.ccpi"));
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->updates_applied, 6u);
  EXPECT_EQ(report->updates_rejected, 2u);
  EXPECT_NE(report->text.find("tier local-test"), std::string::npos);
}

/// Pipelined speculation sleeps each cold prefetch batch once, whatever the
/// pipeline depth. With a 1-thread pool every admission speculates inline
/// on the admitting thread before any commit fills the cache, so each used
/// to sleep its own copy of the same staged trip (one `distsim.stage_batch`
/// span each) while `--stats` counted one trip in total. The report,
/// `--stats` block included, is the serial one.
TEST(WorkloadsTest, InventoryPipelinedStagesEachColdBatchOnce) {
  auto run = [](const std::vector<std::string>& flags, size_t* staged) {
    auto script = ParseScript(ReadWorkload("inventory.ccpi"));
    EXPECT_TRUE(script.ok()) << script.status().ToString();
    for (const std::string& flag : flags) {
      bool matched = false;
      EXPECT_TRUE(ApplyScriptFlag(flag, &script->options, &matched).ok());
      EXPECT_TRUE(matched) << flag;
    }
    obs::TraceRecorder recorder;
    recorder.Install();
    auto report = RunScript(*script);
    recorder.Uninstall();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    *staged = 0;
    for (const obs::TraceEvent& e : recorder.events()) {
      *staged += e.name == "distsim.stage_batch";
    }
    return report.ok() ? report->text : std::string();
  };
  const std::vector<std::string> base = {"--site-latency=0:fixed:20000",
                                         "--stats"};
  size_t serial_staged = 0;
  const std::string serial = run(base, &serial_staged);
  EXPECT_EQ(serial_staged, 0u);  // depth 1 never speculates
  EXPECT_NE(serial.find(" in 1 trips"), std::string::npos) << serial;

  std::vector<std::string> pipelined = base;
  pipelined.push_back("--pipeline-depth=8");
  pipelined.push_back("--threads=1");
  size_t staged = 0;
  EXPECT_EQ(run(pipelined, &staged), serial);
  EXPECT_EQ(staged, 1u);
}

TEST(WorkloadsTest, Salary) {
  auto script = ParseScript(ReadWorkload("salary.ccpi"));
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->text.find("cap-500 (redundant"), std::string::npos);
  EXPECT_EQ(report->updates_rejected, 2u);  // carol's salary + ann's dual
}

TEST(WorkloadsTest, Sensors) {
  auto script = ParseScript(ReadWorkload("sensors.ccpi"));
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto report = RunScript(*script);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->updates_applied, 4u);
  EXPECT_EQ(report->updates_rejected, 2u);
  // The sub-window inserts resolved without touching readings remotely.
  EXPECT_NE(report->text.find("tier local-test"), std::string::npos);
}

}  // namespace
}  // namespace ccpi
