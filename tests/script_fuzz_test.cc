// Deterministic mutational fuzzing of the two configuration surfaces. A
// fixed-seed corpus, drawn from examples/workloads/*.ccpi and one sample
// value per ScriptOptionTable row, is mutated and fed to ParseScript,
// ApplyScriptFlag and ValidateScriptOptions. The contract: no crash (the
// sanitizer builds run this binary too), and every failure is an
// InvalidArgument with a message.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "manager/script.h"
#include "util/rng.h"

namespace ccpi {
namespace {

constexpr uint64_t kSeed = 20240615;
constexpr int kScriptIterations = 2000;
constexpr int kFlagIterations = 4000;

/// Every row's key: its flag, or its directive when it has no flag.
std::string RowKey(const ScriptOption& row) {
  return std::string(row.flag.empty() ? row.directive : row.flag);
}

/// One well-formed value per row, in the flag's value syntax.
const std::map<std::string, std::string>& Samples() {
  static const std::map<std::string, std::string> samples = {
      {"stats", ""},
      {"threads", "4"},
      {"remote-cache", "off"},
      {"plan-cache", "off"},
      {"columnar", "off"},
      {"pipeline-depth", "4"},
      {"fault-rate", "0.25"},
      {"fault-timeout-rate", "0.25"},
      {"fault-outage", "2:8"},
      {"fault-seed", "7"},
      {"fault-reject", ""},
      {"sites", "4"},
      {"placement", "p:0,q:1"},
      {"site", "1:p:q"},
      {"site-fault-rate", "1:0.5"},
      {"site-fault-timeout-rate", "1:0.25"},
      {"site-fault-outage", "1:2:8"},
      {"site-fault-seed", "1:9"},
      {"site-latency", "1:twopoint:100:5000:0.1"},
      {"hedge-after", "3"},
      {"domains", "rack0:0+1,rack1:2"},
      {"domain", "rack9:2:3"},
      {"domain-outage", "rack0:4:10"},
      {"deadline-ms", "750"},
      {"max-fixpoint-rounds", "6"},
      {"max-derived-tuples", "100"},
      {"deferred-queue-cap", "32"},
      {"overflow-policy", "shed-oldest"},
  };
  return samples;
}

/// The script line a directive row's sample value reads as.
std::string DirectiveLine(const ScriptOption& row) {
  std::string value = Samples().at(RowKey(row));
  std::replace(value.begin(), value.end(), ':', ' ');
  return std::string(row.directive) + " " + value + "\n";
}

/// Every directive row, set up so the script validates.
std::string DirectiveScript() {
  std::string text = "sites 4\ndomain rack0 0 1\n";
  for (const ScriptOption& row : ScriptOptionTable()) {
    if (!row.directive.empty()) text += DirectiveLine(row);
  }
  return text;
}

std::vector<std::string> ScriptCorpus() {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(CCPI_WORKLOAD_DIR)) {
    if (entry.path().extension() == ".ccpi") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> corpus;
  for (const std::filesystem::path& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    corpus.push_back(text.str());
  }
  corpus.push_back(DirectiveScript());
  return corpus;
}

/// Tokens a mutation may splice in: the table's names and values that
/// sit on a parser's edge.
std::vector<std::string> Dictionary() {
  std::vector<std::string> words = {
      "", ":", ",", "+", " ", "\n", "#", "(", ")", "-1", "0", "1", "1.5",
      "nan", "on", "off", "fixed", "uniform", "twopoint", "rack0",
      "18446744073709551615", "18446744073709551616", "4611686018427387904",
      "constraint c\n", "panic :- ", "insert p(1)\n", "fact q(a, 2)\n"};
  for (const ScriptOption& row : ScriptOptionTable()) {
    if (!row.flag.empty()) words.push_back(std::string(row.flag));
    if (!row.directive.empty()) words.push_back(std::string(row.directive));
    words.push_back(Samples().at(RowKey(row)));
  }
  return words;
}

std::string Mutate(std::string s, Rng& rng,
                   const std::vector<std::string>& dict) {
  int rounds = static_cast<int>(rng.Range(1, 4));
  for (int i = 0; i < rounds; ++i) {
    size_t at = s.empty() ? 0 : rng.Below(s.size() + 1);
    switch (rng.Below(5)) {
      case 0:  // overwrite one byte
        if (!s.empty()) {
          s[std::min(at, s.size() - 1)] =
              static_cast<char>(rng.Range(0x20, 0x7e));
        }
        break;
      case 1:  // delete a short range
        s.erase(at, rng.Below(16));
        break;
      case 2:  // splice in a dictionary word
        s.insert(at, dict[rng.Below(dict.size())]);
        break;
      case 3:  // duplicate a short range
        s.insert(at, s.substr(rng.Below(s.size() + 1), rng.Below(32)));
        break;
      default:  // truncate
        s.resize(at);
        break;
    }
  }
  return s;
}

void ExpectInvalidArgument(const Status& st, const std::string& input) {
  if (st.ok()) return;
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
      << st.ToString() << "\ninput:\n" << input;
  EXPECT_FALSE(st.message().empty()) << input;
}

TEST(ScriptFuzzTest, EveryRowSampleIsWellFormed) {
  for (const ScriptOption& row : ScriptOptionTable()) {
    ASSERT_EQ(Samples().count(RowKey(row)), 1u)
        << "no sample for " << RowKey(row);
    if (row.flag.empty()) continue;
    std::string arg = "--" + std::string(row.flag);
    if (!row.metavar.empty()) arg += "=" + Samples().at(RowKey(row));
    ScriptOptions options;
    bool matched = false;
    EXPECT_TRUE(ApplyScriptFlag(arg, &options, &matched).ok()) << arg;
    EXPECT_TRUE(matched) << arg;
  }
  auto script = ParseScript(DirectiveScript());
  EXPECT_TRUE(script.ok()) << script.status().ToString();
}

TEST(ScriptFuzzTest, MutatedScriptsFailCleanly) {
  const std::vector<std::string> corpus = ScriptCorpus();
  const std::vector<std::string> dict = Dictionary();
  ASSERT_GT(corpus.size(), 1u);
  Rng rng(kSeed);
  for (int i = 0; i < kScriptIterations; ++i) {
    std::string text = Mutate(corpus[rng.Below(corpus.size())], rng, dict);
    Result<Script> script = ParseScript(text);
    if (script.ok()) {
      // ParseScript validated the options, so they validate again.
      EXPECT_TRUE(ValidateScriptOptions(script->options).ok()) << text;
    } else {
      ExpectInvalidArgument(script.status(), text);
    }
  }
}

TEST(ScriptFuzzTest, MutatedFlagsFailCleanly) {
  std::vector<const ScriptOption*> flags;
  for (const ScriptOption& row : ScriptOptionTable()) {
    if (!row.flag.empty()) flags.push_back(&row);
  }
  const std::vector<std::string> dict = Dictionary();
  Rng rng(kSeed + 1);
  for (int i = 0; i < kFlagIterations; ++i) {
    // A short argv, applied in order onto one configuration.
    ScriptOptions options;
    std::string argv;
    for (int n = static_cast<int>(rng.Range(1, 6)); n > 0; --n) {
      const ScriptOption& row = *flags[rng.Below(flags.size())];
      std::string arg = "--" + std::string(row.flag);
      if (!row.metavar.empty()) arg += "=";
      arg += Samples().at(RowKey(row));
      if (rng.Chance(3, 4)) arg = Mutate(arg, rng, dict);
      argv += arg + " ";
      bool matched = false;
      Status st = ApplyScriptFlag(arg, &options, &matched);
      ExpectInvalidArgument(st, arg);
      if (!st.ok()) {
        EXPECT_TRUE(matched) << arg;
        EXPECT_NE(st.message().find("--"), std::string::npos) << arg;
      }
    }
    ExpectInvalidArgument(ValidateScriptOptions(options), argv);
  }
}

}  // namespace
}  // namespace ccpi
