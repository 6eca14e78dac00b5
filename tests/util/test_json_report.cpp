// JsonReport must emit valid JSON by construction: keys and string values
// are escaped, numeric values stay bare literals (ISSUE 4 satellite — the
// old writer fprintf'ed keys raw, so a '"' or '\' produced unparseable
// BENCH_*.json files).
#include "bench/bench_common.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

namespace pmc::bench {
namespace {

std::string write_and_read(const JsonReport& json, const std::string& path) {
  std::string flag = "--json=" + path;
  char prog[] = "test";
  char* argv[] = {prog, flag.data()};
  EXPECT_TRUE(json.maybe_write(2, argv));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

TEST(JsonReport, WritesPlainMetricsUnchanged) {
  JsonReport json("demo");
  json.add("explored", static_cast<uint64_t>(42));
  json.add("ratio", 0.5);
  json.add("mode", std::string("sleepset"));
  const std::string out =
      write_and_read(json, testing::TempDir() + "json_plain.json");
  EXPECT_EQ(out,
            "{\n  \"bench\": \"demo\",\n  \"explored\": 42,\n"
            "  \"ratio\": 0.5,\n  \"mode\": \"sleepset\"\n}\n");
}

TEST(JsonReport, EscapesQuotesBackslashesAndControlCharacters) {
  JsonReport json("de\"mo");
  json.add(std::string("key\"with\\quote"), static_cast<uint64_t>(1));
  json.add("value", std::string("a\"b\\c\nd\te"));
  const std::string out =
      write_and_read(json, testing::TempDir() + "json_escape.json");
  EXPECT_EQ(out,
            "{\n  \"bench\": \"de\\\"mo\",\n"
            "  \"key\\\"with\\\\quote\": 1,\n"
            "  \"value\": \"a\\\"b\\\\c\\nd\\te\"\n}\n");
  // No raw quote/backslash survives unescaped: every '"' in the output is
  // either structural or preceded by a backslash.
  for (size_t i = 1; i + 1 < out.size(); ++i) {
    if (out[i] == '\n') continue;
    if (out[i] == '\\') {
      EXPECT_NE(std::string("\"\\nrtu").find(out[i + 1]), std::string::npos)
          << "stray backslash at offset " << i;
      ++i;  // the escaped character is accounted for
    }
  }
}

TEST(JsonReport, NonFiniteDoublesWriteZero) {
  // "%.6g" renders these as nan/inf, which no JSON parser accepts.
  JsonReport json("demo");
  json.add("nan", std::numeric_limits<double>::quiet_NaN());
  json.add("inf", std::numeric_limits<double>::infinity());
  json.add("neg_inf", -std::numeric_limits<double>::infinity());
  const std::string out =
      write_and_read(json, testing::TempDir() + "json_nonfinite.json");
  EXPECT_EQ(out,
            "{\n  \"bench\": \"demo\",\n  \"nan\": 0,\n  \"inf\": 0,\n"
            "  \"neg_inf\": 0\n}\n");
}

TEST(JsonReport, NoJsonFlagWritesNothing) {
  JsonReport json("demo");
  json.add("k", static_cast<uint64_t>(1));
  char prog[] = "test";
  char* argv[] = {prog};
  EXPECT_TRUE(json.maybe_write(1, argv));
}

TEST(FlagInt, ParsesWholeIntegersAndRejectsEverythingElse) {
  char prog[] = "test";
  char neg[] = "--preemptions=-3";
  char pos[] = "--fuzz=12";
  char* good[] = {prog, neg, pos};
  EXPECT_EQ(flag_int(3, good, "preemptions", 0), -3);
  EXPECT_EQ(flag_int(3, good, "fuzz", 0), 12);
  EXPECT_EQ(flag_int(3, good, "jobs", 7), 7);  // absent: the default

  char word[] = "--preemptions=two";
  char suffix[] = "--fuzz=3x";
  char* bad[] = {prog, word, suffix};
  try {
    flag_int(3, bad, "preemptions", 0);
    ADD_FAILURE() << "--preemptions=two parsed";
  } catch (const util::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("--preemptions=two"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(flag_int(3, bad, "fuzz", 0), util::CheckFailure);
}

TEST(RequireKnownFlags, AcceptsBareAndValuedFormsAndNamesTheFirstUnknown) {
  char prog[] = "test";
  char bare[] = "--dpor";
  char valued[] = "--dpor=off";
  char jobs[] = "--jobs=2";
  char empty[] = "--replay=";
  char* good[] = {prog, bare, valued, jobs, empty};
  EXPECT_NO_THROW(
      require_known_flags(5, good, {"dpor", "dpor=", "jobs=", "replay="}));

  char typo[] = "--preemption=2";
  char positional[] = "preemptions=2";
  char bare_valued[] = "--fuzz-seed";
  char valued_bare[] = "--no-mutate=1";
  for (char* arg : {typo, positional, bare, bare_valued, valued_bare}) {
    char* argv[] = {prog, jobs, arg};
    try {
      require_known_flags(
          3, argv, {"jobs=", "preemptions=", "fuzz-seed=", "no-mutate"});
      ADD_FAILURE() << arg << " accepted";
    } catch (const util::CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find(arg), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace pmc::bench
