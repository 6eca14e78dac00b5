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

}  // namespace
}  // namespace pmc::bench
