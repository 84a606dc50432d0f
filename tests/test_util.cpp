#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace remapd {
namespace {

// --------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool differs = false;
  for (int i = 0; i < 10 && !differs; ++i)
    differs = a.uniform() != b.uniform();
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(4);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values reachable
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, SplitDecorrelates) {
  Rng parent(6);
  Rng child = parent.split();
  // The child stream should not replicate the parent's continuation.
  bool differs = false;
  for (int i = 0; i < 10 && !differs; ++i)
    differs = parent.uniform() != child.uniform();
  EXPECT_TRUE(differs);
}

TEST(Rng, SampleWithoutReplacementProperties) {
  Rng rng(7);
  const auto sample = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t s : sample) EXPECT_LT(s, 100u);
  // Dense case path (k close to n).
  const auto dense = rng.sample_without_replacement(10, 9);
  EXPECT_EQ(std::set<std::size_t>(dense.begin(), dense.end()).size(), 9u);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementEdgeCases) {
  Rng rng(11);
  // k = 0: empty sample, no draws.
  EXPECT_TRUE(rng.sample_without_replacement(10, 0).empty());
  EXPECT_TRUE(rng.sample_without_replacement(0, 0).empty());
  // k = n: exactly the full population, each index once.
  const auto full = rng.sample_without_replacement(25, 25);
  EXPECT_EQ(std::set<std::size_t>(full.begin(), full.end()).size(), 25u);
  // Any k > n throws, including the n = 0 population.
  EXPECT_THROW(rng.sample_without_replacement(0, 1), std::invalid_argument);
}

TEST(Rng, PermutationIsBijection) {
  Rng rng(8);
  const auto perm = rng.permutation(50);
  std::set<std::size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 50u);
  EXPECT_EQ(*unique.rbegin(), 49u);
  EXPECT_TRUE(rng.permutation(0).empty());
}

// ------------------------------------------------------------------- Stats

TEST(RunningStats, MeanVarianceExtrema) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, MeanAndStddevOfVector) {
  EXPECT_DOUBLE_EQ(mean_of({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_NEAR(stddev_of({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-12);
}

TEST(Stats, PearsonCorrelation) {
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(pearson({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
  EXPECT_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);  // constant side
  EXPECT_THROW(pearson({1, 2}, {1}), std::invalid_argument);
}

TEST(Stats, LinearFitRecoversLine) {
  const LinearFit f = linear_fit({0, 1, 2, 3}, {1, 3, 5, 7});
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_THROW(linear_fit({}, {}), std::invalid_argument);
}

// --------------------------------------------------------------------- Csv

TEST(Csv, InMemoryRowsAndHeader) {
  CsvWriter csv;
  csv.header({"a", "b", "c"});
  csv.row(1, 2.5, "x");
  EXPECT_EQ(csv.dump(), "a,b,c\n1,2.5,x\n");
}

TEST(Csv, WritesToFile) {
  const std::string path = "/tmp/remapd_csv_test.csv";
  {
    CsvWriter csv(path);
    csv.header({"k", "v"});
    csv.row("answer", 42);
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "k,v");
  EXPECT_EQ(line2, "answer,42");
  std::remove(path.c_str());
}

TEST(Csv, BadPathThrows) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir/x.csv"), std::runtime_error);
}

// --------------------------------------------------------------------- Env

// A set-but-malformed value is a user error that must fail loudly, not be
// silently replaced by the default.
TEST(Env, MalformedValuesThrow) {
  for (const char* bad : {"not-a-number", "12abc", "", " 8", "+8", "0x10"}) {
    setenv("REMAPD_TEST_SZ", bad, 1);
    EXPECT_THROW(env_size("REMAPD_TEST_SZ", 3), std::runtime_error) << bad;
  }

  // The error message names the variable and the offending value.
  setenv("REMAPD_TEST_SZ", "nope", 1);
  try {
    env_size("REMAPD_TEST_SZ", 3);
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("REMAPD_TEST_SZ"), std::string::npos);
    EXPECT_NE(msg.find("nope"), std::string::npos);
  }
  unsetenv("REMAPD_TEST_SZ");
}

TEST(Env, SizeRejectsNegative) {
  setenv("REMAPD_TEST_SZ", "8", 1);
  EXPECT_EQ(env_size("REMAPD_TEST_SZ", 3), 8u);
  setenv("REMAPD_TEST_SZ", "-2", 1);
  EXPECT_THROW(env_size("REMAPD_TEST_SZ", 3), std::runtime_error);
  unsetenv("REMAPD_TEST_SZ");
  EXPECT_EQ(env_size("REMAPD_TEST_SZ", 3), 3u);
}

TEST(Env, StringAndFallback) {
  setenv("REMAPD_TEST_S", "hello", 1);
  EXPECT_EQ(env_str("REMAPD_TEST_S", "d"), "hello");
  unsetenv("REMAPD_TEST_S");
  EXPECT_EQ(env_str("REMAPD_TEST_S", "d"), "d");
}

// The parsers behind every numeric env var and CLI flag: the whole string
// must be the number, and an error names its source and the text.
TEST(Env, ParseUintIsStrict) {
  EXPECT_EQ(parse_uint("--epochs", "0"), 0u);
  EXPECT_EQ(parse_uint("--epochs", "18446744073709551615"),
            18446744073709551615ull);
  EXPECT_EQ(parse_uint("--serve", "65535", 65535), 65535u);
  for (const char* bad : {"", "abc", "-5", "+5", " 5", "5 ", "5x", "1.5",
                          "18446744073709551616"})
    EXPECT_THROW(parse_uint("--epochs", bad), std::runtime_error) << bad;
  try {
    parse_uint("--serve", "70000", 65535);
    FAIL() << "70000 accepted as a port";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--serve"), std::string::npos) << msg;
    EXPECT_NE(msg.find("70000"), std::string::npos) << msg;
  }
}

TEST(Env, ParseNonnegIsStrict) {
  EXPECT_DOUBLE_EQ(parse_nonneg("--post-m", "0"), 0.0);
  EXPECT_DOUBLE_EQ(parse_nonneg("--post-m", "2.5"), 2.5);
  EXPECT_DOUBLE_EQ(parse_nonneg("--post-m", ".5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_nonneg("--post-m", "1e-3"), 1e-3);
  for (const char* bad : {"", "abc", "-0.5", "+1", " 1", "1 ", "1.5x", "nan",
                          "inf", "0x1p3", "1e999"})
    EXPECT_THROW(parse_nonneg("--post-m", bad), std::runtime_error) << bad;
  try {
    parse_nonneg("--quant-noise", "one");
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--quant-noise"), std::string::npos) << msg;
    EXPECT_NE(msg.find("one"), std::string::npos) << msg;
  }
}

// --------------------------------------------------------------------- Log

TEST(Log, LevelFiltering) {
  const LogLevel original = log_level();
  set_log_level(LogLevel::kWarn);
  EXPECT_EQ(log_level(), LogLevel::kWarn);
  // Compile/run smoke: these must not throw regardless of level.
  log_debug("debug ", 1);
  log_info("info ", 2);
  log_warn("warn ", 3);
  log_error("error ", 4);
  set_log_level(original);
}

TEST(Log, ParseLevelCaseInsensitive) {
  bool ok = false;
  EXPECT_EQ(parse_log_level("debug", &ok), LogLevel::kDebug);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_log_level("DEBUG", &ok), LogLevel::kDebug);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_log_level("Info", &ok), LogLevel::kInfo);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_log_level("WaRn", &ok), LogLevel::kWarn);
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_log_level("warning", &ok), LogLevel::kWarn);  // alias
  EXPECT_TRUE(ok);
  EXPECT_EQ(parse_log_level("ERROR", &ok), LogLevel::kError);
  EXPECT_TRUE(ok);
}

TEST(Log, ParseLevelUnknownFallsBackToInfo) {
  bool ok = true;
  EXPECT_EQ(parse_log_level("verbose", &ok), LogLevel::kInfo);
  EXPECT_FALSE(ok);
  EXPECT_EQ(parse_log_level("", &ok), LogLevel::kInfo);
  EXPECT_FALSE(ok);
  // Null ok pointer is allowed.
  EXPECT_EQ(parse_log_level("nonsense"), LogLevel::kInfo);
}

}  // namespace
}  // namespace remapd
