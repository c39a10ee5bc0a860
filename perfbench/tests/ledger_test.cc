// Unit tests of the benchmark's own arithmetic and inputs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ledger.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

TEST(SelfTimeTest, SubtractsTheUnionOfChildren) {
  // 100 ticks; children cover [10,30) (two overlapping spans) and [50,60).
  EXPECT_EQ(SelfTime({0, 100}, {{15, 30}, {10, 20}, {50, 60}}), 70u);
}

TEST(SelfTimeTest, WithoutChildrenIsTheWholeSpan) {
  EXPECT_EQ(SelfTime({5, 45}, {}), 40u);
}

TEST(SelfTimeTest, ClipsChildrenToTheParent) {
  EXPECT_EQ(SelfTime({10, 20}, {{0, 12}, {18, 40}}), 6u);
  EXPECT_EQ(SelfTime({10, 20}, {{0, 40}}), 0u);
}

TEST(SelfTimeTest, NestedChildrenCountOnce) {
  EXPECT_EQ(SelfTime({0, 100}, {{10, 90}, {20, 30}, {40, 50}}), 20u);
}

std::vector<double> OneTo(int n) {
  std::vector<double> samples;
  for (int i = n; i >= 1; --i) {
    samples.push_back(i);
  }
  return samples;
}

TEST(PercentileTest, ReportsTheWantedPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  std::vector<double> samples = OneTo(1000);
  const Percentile p = ReportPercentile(samples, 99);
  EXPECT_EQ(p.percentile, 99);
  EXPECT_EQ(p.value, 990);
  EXPECT_EQ(p.samples, 1000u);
}

TEST(PercentileTest, StepsDownWhenTooFewSamplesLieBeyond) {
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  std::vector<double> samples = OneTo(999);
  const Percentile p = ReportPercentile(samples, 99);
  EXPECT_EQ(p.percentile, 90);
  EXPECT_EQ(p.value, 900);

  std::vector<double> few = OneTo(50);
  EXPECT_EQ(ReportPercentile(few, 99).percentile, 50);
  std::vector<double> tiny = OneTo(3);
  const Percentile floor = ReportPercentile(tiny, 99);
  EXPECT_EQ(floor.percentile, 50);
  EXPECT_EQ(floor.value, 2);
}

TEST(PercentileTest, ReportPrintsThePercentileUsedAndTheSampleCount) {
  Report report;
  std::vector<double> samples = OneTo(999);
  report.AddPercentile("x_p99_ns", samples, 99, "ns", 2.0, "test");
  const std::string json = report.Json();
  EXPECT_NE(json.find("\"value\":1800"), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples\":999"), std::string::npos) << json;
  EXPECT_NE(json.find("p90 of 999 samples (too few for the tail)"),
            std::string::npos)
      << json;
}

TEST(InputDigestTest, SameSeedSameDigest) {
  for (auto digest : {HashtableInputDigest, Lock2InputDigest, PagefaultInputDigest}) {
    EXPECT_EQ(digest(7), digest(7));
    EXPECT_NE(digest(7), digest(8));
  }
}

TEST(ReportTest, FailedCountsCallsAndChecks) {
  Report report;
  report.attempted = 100;
  report.failed_calls = 2;
  report.Check("passes", true);
  report.Check("fails", false);
  EXPECT_EQ(report.failed(), 3u);
}

}  // namespace
}  // namespace perfbench
