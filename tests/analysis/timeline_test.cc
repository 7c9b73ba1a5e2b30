#include "analysis/timeline.h"

#include <gtest/gtest.h>

namespace gfair::analysis {
namespace {

TEST(TimelineTest, BucketsAverageGpuTime) {
  sched::FairnessLedger ledger;
  workload::UserTable users;
  const UserId a = users.Create("a").id;
  // 4 GPUs for the first hour, none afterwards.
  ledger.RecordGpuTime(a, cluster::GpuGeneration::kV100, Hours(1), 4 * Hours(1));
  const auto rows = ComputeTimeline(ledger, users, 0, Hours(2), /*buckets=*/4);
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].gpus.size(), 4u);
  // The interval is credited at its END, so the whole 4 GPU-hours land in
  // the bucket containing t=1h.
  const double total = rows[0].gpus[0] + rows[0].gpus[1] + rows[0].gpus[2] +
                       rows[0].gpus[3];
  EXPECT_NEAR(total, 8.0, 1e-6);  // 4 GPU-hours over 30-min buckets
  EXPECT_DOUBLE_EQ(rows[0].gpus[3], 0.0);
}

TEST(TimelineTest, FineGrainedLedgerYieldsSmoothBuckets) {
  sched::FairnessLedger ledger;
  workload::UserTable users;
  const UserId a = users.Create("a").id;
  // Minute-granularity accounting, as the scheduler produces.
  for (int m = 0; m < 120; ++m) {
    ledger.RecordGpuTime(a, cluster::GpuGeneration::kV100, Minutes(m + 1), 4 * Minutes(1));
  }
  const auto rows = ComputeTimeline(ledger, users, 0, Hours(2), 4);
  for (double value : rows[0].gpus) {
    EXPECT_NEAR(value, 4.0, 0.2);
  }
}

TEST(TimelineTest, RenderShowsNamesAndPeaks) {
  sched::FairnessLedger ledger;
  workload::UserTable users;
  const UserId a = users.Create("alice").id;
  users.Create("idle-bob");
  for (int m = 0; m < 60; ++m) {
    ledger.RecordGpuTime(a, cluster::GpuGeneration::kK80, Minutes(m + 1), 2 * Minutes(1));
  }
  const auto rows = ComputeTimeline(ledger, users, 0, Hours(1), 12);
  const std::string art = RenderTimeline(rows, 0, Hours(1), 8.0);
  EXPECT_NE(art.find("alice"), std::string::npos);
  EXPECT_NE(art.find("idle-bob"), std::string::npos);
  EXPECT_NE(art.find("peak 2.0 GPUs"), std::string::npos);
  EXPECT_NE(art.find("peak 0.0 GPUs"), std::string::npos);
}

TEST(TimelineTest, EmptyRowsRenderEmpty) {
  EXPECT_EQ(RenderTimeline({}, 0, Hours(1)), "");
}

}  // namespace
}  // namespace gfair::analysis
