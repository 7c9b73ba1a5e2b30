#include "sched/ledger.h"

#include <gtest/gtest.h>

namespace gfair::sched {
namespace {

using cluster::GpuGeneration;

TEST(LedgerTest, GpuTimeAccumulatesPerUserAndGen) {
  FairnessLedger ledger;
  ledger.RecordGpuTime(UserId(0), GpuGeneration::kV100, Minutes(10), 4 * Minutes(10));
  ledger.RecordGpuTime(UserId(0), GpuGeneration::kK80, Minutes(5), 2 * Minutes(5));
  ledger.RecordGpuTime(UserId(1), GpuGeneration::kV100, Minutes(10), Minutes(10));

  EXPECT_DOUBLE_EQ(ledger.GpuMs(UserId(0), GpuGeneration::kV100, 0, Hours(1)),
                   4.0 * Minutes(10));
  EXPECT_DOUBLE_EQ(ledger.GpuMs(UserId(0), 0, Hours(1)),
                   4.0 * Minutes(10) + 2.0 * Minutes(5));
  EXPECT_DOUBLE_EQ(ledger.GpuMs(UserId(1), 0, Hours(1)), 1.0 * Minutes(10));
}

TEST(LedgerTest, WindowedQueries) {
  FairnessLedger ledger;
  // GPU time is credited at the record's END time.
  ledger.RecordGpuTime(UserId(0), GpuGeneration::kV100, Minutes(10), Minutes(10));
  ledger.RecordGpuTime(UserId(0), GpuGeneration::kV100, Minutes(20), Minutes(10));
  EXPECT_DOUBLE_EQ(
      ledger.GpuMs(UserId(0), GpuGeneration::kV100, Minutes(15), Minutes(25)),
      static_cast<double>(Minutes(10)));
}

TEST(LedgerTest, UnknownUserIsZero) {
  FairnessLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.GpuMs(UserId(9), 0, Hours(1)), 0.0);
  EXPECT_DOUBLE_EQ(ledger.DemandAt(UserId(9), GpuGeneration::kK80, Hours(1)), 0.0);
}

TEST(LedgerTest, DemandTracksChanges) {
  FairnessLedger ledger;
  ledger.RecordDemandChange(UserId(0), GpuGeneration::kV100, Minutes(1), +4);
  ledger.RecordDemandChange(UserId(0), GpuGeneration::kV100, Minutes(5), +2);
  ledger.RecordDemandChange(UserId(0), GpuGeneration::kV100, Minutes(9), -4);
  EXPECT_DOUBLE_EQ(ledger.DemandAt(UserId(0), GpuGeneration::kV100, Minutes(0)), 0.0);
  EXPECT_DOUBLE_EQ(ledger.DemandAt(UserId(0), GpuGeneration::kV100, Minutes(3)), 4.0);
  EXPECT_DOUBLE_EQ(ledger.DemandAt(UserId(0), GpuGeneration::kV100, Minutes(7)), 6.0);
  EXPECT_DOUBLE_EQ(ledger.DemandAt(UserId(0), GpuGeneration::kV100, Minutes(20)), 2.0);
  EXPECT_DOUBLE_EQ(ledger.TotalDemandAt(UserId(0), Minutes(7)), 6.0);
}

TEST(LedgerTest, KnownUsersSorted) {
  FairnessLedger ledger;
  ledger.RecordDemandChange(UserId(3), GpuGeneration::kK80, 0, 1);
  ledger.RecordDemandChange(UserId(1), GpuGeneration::kK80, 0, 1);
  const auto users = ledger.KnownUsers();
  ASSERT_EQ(users.size(), 2u);
  EXPECT_EQ(users[0], UserId(1));
  EXPECT_EQ(users[1], UserId(3));
}

TEST(LedgerDeathTest, NegativeDemandAborts) {
  FairnessLedger ledger;
  ledger.RecordDemandChange(UserId(0), GpuGeneration::kK80, 0, 1);
  EXPECT_DEATH(ledger.RecordDemandChange(UserId(0), GpuGeneration::kK80, 1, -2),
               "negative");
}

TEST(LedgerTest, ZeroLengthIntervalIgnored) {
  FairnessLedger ledger;
  ledger.RecordGpuTime(UserId(0), GpuGeneration::kK80, 5, 0);
  EXPECT_DOUBLE_EQ(ledger.GpuMs(UserId(0), 0, Hours(1)), 0.0);
}

}  // namespace
}  // namespace gfair::sched
