#include "simkit/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace gfair::simkit {
namespace {

TEST(SimulatorTest, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime observed = -1;
  sim.At(100, [&] { observed = sim.Now(); });
  sim.Run();
  EXPECT_EQ(observed, 100);
  EXPECT_EQ(sim.Now(), 100);
}

TEST(SimulatorTest, AfterIsRelative) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.At(50, [&] {
    sim.After(25, [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  EXPECT_EQ(times, (std::vector<SimTime>{75}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.At(10, [&] { ++fired; });
  sim.At(1000, [&] { ++fired; });
  sim.RunUntil(500);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 500);  // clock parks at the deadline
  sim.RunUntil(2000);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) {
      sim.After(1, recurse);
    }
  };
  sim.At(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.Now(), 9);
}

TEST(SimulatorTest, EveryFiresPeriodically) {
  Simulator sim;
  std::vector<SimTime> fires;
  sim.Every(10, [&] { fires.push_back(sim.Now()); });
  sim.RunUntil(35);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 20, 30}));
}

TEST(SimulatorTest, CancelRepeatingStopsChain) {
  Simulator sim;
  int fires = 0;
  const EventId id = sim.Every(10, [&] { ++fires; });
  sim.RunUntil(25);
  EXPECT_EQ(fires, 2);
  sim.Cancel(id);
  sim.RunUntil(100);
  EXPECT_EQ(fires, 2);
}

TEST(SimulatorTest, CancelAfterFiringRemovesPendingEvent) {
  // A repeating chain re-pushes itself under fresh event ids; cancelling by
  // the original handle after firings must remove the chain's live pending
  // event from the queue, not just tombstone it — otherwise every cancelled
  // chain leaves a dead event behind and Run() never drains.
  Simulator sim;
  int fires = 0;
  const EventId id = sim.Every(10, [&] { ++fires; });
  sim.RunUntil(25);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(sim.pending_events(), 1u);  // the chain's next firing at t=30
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();  // drains immediately: no stale callback left
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(sim.Now(), 25);
}

TEST(SimulatorTest, CancelRepeatingFromInsideCallback) {
  Simulator sim;
  int fires = 0;
  EventId id{};
  id = sim.Every(10, [&] {
    ++fires;
    if (fires == 3) {
      EXPECT_TRUE(sim.Cancel(id));
    }
  });
  sim.RunUntil(200);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, DestroyingSimulatorFreesRepeatingChains) {
  auto token = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = token;
  {
    Simulator sim;
    sim.Every(10, [token] { ++*token; });
    token.reset();
    sim.RunUntil(35);
    ASSERT_FALSE(watch.expired());
    EXPECT_EQ(*watch.lock(), 3);
  }
  // The still-pending chain (and the callback capturing the token) must die
  // with the simulator rather than keep itself alive.
  EXPECT_TRUE(watch.expired());
}

TEST(SimulatorTest, CancelOneShot) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.At(10, [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, StopHaltsProcessing) {
  Simulator sim;
  int fired = 0;
  sim.At(1, [&] {
    ++fired;
    sim.Stop();
  });
  sim.At(2, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  // A further run resumes where we stopped.
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, CountsProcessedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.At(i, [] {});
  }
  EXPECT_EQ(sim.Run(), 7u);
  EXPECT_EQ(sim.total_events_processed(), 7u);
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.At(10, [] {});
  sim.Run();
  EXPECT_DEATH(sim.At(5, [] {}), "past");
}

}  // namespace
}  // namespace gfair::simkit
