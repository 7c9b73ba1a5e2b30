#include "sched/stride.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

namespace gfair::sched {
namespace {

bool Contains(const std::vector<JobId>& jobs, JobId id) {
  return std::find(jobs.begin(), jobs.end(), id) != jobs.end();
}

TEST(StrideTest, SingleJobGetsSelected) {
  LocalStrideScheduler stride(4);
  stride.AddJob(JobId(0), 2, 1.0);
  const auto selected = stride.SelectForQuantum();
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], JobId(0));
}

TEST(StrideTest, LowestPassWins) {
  LocalStrideScheduler stride(1);
  stride.AddJob(JobId(0), 1, 1.0);
  stride.AddJob(JobId(1), 1, 1.0);
  stride.Charge(JobId(0), 100);
  EXPECT_EQ(stride.SelectForQuantum()[0], JobId(1));
}

TEST(StrideTest, ChargeScalesWithGangAndTickets) {
  LocalStrideScheduler stride(8);
  stride.AddJob(JobId(0), 4, 2.0);
  stride.AddJob(JobId(1), 1, 1.0);
  stride.Charge(JobId(0), 100);  // pass += 4*100/2 = 200
  stride.Charge(JobId(1), 100);  // pass += 1*100/1 = 100
  EXPECT_DOUBLE_EQ(stride.PassOf(JobId(0)).raw(), 200.0);
  EXPECT_DOUBLE_EQ(stride.PassOf(JobId(1)).raw(), 100.0);
}

TEST(StrideTest, GpuTimeProportionalToTickets) {
  // Simulate many quanta on a 1-GPU server with tickets 1:3; GPU time should
  // split 1:3.
  LocalStrideScheduler stride(1);
  stride.AddJob(JobId(0), 1, 1.0);
  stride.AddJob(JobId(1), 1, 3.0);
  std::map<JobId, int> quanta;
  for (int tick = 0; tick < 400; ++tick) {
    const auto selected = stride.SelectForQuantum();
    ASSERT_EQ(selected.size(), 1u);
    quanta[selected[0]] += 1;
    stride.Charge(selected[0], 60'000);
  }
  EXPECT_NEAR(static_cast<double>(quanta[JobId(1)]) / quanta[JobId(0)], 3.0, 0.05);
}

TEST(StrideTest, GangChargedGangTimesFaster) {
  // 4-gang and 4x 1-GPU jobs, equal tickets each, 8 GPUs: the gang gets 4
  // GPUs' worth and each single job ~1 GPU's worth... with 5 jobs of equal
  // tickets on 8 GPUs, stride equalizes GPU time per ticket:
  // gang rate 4 gpus when on; it should run about half the time.
  LocalStrideScheduler stride(8);
  stride.AddJob(JobId(0), 4, 1.0);
  for (int i = 1; i <= 8; ++i) {
    stride.AddJob(JobId(i), 1, 1.0);
  }
  std::map<JobId, double> gpu_time;
  for (int tick = 0; tick < 2000; ++tick) {
    for (JobId id : stride.SelectForQuantum()) {
      gpu_time[id] += stride.GangOf(id);
      stride.Charge(id, 1);
    }
  }
  // 9 jobs, equal tickets, 8 GPUs: each deserves 8/9 GPUs of time.
  const double expected = 2000.0 * 8.0 / 9.0;
  EXPECT_NEAR(gpu_time[JobId(0)], expected, expected * 0.05);
  EXPECT_NEAR(gpu_time[JobId(3)], expected, expected * 0.05);
}

TEST(StrideTest, NewJobEntersAtVirtualTime) {
  LocalStrideScheduler stride(1);
  stride.AddJob(JobId(0), 1, 1.0);
  for (int i = 0; i < 10; ++i) {
    (void)stride.SelectForQuantum();
    stride.Charge(JobId(0), 1000);
  }
  stride.AddJob(JobId(1), 1, 1.0);
  // Newcomer must not owe history: pass = virtual time (job 0's pass floor),
  // not 0 — but also must not leap ahead.
  EXPECT_GT(stride.PassOf(JobId(1)).raw(), 0.0);
  EXPECT_LE(stride.PassOf(JobId(1)), stride.PassOf(JobId(0)));
}

TEST(StrideTest, BigJobFirstWinsTies) {
  StrideConfig config;
  config.big_job_first = true;
  LocalStrideScheduler stride(8, config);
  stride.AddJob(JobId(0), 1, 1.0);
  stride.AddJob(JobId(1), 8, 1.0);  // same pass (both at vt=0)
  const auto selected = stride.SelectForQuantum();
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], JobId(1));
}

TEST(StrideTest, GangServedFairlyUnderArrivalChurn) {
  // A stream of 1-GPU jobs entering at the virtual time ties with the
  // waiting 8-gang every round. Big-first tie-breaking serves the gang
  // immediately; small-first delays it until the virtual time climbs past
  // its pass — but because virtual time advances with delivered service,
  // neither variant starves it outright (the starvation of the E3 experiment
  // comes from run-to-completion backfill schedulers, and from the
  // unreserved mid-quantum fill path at the facade level).
  for (bool big_first : {false, true}) {
    StrideConfig config;
    config.big_job_first = big_first;
    LocalStrideScheduler stride(8, config);
    stride.AddJob(JobId(1000), 8, 1.0);
    int gang_quanta = 0;
    int first_service_round = -1;
    uint32_t next_id = 0;
    // 8 resident 1-GPU jobs at all times; replace them each round (finish +
    // new arrival), mimicking a continuous stream of short jobs.
    for (uint32_t i = 0; i < 8; ++i) {
      stride.AddJob(JobId(next_id++), 1, 1.0);
    }
    for (int round = 0; round < 90; ++round) {
      const auto selected = stride.SelectForQuantum();
      for (JobId id : selected) {
        stride.Charge(id, 60'000);
        if (id == JobId(1000)) {
          ++gang_quanta;
          if (first_service_round < 0) {
            first_service_round = round;
          }
        } else {
          stride.RemoveJob(id);  // short job finishes
          stride.AddJob(JobId(next_id++), 1, 1.0);
        }
      }
    }
    // Equal tickets for 9 jobs on 8 GPUs: fair share is ~one quantum in nine.
    EXPECT_GE(gang_quanta, 7) << "big_first=" << big_first;
    EXPECT_LE(gang_quanta, 14) << "big_first=" << big_first;
    if (big_first) {
      EXPECT_EQ(first_service_round, 0) << "ties must favor the gang";
    } else {
      EXPECT_GT(first_service_round, 0) << "small-first delays the gang";
    }
  }
}

TEST(StrideTest, BackfillsPastBlockedGang) {
  LocalStrideScheduler stride(8);
  stride.AddJob(JobId(0), 6, 1.0);
  stride.AddJob(JobId(1), 4, 1.0);
  stride.AddJob(JobId(2), 2, 1.0);
  // Ties: big first = job0 (6 GPUs), job1 blocked (4 > 2 free), job2 fits.
  const auto selected = stride.SelectForQuantum();
  EXPECT_TRUE(Contains(selected, JobId(0)));
  EXPECT_FALSE(Contains(selected, JobId(1)));
  EXPECT_TRUE(Contains(selected, JobId(2)));
}

TEST(StrideTest, NonRunnableJobsAreSkipped) {
  LocalStrideScheduler stride(2);
  stride.AddJob(JobId(0), 1, 1.0);
  stride.AddJob(JobId(1), 1, 1.0);
  stride.SetRunnable(JobId(0), false);
  const auto selected = stride.SelectForQuantum();
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], JobId(1));
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 1.0);
  EXPECT_EQ(stride.DemandLoad(), 1);
}

TEST(StrideTest, ReenteringJobPassIsFloored) {
  LocalStrideScheduler stride(1);
  stride.AddJob(JobId(0), 1, 1.0);
  stride.AddJob(JobId(1), 1, 1.0);
  stride.SetRunnable(JobId(0), false);
  for (int i = 0; i < 10; ++i) {
    (void)stride.SelectForQuantum();
    stride.Charge(JobId(1), 1000);
  }
  stride.SetRunnable(JobId(0), true);
  // Job 0 must not monopolize: its pass was floored to the virtual time.
  EXPECT_GE(stride.PassOf(JobId(0)), stride.VirtualTime() - Stride(1e-9));
}

TEST(StrideTest, SetTicketsChangesFutureShares) {
  LocalStrideScheduler stride(1);
  stride.AddJob(JobId(0), 1, 1.0);
  stride.AddJob(JobId(1), 1, 1.0);
  stride.SetTickets(JobId(0), 9.0);
  std::map<JobId, int> quanta;
  for (int tick = 0; tick < 500; ++tick) {
    const auto selected = stride.SelectForQuantum();
    quanta[selected[0]] += 1;
    stride.Charge(selected[0], 1000);
  }
  EXPECT_NEAR(static_cast<double>(quanta[JobId(0)]) / quanta[JobId(1)], 9.0, 0.5);
}

TEST(StrideTest, TicketAndDemandLoads) {
  LocalStrideScheduler stride(8);
  stride.AddJob(JobId(0), 4, 2.5);
  stride.AddJob(JobId(1), 2, 0.5);
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 3.0);
  EXPECT_EQ(stride.DemandLoad(), 6);
  stride.RemoveJob(JobId(0));
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 0.5);
}

TEST(StrideTest, VirtualTimeMonotone) {
  LocalStrideScheduler stride(1);
  stride.AddJob(JobId(0), 1, 1.0);
  (void)stride.SelectForQuantum();
  stride.Charge(JobId(0), 5000);
  (void)stride.SelectForQuantum();
  const Pass vt = stride.VirtualTime();
  stride.RemoveJob(JobId(0));
  stride.AddJob(JobId(1), 1, 1.0);
  EXPECT_GE(stride.PassOf(JobId(1)), vt);
}

TEST(StrideTest, CachedLoadsTrackMutations) {
  // TicketLoad/DemandLoad are cached; every mutation class must invalidate
  // (or incrementally update) them. In debug builds the cached ticket load is
  // additionally asserted against an incremental shadow sum on every read.
  LocalStrideScheduler stride(8);
  stride.AddJob(JobId(0), 2, 1.5);
  stride.AddJob(JobId(1), 4, 2.5);
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 4.0);
  EXPECT_EQ(stride.DemandLoad(), 6);

  stride.SetTickets(JobId(0), 3.5);
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 6.0);

  stride.SetRunnable(JobId(1), false);  // non-runnable jobs leave both loads
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 3.5);
  EXPECT_EQ(stride.DemandLoad(), 2);
  stride.SetRunnable(JobId(1), true);
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 6.0);
  EXPECT_EQ(stride.DemandLoad(), 6);

  stride.RemoveJob(JobId(0));
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 2.5);
  EXPECT_EQ(stride.DemandLoad(), 4);
  stride.RemoveJob(JobId(1));
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), 0.0);
  EXPECT_EQ(stride.DemandLoad(), 0);

  // Charging mutates passes only — loads must be unaffected (and readable
  // between charges without a recompute).
  stride.AddJob(JobId(2), 3, 1.25);
  const Tickets before = stride.TicketLoad();
  stride.Charge(JobId(2), 1000);
  EXPECT_DOUBLE_EQ(stride.TicketLoad().raw(), before.raw());
  EXPECT_EQ(stride.DemandLoad(), 3);
}

TEST(StrideTest, ResidentJobsCachedViewStaysSortedAndFresh) {
  LocalStrideScheduler stride(8);
  stride.AddJob(JobId(5), 1, 1.0);
  stride.AddJob(JobId(1), 1, 1.0);
  stride.AddJob(JobId(9), 1, 1.0);
  const std::vector<JobId> expected{JobId(1), JobId(5), JobId(9)};
  EXPECT_EQ(stride.ResidentJobs(), expected);
  // Repeated reads return the same cached vector (no rebuild).
  const std::vector<JobId>* first = &stride.ResidentJobs();
  EXPECT_EQ(first, &stride.ResidentJobs());

  stride.RemoveJob(JobId(5));
  const std::vector<JobId> after{JobId(1), JobId(9)};
  EXPECT_EQ(stride.ResidentJobs(), after);
  stride.AddJob(JobId(0), 2, 1.0);
  const std::vector<JobId> again{JobId(0), JobId(1), JobId(9)};
  EXPECT_EQ(stride.ResidentJobs(), again);
}

// Strides sharing one job-slot table (as a cluster's do): a job that moves
// A -> B -> A must leave no entry and no live heap item behind in B, and both
// strides must select exactly as private-table strides driven through the
// same operations. Run below and above the sort-select cutoff so the heap
// path is covered too.
TEST(StrideTest, SharedSlotTableRoundTripLeavesNothingBehind) {
  for (const uint32_t residents : {3u, 80u}) {
    JobSlots shared;
    LocalStrideScheduler a(8, {}, &shared);
    LocalStrideScheduler b(8, {}, &shared);
    LocalStrideScheduler ref_a(8);
    LocalStrideScheduler ref_b(8);
    for (uint32_t i = 0; i < residents; ++i) {
      const int gang = 1 + static_cast<int>(i % 3);
      for (LocalStrideScheduler* s : {&a, &ref_a}) {
        s->AddJob(JobId(i), gang, 1.0 + i % 4);
      }
      for (LocalStrideScheduler* s : {&b, &ref_b}) {
        s->AddJob(JobId(1000 + i), gang, 2.0);
      }
    }
    auto run_quanta = [&](int quanta) {
      for (int q = 0; q < quanta; ++q) {
        const std::vector<JobId> picked_a = a.SelectForQuantum();
        const std::vector<JobId> picked_b = b.SelectForQuantum();
        ASSERT_EQ(picked_a, ref_a.SelectForQuantum());
        ASSERT_EQ(picked_b, ref_b.SelectForQuantum());
        for (JobId id : picked_a) {
          a.Charge(id, 60'000);
          ref_a.Charge(id, 60'000);
        }
        for (JobId id : picked_b) {
          b.Charge(id, 60'000);
          ref_b.Charge(id, 60'000);
        }
      }
    };
    auto move = [&](JobId id, LocalStrideScheduler& from, LocalStrideScheduler& to,
                    LocalStrideScheduler& ref_from, LocalStrideScheduler& ref_to) {
      const int gang = from.GangOf(id);
      from.RemoveJob(id);
      ref_from.RemoveJob(id);
      to.AddJob(id, gang, 3.0);
      ref_to.AddJob(id, gang, 3.0);
    };

    const JobId mover(1);
    run_quanta(5);
    move(mover, a, b, ref_a, ref_b);
    EXPECT_FALSE(a.Contains(mover));
    EXPECT_TRUE(b.Contains(mover));
    run_quanta(5);
    move(mover, b, a, ref_b, ref_a);
    run_quanta(5);

    EXPECT_TRUE(a.Contains(mover));
    EXPECT_FALSE(b.Contains(mover));
    EXPECT_EQ(b.num_jobs(), residents);
    // Every runnable resident has exactly one live item; the mover's B-era
    // items are all tombstones.
    EXPECT_EQ(b.live_heap_items(), b.num_jobs());
    EXPECT_EQ(a.live_heap_items(), a.num_jobs());
    EXPECT_EQ(a.MinRunnablePass(), ref_a.MinRunnablePass());
    EXPECT_EQ(b.MinRunnablePass(), ref_b.MinRunnablePass());
    EXPECT_EQ(a.ResidentJobs(), ref_a.ResidentJobs());
    EXPECT_EQ(b.ResidentJobs(), ref_b.ResidentJobs());
  }
}

// Re-rating revalues only the currency's holders, at
// pool_tickets * share / max(demand, share), and keeps the loads fresh.
TEST(StrideTest, RerateCurrencyRevaluesOnlyItsHolders) {
  LocalStrideScheduler stride(8);
  const CurrencyId mine(4);
  const CurrencyId theirs(5);
  stride.AddJob(JobId(0), 1, 1.0, mine, CurrencyShare::Of(1, 1.0));
  stride.AddJob(JobId(1), 2, 1.0, mine, CurrencyShare::Of(2, 0.5));
  stride.AddJob(JobId(2), 1, 5.0, theirs, CurrencyShare::Of(1, 1.0));
  stride.AddJob(JobId(3), 1, 1.0);  // no currency
  CurrencyDemand demand;
  demand.Issue(CurrencyShare::Of(1, 1.0));
  demand.Issue(CurrencyShare::Of(2, 0.5));
  demand.Issue(CurrencyShare::Of(2, 1.0));  // a holder resident elsewhere
  EXPECT_EQ(demand.value(), 4.0);
  stride.RerateCurrency(mine, 8.0, demand);
  EXPECT_EQ(stride.TicketsOf(JobId(0)), Tickets(2.0));
  EXPECT_EQ(stride.TicketsOf(JobId(1)), Tickets(2.0));
  EXPECT_EQ(stride.TicketsOf(JobId(2)), Tickets(5.0));
  EXPECT_EQ(stride.TicketsOf(JobId(3)), Tickets(1.0));
  EXPECT_EQ(stride.TicketLoad(), Tickets(10.0));
  EXPECT_EQ(stride.CurrencyOfJob(JobId(1)), mine);
  EXPECT_FALSE(stride.CurrencyOfJob(JobId(3)).valid());
  // A lone holder is worth the whole pool, never more.
  CurrencyDemand small;
  small.Issue(CurrencyShare::Of(1, 1.0));
  stride.RerateCurrency(theirs, 3.0, small);
  EXPECT_EQ(stride.TicketsOf(JobId(2)), Tickets(3.0));
}

TEST(StrideDeathTest, InvalidOperations) {
  LocalStrideScheduler stride(4);
  EXPECT_DEATH(stride.AddJob(JobId(0), 5, 1.0), "fit");
  EXPECT_DEATH(stride.AddJob(JobId(0), 1, 0.0), "");
  stride.AddJob(JobId(0), 1, 1.0);
  EXPECT_DEATH(stride.AddJob(JobId(0), 1, 1.0), "already");
  EXPECT_DEATH(stride.RemoveJob(JobId(9)), "unknown");
  EXPECT_DEATH(stride.Charge(JobId(9), 1), "unknown");
  // A job is resident in at most one stride of a shared slot table.
  JobSlots shared;
  LocalStrideScheduler a(4, {}, &shared);
  LocalStrideScheduler b(4, {}, &shared);
  a.AddJob(JobId(3), 1, 1.0);
  EXPECT_DEATH(b.AddJob(JobId(3), 1, 1.0), "already");
}

}  // namespace
}  // namespace gfair::sched
