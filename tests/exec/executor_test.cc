#include "exec/executor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "common/stats.h"
#include "sched/ledger.h"
#include "simkit/simulator.h"
#include "workload/job.h"
#include "workload/model_zoo.h"

namespace gfair::exec {
namespace {

using cluster::GpuGeneration;
using workload::Job;
using workload::JobState;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : cluster_(cluster::Topology{{
            {GpuGeneration::kK80, 1, 4},
            {GpuGeneration::kV100, 1, 4},
        }}),
        exec_(sim_, cluster_, workload::ModelZoo::Default(), jobs_, ExecutorConfig{},
              /*seed=*/1) {
    exec_.set_on_job_finished([this](JobId id) { finished_.push_back(id); });
    exec_.set_on_migration_done([this](JobId id) { migrated_.push_back(id); });
  }

  Job& MakeJob(const char* model_name, int gang, double minibatches) {
    const auto& model = workload::ModelZoo::Default().GetByName(model_name);
    return jobs_.Create(UserId(0), model.id, gang, minibatches, sim_.Now());
  }

  ServerId K80() const { return cluster_.servers_of(GpuGeneration::kK80)[0]; }
  ServerId V100() const { return cluster_.servers_of(GpuGeneration::kV100)[0]; }

  simkit::Simulator sim_;
  cluster::Cluster cluster_;
  workload::JobTable jobs_;
  Executor exec_;
  std::vector<JobId> finished_;
  std::vector<JobId> migrated_;
};

TEST_F(ExecutorTest, JobRunsToCompletionAtModelRate) {
  // DCGAN on K80: 16 mb/s. 1600 mini-batches => 100s of work + resume warmup.
  Job& job = MakeJob("DCGAN", 1, 1600.0);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  EXPECT_TRUE(exec_.IsRunning(job.id));
  sim_.Run();
  EXPECT_EQ(job.state, JobState::kFinished);
  ASSERT_EQ(finished_.size(), 1u);
  const SimDuration expected = Seconds(100) + exec_.ResumeLatency(job.model);
  EXPECT_NEAR(static_cast<double>(job.finish_time), static_cast<double>(expected),
              10.0);  // ceil() rounding
  EXPECT_DOUBLE_EQ(job.completed_minibatches, 1600.0);
}

TEST_F(ExecutorTest, FasterGenerationFinishesSooner) {
  Job& slow = MakeJob("ResNeXt-50", 1, 120.0);
  Job& fast = MakeJob("ResNeXt-50", 1, 120.0);
  exec_.MakeResident(slow.id, K80());
  exec_.MakeResident(fast.id, V100());
  exec_.Resume(slow.id);
  exec_.Resume(fast.id);
  sim_.Run();
  // ResNeXt-50 is ~5.9x faster on V100.
  const double slow_work_time =
      static_cast<double>(slow.finish_time) -
      static_cast<double>(exec_.ResumeLatency(slow.model));
  const double fast_work_time =
      static_cast<double>(fast.finish_time) -
      static_cast<double>(exec_.ResumeLatency(fast.model));
  EXPECT_NEAR(slow_work_time / fast_work_time, 7.1 / 1.2, 0.05);
}

TEST_F(ExecutorTest, SuspendStopsProgressAndFreesGpus) {
  Job& job = MakeJob("DCGAN", 2, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  EXPECT_EQ(cluster_.server(K80()).num_free(), 2);
  sim_.RunUntil(Minutes(2));
  exec_.Suspend(job.id);
  EXPECT_EQ(job.state, JobState::kSuspended);
  EXPECT_EQ(cluster_.server(K80()).num_free(), 4);
  const double progress_at_suspend = job.completed_minibatches;
  EXPECT_GT(progress_at_suspend, 0.0);
  sim_.RunUntil(Minutes(10));
  EXPECT_DOUBLE_EQ(job.completed_minibatches, progress_at_suspend);
}

TEST_F(ExecutorTest, ResumeWarmupProducesNoProgress) {
  Job& job = MakeJob("DCGAN", 1, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  const SimDuration warmup = exec_.ResumeLatency(job.model);
  sim_.RunUntil(warmup / 2);
  exec_.SyncProgress(job.id);
  EXPECT_DOUBLE_EQ(job.completed_minibatches, 0.0);
  // But GPU time IS charged during warm-up.
  EXPECT_GT(job.TotalGpuMs(), 0.0);
}

TEST_F(ExecutorTest, SuspendResumeCycleCostsOverheadOnly) {
  Job& job = MakeJob("DCGAN", 1, 16.0 * 600);  // 600s of K80 work
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  sim_.RunUntil(Minutes(3));
  exec_.Suspend(job.id);
  sim_.RunUntil(Minutes(5));
  exec_.Resume(job.id);
  sim_.Run();
  EXPECT_EQ(job.state, JobState::kFinished);
  EXPECT_EQ(job.num_suspends, 1);
  EXPECT_EQ(job.num_resumes, 2);
  // Finish = 600s work + 5min gap... minus the 3min of first-run progress
  // already done; overhead = 2 resumes' warmup. Just check total overhead.
  EXPECT_EQ(job.overhead_ms,
            2 * exec_.ResumeLatency(job.model) + exec_.SuspendLatency(job.model));
}

TEST_F(ExecutorTest, MigrationMovesJobAfterLatency) {
  Job& job = MakeJob("ResNet-50", 2, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  sim_.RunUntil(Minutes(1));
  exec_.Suspend(job.id);
  exec_.Migrate(job.id, V100());
  EXPECT_EQ(job.state, JobState::kMigrating);
  sim_.RunUntil(Minutes(1) + exec_.MigrateLatency(job.model) + kSecond);
  EXPECT_EQ(job.state, JobState::kSuspended);
  EXPECT_EQ(job.server, V100());
  ASSERT_EQ(migrated_.size(), 1u);
  EXPECT_EQ(migrated_[0], job.id);
  EXPECT_EQ(job.num_migrations, 1);
}

TEST_F(ExecutorTest, MigratedJobRunsAtNewGenerationRate) {
  Job& job = MakeJob("ResNet-50", 1, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Migrate(job.id, V100());
  sim_.RunUntil(Hours(1));
  exec_.Resume(job.id);
  const SimTime start = sim_.Now();
  sim_.RunUntil(start + Minutes(10));
  exec_.SyncProgress(job.id);
  const double expected =
      exec_.TrueRate(job.id, GpuGeneration::kV100) *
      ToSeconds(Minutes(10) - exec_.ResumeLatency(job.model));
  EXPECT_NEAR(job.completed_minibatches, expected, 1.0);
}

TEST_F(ExecutorTest, GpuTimeAccountingCallback) {
  int64_t total_gpu_ms = 0;
  exec_.set_on_gpu_time([&](UserId, GpuGeneration gen, SimTime end, int64_t gpu_ms) {
    EXPECT_EQ(gen, GpuGeneration::kK80);
    EXPECT_EQ(end, sim_.Now());
    total_gpu_ms += gpu_ms;
  });
  Job& job = MakeJob("DCGAN", 3, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  sim_.RunUntil(Minutes(2));
  exec_.Suspend(job.id);
  EXPECT_EQ(total_gpu_ms, 3 * Minutes(2));
  EXPECT_DOUBLE_EQ(job.TotalGpuMs(), static_cast<double>(total_gpu_ms));
}

TEST_F(ExecutorTest, SyncAllBatchesGpuTimePerUserAndGenerationExactly) {
  // SyncAll reports one sum per (user, generation); the ledger must still
  // hold exactly the per-job totals, across users, gangs and generations,
  // with resumes and suspends landing between the syncs.
  sched::FairnessLedger ledger;
  int callbacks = 0;
  exec_.set_on_gpu_time([&](UserId user, GpuGeneration gen, SimTime end, int64_t gpu_ms) {
    ++callbacks;
    ledger.RecordGpuTime(user, gen, end, gpu_ms);
  });
  const auto& zoo = workload::ModelZoo::Default();
  auto make = [&](uint32_t user, const char* model, int gang, ServerId server) -> Job& {
    Job& job = jobs_.Create(UserId(user), zoo.GetByName(model).id, gang, 1e9, sim_.Now());
    exec_.MakeResident(job.id, server);
    return job;
  };
  Job& a = make(0, "DCGAN", 1, K80());
  Job& b = make(1, "ResNet-50", 2, K80());
  Job& c = make(0, "VAE", 2, V100());
  Job& d = make(2, "DCGAN", 1, V100());
  Job& e = make(0, "DCGAN", 1, K80());
  Job& f = make(1, "VAE", 1, V100());
  const std::vector<Job*> all = {&a, &b, &c, &d, &e, &f};

  auto expect_exact = [&](SimTime now) {
    for (uint32_t user = 0; user < 3; ++user) {
      for (GpuGeneration gen : cluster::kAllGenerations) {
        double expected = 0.0;
        for (const Job* job : all) {
          if (job->user == UserId(user)) {
            expected += job->gpu_ms_by_gen[cluster::GenerationIndex(gen)];
          }
        }
        EXPECT_EQ(ledger.GpuMs(UserId(user), gen, 0, now), expected)
            << "user " << user << " on " << cluster::GenerationName(gen) << " at " << now;
      }
    }
  };

  exec_.Resume(a.id);
  exec_.Resume(b.id);
  exec_.Resume(c.id);
  sim_.RunUntil(Seconds(25));
  exec_.Resume(d.id);  // mid-quantum resume
  sim_.RunUntil(Seconds(60));
  callbacks = 0;
  exec_.SyncAll();
  EXPECT_EQ(callbacks, 4);  // (0,K80) (1,K80) (0,V100) (2,V100)
  expect_exact(sim_.Now());

  sim_.RunUntil(Seconds(90));
  exec_.Suspend(b.id);  // mid-quantum suspend: its own record at close
  exec_.Resume(e.id);
  exec_.Resume(f.id);
  sim_.RunUntil(Seconds(100));
  exec_.Suspend(c.id);
  sim_.RunUntil(Seconds(120));
  exec_.SyncAll();
  expect_exact(sim_.Now());

  sim_.RunUntil(Seconds(179));
  exec_.Resume(b.id);
  sim_.RunUntil(Seconds(180));
  exec_.SyncAll();
  exec_.SyncAll();  // nothing elapsed: no record, no double count
  expect_exact(sim_.Now());
  EXPECT_GT(ledger.GpuMs(UserId(1), GpuGeneration::kV100, 0, sim_.Now()), 0.0);
}

TEST_F(ExecutorTest, SyncAllFlushesOpenSegments) {
  Job& job = MakeJob("DCGAN", 2, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  sim_.RunUntil(Minutes(5));
  EXPECT_DOUBLE_EQ(job.TotalGpuMs(), 0.0);  // nothing closed yet
  exec_.SyncAll();
  EXPECT_DOUBLE_EQ(job.TotalGpuMs(), 2.0 * Minutes(5));
}

TEST_F(ExecutorTest, SyncTwiceDoesNotDoubleCount) {
  Job& job = MakeJob("DCGAN", 1, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  sim_.RunUntil(Minutes(5));
  exec_.SyncProgress(job.id);
  exec_.SyncProgress(job.id);
  EXPECT_DOUBLE_EQ(job.TotalGpuMs(), static_cast<double>(Minutes(5)));
  sim_.RunUntil(Minutes(6));
  exec_.SyncProgress(job.id);
  EXPECT_DOUBLE_EQ(job.TotalGpuMs(), static_cast<double>(Minutes(6)));
}

TEST_F(ExecutorTest, ObservedRateIsNoisyAroundTruth) {
  // One group draw stands for the mean of k observations: its mean is the
  // true rate and its spread is rate_noise / sqrt(k).
  const auto model = workload::ModelZoo::Default().GetByName("ResNet-50").id;
  const double truth = workload::ModelZoo::Default().Get(model).GangThroughput(
      GpuGeneration::kV100, 2);
  const double sigma = ExecutorConfig{}.rate_noise;
  for (const int64_t k : {int64_t{1}, int64_t{16}}) {
    RunningStats ratio;
    for (int i = 0; i < 4000; ++i) {
      const double sample = exec_.ObservedGroupRate(model, GpuGeneration::kV100, 2, k);
      EXPECT_GT(sample, 0.0);
      ratio.Add(sample / truth);
    }
    const double expected_sd = sigma / std::sqrt(static_cast<double>(k));
    EXPECT_NEAR(ratio.mean(), 1.0, 4.0 * expected_sd / std::sqrt(4000.0)) << "k=" << k;
    EXPECT_NEAR(ratio.stddev(), expected_sd, 0.1 * expected_sd) << "k=" << k;
  }
}

TEST_F(ExecutorTest, LatenciesScaleWithCheckpointSize) {
  const auto& zoo = workload::ModelZoo::Default();
  const auto small = zoo.GetByName("VAE").id;         // 0.2 GB
  const auto large = zoo.GetByName("Transformer").id;  // 2.5 GB
  EXPECT_LT(exec_.SuspendLatency(small), exec_.SuspendLatency(large));
  EXPECT_LT(exec_.ResumeLatency(small), exec_.ResumeLatency(large));
  EXPECT_LT(exec_.MigrateLatency(small), exec_.MigrateLatency(large));
  EXPECT_GT(exec_.MigrateLatency(large),
            exec_.SuspendLatency(large) + exec_.ResumeLatency(large));
}

TEST_F(ExecutorTest, EvictOnlyWithoutProgress) {
  Job& job = MakeJob("DCGAN", 1, 1e9);
  exec_.MakeResident(job.id, K80());
  exec_.EvictResident(job.id);
  EXPECT_EQ(job.state, JobState::kQueued);
  EXPECT_FALSE(job.resident());
}

TEST_F(ExecutorTest, FinishReleasesGpus) {
  Job& job = MakeJob("DCGAN", 4, 16.0);  // 1s of work
  exec_.MakeResident(job.id, K80());
  exec_.Resume(job.id);
  EXPECT_EQ(cluster_.server(K80()).num_free(), 0);
  sim_.Run();
  EXPECT_EQ(cluster_.server(K80()).num_free(), 4);
  EXPECT_FALSE(job.resident());
}

TEST_F(ExecutorTest, DeathOnBadTransitions) {
  Job& job = MakeJob("DCGAN", 1, 100.0);
  EXPECT_DEATH(exec_.Resume(job.id), "suspended");
  exec_.MakeResident(job.id, K80());
  EXPECT_DEATH(exec_.Suspend(job.id), "running");
  exec_.Resume(job.id);
  EXPECT_DEATH(exec_.Migrate(job.id, V100()), "suspend");
}

TEST_F(ExecutorTest, DeathOnOversizedGang) {
  Job& job = MakeJob("DCGAN", 8, 100.0);  // servers have 4 GPUs
  EXPECT_DEATH(exec_.MakeResident(job.id, K80()), "fit");
}

TEST(ExecutorConfigTest, DefaultsAreValid) { EXPECT_TRUE(ExecutorConfig{}.Validate().empty()); }

TEST(ExecutorConfigTest, ReportsEveryBadField) {
  ExecutorConfig config;
  config.rate_noise = -0.1;
  config.migrate_failure_prob = 2.0;
  config.precopy_dirty_fraction = -1.0;
  config.compress_ratio = 0.0;
  config.migrate_bw_gbps = std::nan("");
  EXPECT_EQ(config.Validate().size(), 5u);
}

// Constructs an Executor over a throwaway one-server world.
void Construct(const ExecutorConfig& config) {
  simkit::Simulator sim;
  cluster::Cluster cluster(cluster::Topology{{{GpuGeneration::kV100, 1, 4}}});
  workload::JobTable jobs;
  Executor exec(sim, cluster, workload::ModelZoo::Default(), jobs, config, 1);
}

TEST(ExecutorConfigDeathTest, RejectsNonFiniteRateNoise) {
  ExecutorConfig config;
  config.rate_noise = std::nan("");
  EXPECT_DEATH(Construct(config), "rate_noise");
}

TEST(ExecutorConfigDeathTest, RejectsMigrateFailureProbAboveOne) {
  ExecutorConfig config;
  config.migrate_failure_prob = 1.5;
  EXPECT_DEATH(Construct(config), "migrate_failure_prob");
}

TEST(ExecutorConfigDeathTest, RejectsNegativePrecopyDirtyFraction) {
  ExecutorConfig config;
  config.precopy_dirty_fraction = -0.1;
  EXPECT_DEATH(Construct(config), "precopy_dirty_fraction");
}

TEST(ExecutorConfigDeathTest, RejectsZeroCompressRatio) {
  ExecutorConfig config;
  config.compress_ratio = 0.0;
  EXPECT_DEATH(Construct(config), "compress_ratio");
}

TEST(ExecutorConfigDeathTest, RejectsNonPositiveMigrateBandwidth) {
  ExecutorConfig config;
  config.migrate_bw_gbps = -1.0;
  EXPECT_DEATH(Construct(config), "migrate_bw_gbps");
}

}  // namespace
}  // namespace gfair::exec
