#include "sched/profiler.h"

#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "simkit/simulator.h"
#include "workload/job.h"

namespace gfair::sched {
namespace {

using cluster::GpuGeneration;
using workload::ModelId;

TEST(ProfilerTest, NoEstimateUntilMinSamples) {
  ProfileStore store(/*min_samples=*/3);
  const ModelId model(0);
  store.AddSamples(model, GpuGeneration::kK80, PerGpuRate(2.0), 1);
  store.AddSamples(model, GpuGeneration::kK80, PerGpuRate(2.0), 1);
  EXPECT_FALSE(store.HasEstimate(model, GpuGeneration::kK80));
  store.AddSamples(model, GpuGeneration::kK80, PerGpuRate(2.0), 1);
  EXPECT_TRUE(store.HasEstimate(model, GpuGeneration::kK80));
  EXPECT_DOUBLE_EQ(store.EstimatedRate(model, GpuGeneration::kK80).raw(), 2.0);
}

TEST(ProfilerTest, EstimateIsMeanOfSamples) {
  ProfileStore store(2);
  const ModelId model(1);
  store.AddSamples(model, GpuGeneration::kV100, PerGpuRate(8.0), 1);
  store.AddSamples(model, GpuGeneration::kV100, PerGpuRate(12.0), 1);
  EXPECT_DOUBLE_EQ(store.EstimatedRate(model, GpuGeneration::kV100).raw(), 10.0);
  EXPECT_EQ(store.SampleCount(model, GpuGeneration::kV100), 2u);
}

TEST(ProfilerTest, SpeedupRequiresBothSides) {
  ProfileStore store(1);
  const ModelId model(0);
  gfair::Speedup speedup;
  store.AddSamples(model, GpuGeneration::kV100, PerGpuRate(10.0), 1);
  EXPECT_FALSE(store.Speedup(model, GpuGeneration::kV100, GpuGeneration::kK80, &speedup));
  store.AddSamples(model, GpuGeneration::kK80, PerGpuRate(2.0), 1);
  ASSERT_TRUE(store.Speedup(model, GpuGeneration::kV100, GpuGeneration::kK80, &speedup));
  EXPECT_DOUBLE_EQ(speedup.raw(), 5.0);
}

TEST(ProfilerTest, UnknownModelHasNothing) {
  ProfileStore store(1);
  EXPECT_FALSE(store.HasEstimate(ModelId(42), GpuGeneration::kK80));
  EXPECT_EQ(store.SampleCount(ModelId(42), GpuGeneration::kK80), 0u);
}

TEST(ProfilerTest, NoisySamplesConvergeToTruth) {
  // Feed samples with 5% multiplicative noise; the estimate must land within
  // 2% of truth — the accuracy property experiment E7 quantifies at scale.
  ProfileStore store(3);
  Rng rng(7);
  const ModelId model(0);
  const double truth = 16.0;
  for (int i = 0; i < 200; ++i) {
    store.AddSamples(model, GpuGeneration::kP40, PerGpuRate(truth * rng.Normal(1.0, 0.05)),
                     1);
  }
  EXPECT_NEAR(store.EstimatedRate(model, GpuGeneration::kP40).raw(), truth, truth * 0.02);
}

TEST(ProfilerTest, ModelsAreIndependent) {
  ProfileStore store(1);
  store.AddSamples(ModelId(0), GpuGeneration::kK80, PerGpuRate(1.0), 1);
  store.AddSamples(ModelId(1), GpuGeneration::kK80, PerGpuRate(9.0), 1);
  EXPECT_DOUBLE_EQ(store.EstimatedRate(ModelId(0), GpuGeneration::kK80).raw(), 1.0);
  EXPECT_DOUBLE_EQ(store.EstimatedRate(ModelId(1), GpuGeneration::kK80).raw(), 9.0);
}

TEST(ProfilerTest, BatchEqualsSingleSamplesOfItsMean) {
  // k samples with mean m, added as one batch, leave the same count and
  // mean as adding them one by one.
  const ModelId model(0);
  const std::vector<double> singles = {4.0, 5.5, 6.25, 8.25};  // mean 6.0
  ProfileStore one_by_one(1);
  ProfileStore batched(1);
  for (ProfileStore* store : {&one_by_one, &batched}) {
    store->AddSamples(model, GpuGeneration::kV100, PerGpuRate(3.0), 1);
    store->AddSamples(model, GpuGeneration::kV100, PerGpuRate(7.0), 1);
  }
  for (double x : singles) {
    one_by_one.AddSamples(model, GpuGeneration::kV100, PerGpuRate(x), 1);
  }
  batched.AddSamples(model, GpuGeneration::kV100, PerGpuRate(6.0), singles.size());
  EXPECT_EQ(batched.SampleCount(model, GpuGeneration::kV100),
            one_by_one.SampleCount(model, GpuGeneration::kV100));
  EXPECT_NEAR(batched.EstimatedRate(model, GpuGeneration::kV100).raw(),
              one_by_one.EstimatedRate(model, GpuGeneration::kV100).raw(), 1e-12);
}

TEST(ProfileTallyTest, FlushAddsOneSamplePerCountedJobAndResets) {
  simkit::Simulator sim;
  cluster::Cluster cluster(cluster::Topology{{{GpuGeneration::kV100, 1, 8}}});
  workload::JobTable jobs;
  exec::ExecutorConfig config;
  config.rate_noise = 0.0;  // group means are then the true per-GPU rates
  exec::Executor exec(sim, cluster, workload::ModelZoo::Default(), jobs, config, 1);
  const auto& zoo = workload::ModelZoo::Default();
  const ModelId dcgan = zoo.GetByName("DCGAN").id;
  const ModelId resnet = zoo.GetByName("ResNet-50").id;

  ProfileStore store(1);
  ProfileTally tally;
  for (int i = 0; i < 3; ++i) {
    tally.Count(dcgan, GpuGeneration::kV100, 1);
  }
  tally.Count(resnet, GpuGeneration::kV100, 4);
  tally.Count(resnet, GpuGeneration::kK80, 2);
  tally.Flush(exec, store);
  EXPECT_EQ(store.SampleCount(dcgan, GpuGeneration::kV100), 3u);
  EXPECT_EQ(store.SampleCount(resnet, GpuGeneration::kV100), 1u);
  EXPECT_EQ(store.SampleCount(resnet, GpuGeneration::kK80), 1u);
  EXPECT_DOUBLE_EQ(store.EstimatedRate(resnet, GpuGeneration::kV100).raw(),
                   zoo.Get(resnet).GangThroughput(GpuGeneration::kV100, 4) / 4.0);

  tally.Flush(exec, store);  // nothing counted since the last flush
  EXPECT_EQ(store.SampleCount(dcgan, GpuGeneration::kV100), 3u);
  tally.Count(dcgan, GpuGeneration::kV100, 1);
  tally.Flush(exec, store);
  EXPECT_EQ(store.SampleCount(dcgan, GpuGeneration::kV100), 4u);
}

TEST(ProfilerDeathTest, RejectsBadSamples) {
  ProfileStore store(1);
  EXPECT_DEATH(store.AddSamples(ModelId(0), GpuGeneration::kK80, PerGpuRate(0.0), 1), "");
  EXPECT_DEATH(store.AddSamples(ModelId(0), GpuGeneration::kK80, PerGpuRate(1.0), 0), "");
  EXPECT_DEATH(store.EstimatedRate(ModelId(0), GpuGeneration::kK80).raw(), "estimate");
}

}  // namespace
}  // namespace gfair::sched
