#include "sched/cluster_state_index.h"

#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace gfair::sched {
namespace {

using cluster::GpuGeneration;

cluster::Cluster MakeCluster() {
  // Servers 0-2: V100 x4 GPUs. Servers 3-4: K80 x8 GPUs.
  cluster::Topology topology{{
      cluster::ServerGroup{GpuGeneration::kV100, 3, 4},
      cluster::ServerGroup{GpuGeneration::kK80, 2, 8},
  }};
  return cluster::Cluster(topology);
}

TEST(ClusterStateIndexTest, LeastLoadedTracksMutationsLazily) {
  const cluster::Cluster cluster = MakeCluster();
  ClusterStateIndex index(cluster, StrideConfig{});

  // All loads zero: ties resolve to the lowest server id.
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(0));
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kK80, 1), ServerId(3));

  const CurrencyId currency = CurrencyOf(UserId(0), GpuGeneration::kV100);
  const CurrencyShare share = CurrencyShare::Of(2, 1.0);
  index.AddJob(ServerId(0), JobId(1), 2, 4.0, currency, share);  // norm load 1.0
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(1));
  index.AddJob(ServerId(1), JobId(2), 1, 1.0);  // norm load 0.25
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(2));
  index.AddJob(ServerId(2), JobId(3), 1, 2.0);  // norm load 0.5
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(1));

  // Ticket updates reposition (lazily — the query must see the new order).
  CurrencyDemand demand;
  demand.Issue(share);
  index.RerateCurrency(currency, 0.4, demand);  // norm load 0.1
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(0));
  EXPECT_DOUBLE_EQ(index.NormTicketLoad(ServerId(0)), 0.1);

  // Removal drops the load back to zero.
  index.RemoveJob(ServerId(1), JobId(2));
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(1));
}

TEST(ClusterStateIndexTest, RerateCurrencyRevaluesHoldersOnEveryHost) {
  const cluster::Cluster cluster = MakeCluster();
  ClusterStateIndex index(cluster, StrideConfig{});
  const CurrencyId mine = CurrencyOf(UserId(0), GpuGeneration::kV100);
  const CurrencyId theirs = CurrencyOf(UserId(1), GpuGeneration::kV100);
  EXPECT_NE(mine, theirs);
  EXPECT_NE(mine, CurrencyOf(UserId(0), GpuGeneration::kK80));

  index.AddJob(ServerId(0), JobId(1), 1, 1.0, mine, CurrencyShare::Of(1, 1.0));
  index.AddJob(ServerId(0), JobId(2), 2, 1.0, mine, CurrencyShare::Of(2, 1.0));
  index.AddJob(ServerId(1), JobId(3), 1, 4.0, mine, CurrencyShare::Of(1, 0.5));
  index.AddJob(ServerId(2), JobId(4), 1, 3.0, theirs, CurrencyShare::Of(1, 1.0));
  ASSERT_EQ(index.currency_hosts(mine).size(), 2u);
  EXPECT_EQ(index.currency_hosts(mine)[0].server, ServerId(0));
  EXPECT_EQ(index.currency_hosts(mine)[0].holders, 2);
  EXPECT_EQ(index.currency_hosts(mine)[1].holders, 1);
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(0));

  CurrencyDemand demand;  // 1 + 2 + 0.5
  demand.Issue(CurrencyShare::Of(1, 1.0));
  demand.Issue(CurrencyShare::Of(2, 1.0));
  demand.Issue(CurrencyShare::Of(1, 0.5));
  index.RerateCurrency(mine, 7.0, demand);
  EXPECT_EQ(index.stride(ServerId(0)).TicketsOf(JobId(1)), Tickets(2.0));
  EXPECT_EQ(index.stride(ServerId(0)).TicketsOf(JobId(2)), Tickets(4.0));
  EXPECT_EQ(index.stride(ServerId(1)).TicketsOf(JobId(3)), Tickets(1.0));
  EXPECT_EQ(index.stride(ServerId(2)).TicketsOf(JobId(4)), Tickets(3.0));
  // Re-rated servers reposition (lazily): norm loads 1.5, 0.25, 0.75.
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1), ServerId(1));
  EXPECT_TRUE(index.plan_dirty(ServerId(1)));

  index.RemoveJob(ServerId(1), JobId(3));
  ASSERT_EQ(index.currency_hosts(mine).size(), 1u);
  index.RemoveJob(ServerId(0), JobId(2));
  EXPECT_EQ(index.currency_hosts(mine)[0].holders, 1);
  index.RemoveJob(ServerId(0), JobId(1));
  EXPECT_TRUE(index.currency_hosts(mine).empty());
  EXPECT_EQ(index.currency_hosts(theirs).size(), 1u);
}

TEST(ClusterStateIndexTest, QueryFiltersExcludeDrainingAndCapacity) {
  const cluster::Cluster cluster = MakeCluster();
  ClusterStateIndex index(cluster, StrideConfig{});

  // exclude
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 1, ServerId(0)), ServerId(1));
  // min_gpus: no V100 server has 8 GPUs
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kV100, 8), ServerId::Invalid());
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kK80, 8), ServerId(3));

  // draining servers never qualify
  EXPECT_FALSE(index.AnyDraining());
  index.SetDraining(ServerId(3), true);
  EXPECT_TRUE(index.AnyDraining());
  EXPECT_TRUE(index.draining(ServerId(3)));
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kK80, 1), ServerId(4));
  index.SetDraining(ServerId(4), true);
  EXPECT_EQ(index.LeastLoadedServer(GpuGeneration::kK80, 1), ServerId::Invalid());
  index.SetDraining(ServerId(3), false);
  index.SetDraining(ServerId(4), false);
  EXPECT_FALSE(index.AnyDraining());
  // Repeated SetDraining with the same value must not skew the counter.
  index.SetDraining(ServerId(3), false);
  EXPECT_FALSE(index.AnyDraining());
}

TEST(ClusterStateIndexTest, PoolOrderingStaysSorted) {
  const cluster::Cluster cluster = MakeCluster();
  ClusterStateIndex index(cluster, StrideConfig{});
  index.AddJob(ServerId(0), JobId(1), 1, 8.0);
  index.AddJob(ServerId(1), JobId(2), 1, 2.0);
  index.AddJob(ServerId(2), JobId(3), 1, 4.0);

  const auto& pool = index.pool_by_load(GpuGeneration::kV100);
  ASSERT_EQ(pool.size(), 3u);
  double prev = -1.0;
  for (const auto& [load, id] : pool) {
    EXPECT_GE(load, prev);
    EXPECT_DOUBLE_EQ(load, index.NormTicketLoad(id));
    prev = load;
  }
  EXPECT_EQ(pool.begin()->second, ServerId(1));
}

}  // namespace
}  // namespace gfair::sched
