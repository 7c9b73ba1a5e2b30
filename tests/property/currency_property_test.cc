// Ticket-currency property: the scheduler stores each job's tickets once and
// re-rates a (user, pool) currency only when its demand or value changes.
// Across random sequences of arrivals (attach), completions (detach), drains
// (migrate), trade epochs and hierarchy changes, with mixed gangs and
// dyadic and non-dyadic weights, every resident job's stride tickets must
// equal the currency valuation recomputed from scratch, bit for bit, and
// every pool demand must equal the exact sum of its residents' shares.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "analysis/harness.h"
#include "common/rng.h"
#include "sched/gandiva_fair.h"

namespace gfair {
namespace {

using analysis::Experiment;
using analysis::ExperimentConfig;
using cluster::GpuGeneration;

// Checks every resident job against the from-scratch valuation. Returns the
// number of resident jobs checked.
size_t ExpectCurrenciesConsistent(Experiment& exp, const sched::GandivaFairScheduler& s) {
  // Ground truth: residency as the strides see it, shares summed in exact
  // 2^-32 units per (user, pool).
  std::map<std::pair<UserId, GpuGeneration>, int64_t> units;
  for (const auto& server : exp.cluster().servers()) {
    for (JobId id : s.stride_for(server.id()).ResidentJobs()) {
      const workload::Job& job = exp.jobs().Get(id);
      units[{job.user, server.generation()}] +=
          std::llround(job.gang_size * job.weight * sched::kCurrencyUnitsPerShare);
    }
  }
  for (const auto& [key, sum] : units) {
    EXPECT_EQ(s.residency().WeightedResidentDemand(key.first, key.second).units(), sum)
        << "pool demand of user " << key.first;
  }
  size_t checked = 0;
  for (const auto& server : exp.cluster().servers()) {
    const sched::LocalStrideScheduler& stride = s.stride_for(server.id());
    for (JobId id : stride.ResidentJobs()) {
      const workload::Job& job = exp.jobs().Get(id);
      const Tickets pool_tickets =
          std::max(s.tickets().Get(job.user, server.generation()), sched::kMinPoolTickets);
      const double share = job.gang_size * job.weight;
      const double demand = static_cast<double>(units.at({job.user, server.generation()})) /
                            sched::kCurrencyUnitsPerShare;
      const Tickets expected = pool_tickets * share / std::max(demand, share);
      EXPECT_EQ(stride.TicketsOf(id), expected) << "job " << id << " on server " << server.id();
      ++checked;
    }
  }
  return checked;
}

class CurrencyProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CurrencyProperty, TicketsMatchFromScratchValuation) {
  const uint64_t seed = GetParam();
  ExperimentConfig config;
  config.topology = cluster::Topology{{
      cluster::ServerGroup{GpuGeneration::kK80, 4, 8},
      cluster::ServerGroup{GpuGeneration::kV100, 4, 8},
  }};
  config.seed = seed;
  Experiment exp(config);
  // Two grouped users make every active-set change re-split the group
  // (ApplyHierarchy); the others trade on their own tickets.
  const std::vector<UserId> users = {
      exp.users().Create("a", 2.0).id,
      exp.users().Create("b", 1.0).id,
      exp.users().CreateInGroup("c", "team", 1.0).id,
      exp.users().CreateInGroup("d", "team", 3.0).id,
  };
  sched::GandivaFairConfig gf;
  gf.trade_period = Minutes(5);
  exp.UseGandivaFair(gf);

  Rng rng(seed);
  const char* models[] = {"ResNeXt-50", "VAE", "DCGAN", "Transformer"};
  const int gangs[] = {1, 1, 2, 4, 8};
  const double weights[] = {1.0, 0.3, 0.5, 2.0, 0.7, 1.5, 3.0};
  const SimTime horizon = Hours(8);
  for (int i = 0; i < 90; ++i) {
    const SimTime arrival = static_cast<SimTime>(rng.Uniform(0.0, 6.0 * 3600'000.0));
    exp.SubmitAt(arrival, users[rng.UniformInt(0, 3)], models[rng.UniformInt(0, 3)],
                 gangs[rng.UniformInt(0, 4)],
                 static_cast<SimDuration>(rng.Uniform(0.3, 4.0) * 3600'000.0),
                 weights[rng.UniformInt(0, 6)]);
  }

  sched::GandivaFairScheduler* sched = nullptr;
  size_t checked = 0;
  std::vector<ServerId> drained;
  SimTime now = 0;
  while (now < horizon) {
    now = std::min(horizon, now + static_cast<SimTime>(rng.UniformInt(1, 12)) * Minutes(1));
    exp.Run(now);
    sched = exp.gandiva();
    ASSERT_NE(sched, nullptr);
    // Drains migrate residents off a server; undrains let them back.
    if (rng.Bernoulli(0.15)) {
      const ServerId server(static_cast<uint32_t>(rng.UniformInt(0, 7)));
      if (!sched->IsDraining(server)) {
        sched->DrainServer(server);
        drained.push_back(server);
      }
    } else if (!drained.empty() && rng.Bernoulli(0.3)) {
      sched->UndrainServer(drained.back());
      drained.pop_back();
    }
    checked += ExpectCurrenciesConsistent(exp, *sched);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  // The sequence must actually exercise the mechanisms under test.
  EXPECT_GT(checked, 500u);
  EXPECT_GT(sched->migrations_started(), 0);
  EXPECT_FALSE(sched->executed_trades().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CurrencyProperty, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace gfair
