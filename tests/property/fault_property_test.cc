// Fault-plane property test: GandivaFair under sustained server churn AND
// flaky checkpoint transfers must never lose or wedge a job. Once the churn
// stops and the cluster heals, every submitted job finishes. Extra cases
// turn on pre-copy migrations (claims that span ticks) and warm-up overlap
// with a larger job mix, so those executor paths also run under churn.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "analysis/harness.h"
#include "exec/fault_injector.h"

namespace gfair {
namespace {

using workload::JobState;

std::string Joined(const std::vector<std::string>& violations) {
  std::string all;
  for (const auto& v : violations) {
    all += v;
    all += "; ";
  }
  return all;
}

struct ChurnCase {
  uint64_t seed;
  bool precopy = false;
  bool overlap_warmup = false;
  int models = 3;  // the first `models` entries of kModels, round-robin
  int jobs = 10;
};

// The test name carries the seed plus every non-default knob, e.g.
// ".../13_precopy_overlap_4models_14jobs".
void PrintTo(const ChurnCase& c, std::ostream* os) {
  *os << c.seed;
  if (c.precopy) *os << "_precopy";
  if (c.overlap_warmup) *os << "_overlap";
  if (c.models != 3) *os << "_" << c.models << "models";
  if (c.jobs != 10) *os << "_" << c.jobs << "jobs";
}

class FaultChurnProperty : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(FaultChurnProperty, NoJobLostOrWedgedUnderChurn) {
  const ChurnCase& c = GetParam();
  analysis::ExperimentConfig config;
  config.topology = cluster::Topology{{
      {cluster::GpuGeneration::kK80, 2, 4},
      {cluster::GpuGeneration::kV100, 2, 4},
  }};
  config.exec.migrate_failure_prob = 0.3;  // one in three transfers flakes
  config.exec.precopy = c.precopy;
  config.exec.overlap_warmup = c.overlap_warmup;
  config.seed = c.seed;
  analysis::Experiment exp(config);
  const UserId alice = exp.users().Create("alice").id;
  const UserId bob = exp.users().Create("bob").id;
  exp.UseGandivaFair({});

  Rng rng(c.seed);
  const char* kModels[] = {"DCGAN", "VAE", "ResNet-50", "Transformer"};
  for (int i = 0; i < c.jobs; ++i) {
    exp.SubmitAt(Minutes(rng.UniformInt(0, 120)), i % 2 == 0 ? alice : bob,
                 kModels[i % c.models], static_cast<int>(1 << rng.UniformInt(0, 2)),
                 Minutes(rng.UniformInt(30, 90)));
  }
  exp.Run(Seconds(1));

  exec::FaultInjectorConfig faults;
  faults.server_mtbf = Hours(2);  // aggressive: ~2 failures/hour across 4 servers
  faults.server_mttr = Minutes(20);
  faults.seed = c.seed * 31 + 7;
  exec::FaultInjector injector(exp.sim(), exp.cluster(), exp.exec(), faults);
  injector.Start();

  // Step through six hours of churn, checking liveness invariants at every
  // step: valid job states, no resurrecting progress, down servers hold no
  // GPUs, and capacity accounting stays exact.
  for (SimTime t = Minutes(10); t <= Hours(6); t += Minutes(10)) {
    exp.Run(t);
    // The registered cluster-wide invariants (gang residency, entitlement
    // conservation, pass monotonicity, delta ordering, down-holds-nothing)
    // must hold at every churn step, not just quantum boundaries.
    const auto violations = exp.gandiva()->CheckInvariants();
    EXPECT_TRUE(violations.empty()) << "at t=" << t << " (seed " << c.seed
                                    << "): " << Joined(violations);
    int up_gpus = 0;
    for (const auto& server : exp.cluster().servers()) {
      if (!server.up()) {
        ASSERT_EQ(server.num_busy(), 0) << "down server still holds GPUs";
      } else {
        up_gpus += server.num_gpus();
      }
    }
    ASSERT_EQ(up_gpus, exp.cluster().up_gpus());
    for (const auto* job : exp.jobs().All()) {
      ASSERT_GE(job->completed_minibatches, job->checkpointed_minibatches - 1e-6);
      if (job->state == JobState::kRunning || job->state == JobState::kSuspended) {
        ASSERT_TRUE(job->server.valid());
        ASSERT_TRUE(exp.cluster().server(job->server).up());
      }
    }
  }
  ASSERT_GT(injector.failures_injected(), 0) << "churn never fired; test is vacuous";
  if (c.precopy) {
    ASSERT_GT(exp.exec().accounting().precopies_started(), 0)
        << "no pre-copy migration started; the pre-copy case is vacuous";
  }
  if (c.overlap_warmup) {
    ASSERT_GT(exp.exec().accounting().overlap_saved_ms(), 0)
        << "no warm-up was overlapped; the overlap case is vacuous";
  }

  // Stop injecting; pending repairs still complete, so the cluster heals and
  // everything parked or retried must drain.
  injector.Stop();
  exp.Run(Hours(16));

  EXPECT_EQ(exp.cluster().num_up_servers(), 4);
  EXPECT_EQ(exp.gandiva()->pending_orphan_count(), 0u);
  const auto healed = exp.gandiva()->CheckInvariants();
  EXPECT_TRUE(healed.empty()) << Joined(healed);
  int64_t orphanings = 0;
  for (const auto* job : exp.jobs().All()) {
    EXPECT_EQ(job->state, JobState::kFinished)
        << "job " << job->id << " stuck after the cluster healed (seed "
        << c.seed << ")";
    orphanings += job->num_orphanings;
  }
  EXPECT_EQ(orphanings, exp.exec().jobs_orphaned());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FaultChurnProperty,
    ::testing::Values(ChurnCase{1}, ChurnCase{2}, ChurnCase{3}, ChurnCase{4},
                      // Pre-copy claims outlive the tick that made them.
                      ChurnCase{7, true}, ChurnCase{11, true},
                      // Pre-copy plus warm-up overlap on a wider job mix.
                      ChurnCase{13, true, true, 4, 14},
                      ChurnCase{29, true, true, 4, 14}));

}  // namespace
}  // namespace gfair
