// LegacyGandivaFairScheduler — frozen copy of the pre-refactor monolith.
//
// This is the "seed" implementation of the paper's scheduler, preserved as a
// test oracle: the refactored subsystem-based GandivaFairScheduler must make
// bit-identical decisions, which the equivalence test checks by running both
// implementations over the same fixed-seed scenario and comparing their
// DecisionLog streams entry by entry. Keeping the oracle as live code (rather
// than golden data files) makes the comparison robust to platform differences
// in hash-container iteration order, which both implementations share.
//
// Do not evolve this class; it deliberately retains the old recompute-on-
// demand aggregate structure.
#ifndef GFAIR_TESTS_SCHED_LEGACY_GANDIVA_FAIR_H_
#define GFAIR_TESTS_SCHED_LEGACY_GANDIVA_FAIR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sched/decision_log.h"
#include "sched/gandiva_fair.h"  // GandivaFairConfig
#include "sched/ledger.h"
#include "sched/profiler.h"
#include "sched/scheduler_iface.h"
#include "sched/snapshot.h"
#include "sched/stride.h"
#include "sched/policy/greedy_trade_policy.h"
#include "sched/ticket_matrix.h"
#include "sched/trade.h"

namespace gfair::sched {

class LegacyGandivaFairScheduler : public IScheduler {
 public:
  LegacyGandivaFairScheduler(const SchedulerEnv& env, GandivaFairConfig config);

  void Start() override;
  void Submit(JobId id) override;
  void OnJobFinished(JobId id) override;
  void OnMigrationDone(JobId id) override;
  std::string name() const override { return "LegacyGandivaFair"; }
  FairnessLedger& policy_ledger() override { return ledger_; }

  const std::vector<Trade>& executed_trades() const { return executed_trades_; }
  int64_t migrations_started() const { return migrations_started_; }
  int64_t steals_started() const { return steals_started_; }
  const DecisionLog& decisions() const { return decisions_; }
  const LocalStrideScheduler& stride_for(ServerId server) const;
  double EntitlementGpus(UserId user, cluster::GpuGeneration gen) const;
  double ResidentDemand(UserId user, cluster::GpuGeneration gen) const;

  ClusterSnapshot Snapshot() const;

  void DrainServer(ServerId server);
  void UndrainServer(ServerId server);
  bool IsDraining(ServerId server) const;

 private:
  struct JobInfo {
    ServerId home = ServerId::Invalid();
    SimTime last_charge = kTimeZero;
    SimTime last_migration;
    bool migrating = false;
  };

  LocalStrideScheduler& StrideFor(ServerId server);
  cluster::GpuGeneration GenOf(ServerId server) const;
  JobInfo& InfoFor(JobId id);

  void QuantumTick();
  void BalanceTick();
  void TradeTick();

  void ChargeRunningOn(ServerId server);
  void ApplyTargetSet(ServerId server);
  void FillIdleGpus(ServerId server);
  void CollectSamples(ServerId server);

  ServerId ChoosePlacement(const workload::Job& job) const;
  void StartMigration(JobId id, ServerId dest, MigrationCause cause);
  void TrySteal(ServerId server);
  void AttachResident(JobId id, ServerId server);
  void DetachResident(JobId id);

  void ApplyHierarchy();
  double PerJobTickets(UserId user, cluster::GpuGeneration gen,
                       const workload::Job& job) const;
  double WeightedResidentDemand(UserId user, cluster::GpuGeneration gen) const;
  void RefreshPoolTickets(UserId user, cluster::GpuGeneration gen);
  void RefreshAllTickets();

  void DrainTick();

  std::vector<UserId> ActiveUsers() const;
  bool UserSpeedup(UserId user, cluster::GpuGeneration fast, cluster::GpuGeneration slow,
                   double* out) const;
  void RunProbes();
  void RebalanceResidency(const TradeOutcome& outcome);

  SchedulerEnv env_;
  GandivaFairConfig config_;

  std::vector<LocalStrideScheduler> strides_;
  FairnessLedger ledger_;
  ProfileStore profiles_;
  ProfileTally profile_tally_;  // flushed after the server loop, before stealing
  TicketMatrix ticket_matrix_;
  // The oracle pins the DEFAULT backend: the greedy exchange, held directly
  // (the registry indirection is part of the refactor under test).
  GreedyTradePolicy trading_;
  std::vector<Trade> executed_trades_;

  std::unordered_map<JobId, JobInfo> job_info_;
  std::unordered_map<UserId, cluster::PerGeneration<std::unordered_set<JobId>>>
      user_pool_jobs_;
  std::unordered_map<UserId, int> user_unfinished_jobs_;
  std::unordered_map<UserId, double> user_total_demand_;

  int64_t migrations_started_ = 0;
  int64_t probes_started_ = 0;
  int64_t steals_started_ = 0;
  DecisionLog decisions_;
  std::vector<SimTime> last_steal_;
  std::vector<bool> draining_;
};

}  // namespace gfair::sched

#endif  // GFAIR_TESTS_SCHED_LEGACY_GANDIVA_FAIR_H_
