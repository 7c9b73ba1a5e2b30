// ResidencyIndex — who lives where, and what each user demands.
//
// Owns the per-job scheduler bookkeeping (home server, charge/migration
// timestamps) and the per-user aggregates the monolith used to recompute by
// walking job sets on every read:
//  * per-user per-pool resident job sets (the ground truth),
//  * per-user per-pool resident GPU demand (sum of gang sizes — incremental,
//    exact because it is a sum of small integers),
//  * per-user per-pool weighted resident demand — the issued shares of the
//    (user, pool) ticket currency (sum of gang x weight, see
//    sched/currency.h), kept as an exact fixed-point integer that Attach
//    and Detach adjust in O(1); no re-summing, no order dependence,
//  * per-user unfinished-job counts, total outstanding demand, and the
//    sorted active-user set.
//
// In debug builds every incremental aggregate is asserted against a full
// recompute at read time.
#ifndef GFAIR_SCHED_RESIDENCY_INDEX_H_
#define GFAIR_SCHED_RESIDENCY_INDEX_H_

#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/gpu.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "sched/currency.h"
#include "workload/job.h"

namespace gfair::sched {

class ResidencyIndex {
 public:
  struct JobInfo {
    ServerId home = ServerId::Invalid();  // resident/destination server
    // Immutable copies of the job's model and gang size (set at
    // registration). The quantum's charge-and-sample walk needs both for
    // every running job; carrying them here — in the info line the walk
    // already touches for last_charge — spares it a JobTable load per job.
    workload::ModelId model = workload::ModelId::Invalid();
    SimTime last_charge = kTimeZero;
    SimTime last_migration;  // initialized to "long ago"
    int gang_size = 0;
    bool migrating = false;
    // An outstanding pre-copy claim: the bulk checkpoint transfer is in
    // flight while the job stays resident (and schedulable) at `home`.
    // Cleared at cutover, at abandonment (finish/orphan/failure), or when
    // the scheduler drops the claim. A precopying job is never picked as a
    // migration candidate and never carries `migrating` at the same time.
    bool precopying = false;
  };

  explicit ResidencyIndex(const workload::JobTable& jobs) : jobs_(jobs) {}

  // --- job lifecycle ---
  // Registers an arriving job (unfinished count, total demand, JobInfo with
  // last_migration = long ago). Returns true when the user just became
  // active (its first unfinished job).
  bool RegisterJob(JobId id, UserId user, int gang_size);
  // The inverse, at job completion. Returns true when the user just became
  // inactive.
  bool DeregisterJob(JobId id, UserId user, int gang_size);

  // Defined inline: read per resident job per quantum.
  JobInfo& Info(JobId id) {
    GFAIR_CHECK_MSG(id.value() < job_info_.size() && job_registered_[id.value()],
                    "unknown job");
    return job_info_[id.value()];
  }
  const JobInfo& Info(JobId id) const {
    GFAIR_CHECK_MSG(id.value() < job_info_.size() && job_registered_[id.value()],
                    "unknown job");
    return job_info_[id.value()];
  }

  // Cache hint for an upcoming Info() call in a walk over scattered job ids.
  // No effect on behavior.
  void PrefetchInfo(JobId id) const {
    if (id.value() < job_info_.size()) {
      __builtin_prefetch(&job_info_[id.value()]);
    }
  }

  // --- pool residency (ground truth for demand aggregates) ---
  void Attach(UserId user, cluster::GpuGeneration gen, JobId id);
  void Detach(UserId user, cluster::GpuGeneration gen, JobId id);
  // The user's resident jobs on a pool; empty set when the user is unknown.
  const std::unordered_set<JobId>& PoolJobs(UserId user, cluster::GpuGeneration gen) const;

  // --- aggregates ---
  // Resident GPU demand of `user` on `gen` (sum of gang sizes). O(1).
  double ResidentDemand(UserId user, cluster::GpuGeneration gen) const;
  // Resident demand weighted by job weight (sum of gang x weight): the
  // issued shares of the user's currency on `gen`. O(1), exact.
  CurrencyDemand WeightedResidentDemand(UserId user, cluster::GpuGeneration gen) const;
  // Total outstanding GPU demand (includes in-flight migrations, which are
  // resident in no pool set). O(1).
  double TotalDemand(UserId user) const;
  int UnfinishedJobs(UserId user) const;

  // Users with at least one unfinished job, ascending. The set itself is
  // maintained incrementally; ActiveUsers() materializes the sorted vector
  // the monolith rebuilt per call.
  const std::set<UserId>& active_users() const { return active_users_; }
  std::vector<UserId> ActiveUsers() const {
    return std::vector<UserId>(active_users_.begin(), active_users_.end());
  }

 private:
  struct UserPools {
    cluster::PerGeneration<std::unordered_set<JobId>> jobs;
    cluster::PerGeneration<double> resident_demand{};
    cluster::PerGeneration<CurrencyDemand> weighted_demand{};
  };

  const workload::JobTable& jobs_;
  // Dense, indexed by job id; slots are created by RegisterJob and never
  // erased (the monolith kept every job's info alive too, and references
  // from Info() must stay valid across detach/deregister). Info() is called
  // for every resident job every quantum — a hash probe per call dominates.
  std::vector<JobInfo> job_info_;
  std::vector<bool> job_registered_;
  std::unordered_map<UserId, UserPools> user_pools_;
  std::unordered_map<UserId, int> user_unfinished_jobs_;
  std::unordered_map<UserId, double> user_total_demand_;
  std::set<UserId> active_users_;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_RESIDENCY_INDEX_H_
