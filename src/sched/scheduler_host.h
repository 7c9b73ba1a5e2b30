// ISchedulerHost — the facade services shared by the GandivaFair subsystems.
//
// PlacementEngine, LoadBalancer and TradeCoordinator all need a small set of
// cross-cutting operations that belong to the facade because they touch
// several subsystems at once: emitting a migration (schedule plan + decision
// log + residency + executor + work conservation at the source), the
// entitlement computation (ticket matrix x active users), and the per-job
// ticket refresh. Depending on this narrow interface instead of the facade
// keeps the subsystems acyclic and unit-testable against a stub.
#ifndef GFAIR_SCHED_SCHEDULER_HOST_H_
#define GFAIR_SCHED_SCHEDULER_HOST_H_

#include "cluster/gpu.h"
#include "common/types.h"
#include "sched/decision_log.h"

namespace gfair::sched {

class ISchedulerHost {
 public:
  virtual ~ISchedulerHost() = default;

  // Emits a migration directive (job `id` to `dest` under `cause`) into the
  // facade's current SchedulePlan, which applies it through the shared
  // migration path: record the decision, suspend if running, detach, ship.
  // Applied eagerly — later decisions in the same balancing/trading pass
  // read the post-migration residency. Precondition: not already migrating,
  // dest valid and different from the current home.
  virtual void EmitMigration(JobId id, ServerId dest, MigrationCause cause) = 0;

  // User's current entitlement (in GPUs) on a pool, given active users.
  virtual double EntitlementGpus(UserId user, cluster::GpuGeneration gen) const = 0;

  // Re-rates every active ticket currency from the ticket matrix, which
  // revalues every resident job's stride tickets (after a trading epoch
  // reshaped pool tickets).
  virtual void RefreshAllTickets() = 0;

  // Re-places a job that lost its server (state kQueued, no server). If no
  // up server can take the gang right now, the host parks the job and keeps
  // retrying — an orphan is never dropped.
  virtual void ReplaceOrphan(JobId id) = 0;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_SCHEDULER_HOST_H_
