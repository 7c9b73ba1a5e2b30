// ClusterStateIndex — incrementally-maintained per-server scheduler state.
//
// The shared state layer every GandivaFair subsystem operates on. It owns the
// per-server LocalStrideScheduler instances (whose ticket/demand loads are
// themselves cached, see stride.h), the job-slot table those strides share
// (job id -> entry position and heap generation, one per cluster rather than
// one per server), the per-server draining flags, and — the piece that makes
// cluster-wide queries cheap — one ordered set per GPU generation of that
// pool's servers keyed by normalized ticket load (tickets per physical GPU),
// plus ServerId as the tie-breaker.
//
// It also keeps, per ticket currency (sched/currency.h), the list of servers
// hosting that currency's holders, with holder counts, maintained by
// AddJob/RemoveJob. A ticket refresh is RerateCurrency: each hosting server
// revalues its own holders, so its cost follows the servers the currency
// spans, not the number of jobs the user has.
//
// Invariants:
//  * By the time any ordered-set query runs, a server's position in its
//    pool's set reflects stride(s).TicketLoad() / num_gpus(s). Mutations that
//    can change a ticket load go through AddJob/RemoveJob/RerateCurrency
//    here, which mark the server's position dirty; queries flush dirty
//    positions first. Deferring the reposition means a server re-rated
//    several times between queries is repositioned once.
//    stride() gives raw access only for operations that cannot change loads
//    (Charge, SelectForQuantum, reads).
//  * Ties in the ordered set resolve to the lower ServerId. Because
//    Cluster::servers_of() lists ids in ascending order, a "first strictly
//    smaller wins" linear scan and a walk of this set agree on the winner —
//    which keeps index-backed least-loaded queries decision-identical to the
//    pre-index linear scans.
#ifndef GFAIR_SCHED_CLUSTER_STATE_INDEX_H_
#define GFAIR_SCHED_CLUSTER_STATE_INDEX_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/check.h"
#include "common/types.h"
#include "sched/stride.h"

namespace gfair::sched {

class ClusterStateIndex {
 public:
  ClusterStateIndex(const cluster::Cluster& cluster, const StrideConfig& stride_config);
  // The strides point into slots_: the index stays where it was built.
  ClusterStateIndex(const ClusterStateIndex&) = delete;
  ClusterStateIndex& operator=(const ClusterStateIndex&) = delete;

  // --- per-server stride access ---
  // Raw access for load-neutral operations (Charge, PlanQuantum, reads).
  // Inline: these run once or more per job per quantum.
  LocalStrideScheduler& stride(ServerId server) {
    GFAIR_CHECK(server.valid() && server.value() < strides_.size());
    return strides_[server.value()];
  }
  const LocalStrideScheduler& stride(ServerId server) const {
    GFAIR_CHECK(server.valid() && server.value() < strides_.size());
    return strides_[server.value()];
  }

  // --- load-changing mutations (keep the pool ordering fresh) ---
  // A job added with a valid currency joins that currency's host list.
  void AddJob(ServerId server, JobId id, int gang_size, Tickets tickets,
              CurrencyId currency = CurrencyId::Invalid(), CurrencyShare share = {});
  void RemoveJob(ServerId server, JobId id);
  // Revalues every resident holder of `currency` at its current rate
  // (LocalStrideScheduler::RerateCurrency on each server hosting the
  // currency) and marks those servers load- and plan-dirty.
  // O(hosting servers x their residents).
  void RerateCurrency(CurrencyId currency, Tickets pool_tickets, CurrencyDemand demand);
  // Servers hosting at least one holder of `currency`, with holder counts,
  // in no particular order.
  struct CurrencyHost {
    ServerId server;
    int holders;
  };
  const std::vector<CurrencyHost>& currency_hosts(CurrencyId currency) const;
  // Runnable toggles change ticket/demand loads and the selectable set, so
  // they go through the index too (pool reposition + plan dirty).
  void SetRunnable(ServerId server, JobId id, bool runnable);

  // --- draining ---
  void SetDraining(ServerId server, bool draining);
  bool draining(ServerId server) const {
    GFAIR_CHECK(server.valid() && server.value() < draining_.size());
    return draining_[server.value()];
  }
  // True when any server is currently draining (lets periodic drain batches
  // short-circuit).
  bool AnyDraining() const { return num_draining_ > 0; }

  // --- availability ---
  // Mirror of the cluster's up/down flag, set by the facade's server-down/up
  // handlers. A down server is invisible to LeastLoadedServer; its stride
  // state stays intact only transiently (the orphan callbacks that follow a
  // failure detach every resident job).
  void SetDown(ServerId server, bool down);
  bool down(ServerId server) const {
    GFAIR_CHECK(server.valid() && server.value() < down_.size());
    return down_[server.value()];
  }
  bool AnyDown() const { return num_down_ > 0; }

  // --- plan dirty-set (consumed by QuantumPlanner) ---
  // A server is plan-dirty when its selectable set may have changed since the
  // facade last accepted a plan for it: job arrival/completion/migration
  // (AddJob/RemoveJob), ticket changes, runnable toggles, and up/down
  // transitions all mark it. The flag is one half of the planner's skip
  // condition — see QuantumPlanner for the invariant and the other half.
  bool plan_dirty(ServerId server) const {
    GFAIR_CHECK(server.valid() && server.value() < plan_dirty_.size());
    return plan_dirty_[server.value()] != 0;
  }
  // The facade clears the flag when it commits a plan for the server (the
  // planner itself is pure and touches nothing).
  void ClearPlanDirty(ServerId server) {
    GFAIR_CHECK(server.valid() && server.value() < plan_dirty_.size());
    plan_dirty_[server.value()] = 0;
  }

  // --- queries ---
  // Normalized ticket load (tickets per physical GPU) — O(1) amortized. A
  // bare double on purpose: it is the pool ordering key (PoolByLoad below),
  // not a fairness quantity.
  double NormTicketLoad(ServerId server) const;  // gfair-lint: allow(raw-double-in-sched-api)

  // Least-normalized-ticket-load server of `gen` with at least `min_gpus`
  // GPUs, not draining, and not `exclude`. O(log n) plus filtered prefix.
  // Invalid when no server qualifies.
  ServerId LeastLoadedServer(cluster::GpuGeneration gen, int min_gpus,
                             ServerId exclude = ServerId::Invalid()) const;

  // The pool's (normalized load, server) pairs in ascending order.
  using PoolByLoad = std::set<std::pair<double, ServerId>>;
  const PoolByLoad& pool_by_load(cluster::GpuGeneration gen) const {
    Flush();
    return pools_by_load_[cluster::GenerationIndex(gen)];
  }

  size_t num_servers() const { return strides_.size(); }

 private:
  void MarkDirty(ServerId server);
  void MarkPlanDirty(ServerId server) { plan_dirty_[server.value()] = 1; }
  // Repositions every dirty server in its pool's ordered set.
  void Flush() const;
  void Reposition(ServerId server) const;

  const cluster::Cluster& cluster_;
  // The job-slot table every stride below shares (see stride.h).
  JobSlots slots_;
  std::vector<LocalStrideScheduler> strides_;  // indexed by ServerId value
  // Per currency (indexed by CurrencyId value), the servers hosting its
  // holders: O(currencies + resident jobs) in total.
  std::vector<std::vector<CurrencyHost>> currency_hosts_;
  std::vector<bool> draining_;
  int num_draining_ = 0;
  std::vector<bool> down_;
  int num_down_ = 0;
  // uint8_t, not vector<bool>: read once per server per quantum.
  std::vector<uint8_t> plan_dirty_;

  // Lazily-maintained pool orderings (see header comment).
  mutable std::vector<double> load_key_;  // key currently in the pool set
  mutable std::vector<bool> pos_dirty_;
  mutable std::vector<ServerId> dirty_list_;
  mutable cluster::PerGeneration<PoolByLoad> pools_by_load_;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_CLUSTER_STATE_INDEX_H_
