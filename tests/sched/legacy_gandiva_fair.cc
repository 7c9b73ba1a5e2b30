// Frozen copy of the pre-refactor GandivaFairScheduler monolith (the "seed"
// implementation), kept ONLY as the oracle for the decision-log equivalence
// test: the refactored subsystem-based scheduler must emit an identical
// DecisionLog sequence on a fixed-seed scenario. Do not modify the behavior
// of this class; it intentionally preserves the old O(jobs^2) recompute-on-
// demand structure (minus the removed ResidentJobs()-by-value API).
//
// One sanctioned behavior change since freezing: loops over the per-user
// unordered residency sets that feed decisions (weighted-demand float sums,
// probe snapshots, rebalance candidate scans, entitlement application order)
// iterate in SORTED order, mirroring the determinism fix in the production
// scheduler — both sides previously leaned on identical hash-iteration
// order, which made the equivalence suite pass while leaving every decision
// platform-dependent. The sorted order is now the specified behavior.
#include "legacy_gandiva_fair.h"

#include "sched/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>

#include "common/check.h"
#include "common/log.h"
#include "common/sorted.h"

namespace gfair::sched {

using cluster::GenerationIndex;
using cluster::GpuGeneration;
using workload::Job;
using workload::JobState;

namespace internal_legacy {
// "Long ago" sentinel for last_migration so fresh jobs pass the interval check.
constexpr SimTime kLongAgo = -(int64_t{1} << 60);
// Floor for stride tickets (a user whose pool entitlement was traded away
// still needs a positive ticket count; residency rebalancing then moves its
// jobs out of the pool).
constexpr double kMinTickets = 1e-6;
}  // namespace internal_legacy

using internal_legacy::kLongAgo;
using internal_legacy::kMinTickets;

LegacyGandivaFairScheduler::LegacyGandivaFairScheduler(const SchedulerEnv& env,
                                           GandivaFairConfig config)
    : env_(env), config_(config), trading_(config.trade) {
  profiles_ = ProfileStore(config_.profile_min_samples);
  strides_.reserve(static_cast<size_t>(env_.cluster.num_servers()));
  for (const auto& server : env_.cluster.servers()) {
    strides_.emplace_back(server.num_gpus(), config_.stride);
  }
  last_steal_.assign(static_cast<size_t>(env_.cluster.num_servers()),
                     -(int64_t{1} << 60));
  draining_.assign(static_cast<size_t>(env_.cluster.num_servers()), false);
}

LocalStrideScheduler& LegacyGandivaFairScheduler::StrideFor(ServerId server) {
  GFAIR_CHECK(server.valid() && server.value() < strides_.size());
  return strides_[server.value()];
}

const LocalStrideScheduler& LegacyGandivaFairScheduler::stride_for(ServerId server) const {
  GFAIR_CHECK(server.valid() && server.value() < strides_.size());
  return strides_[server.value()];
}

GpuGeneration LegacyGandivaFairScheduler::GenOf(ServerId server) const {
  return env_.cluster.server(server).generation();
}

LegacyGandivaFairScheduler::JobInfo& LegacyGandivaFairScheduler::InfoFor(JobId id) {
  auto it = job_info_.find(id);
  GFAIR_CHECK_MSG(it != job_info_.end(), "unknown job");
  return it->second;
}

void LegacyGandivaFairScheduler::Start() {
  env_.sim.Every(config_.quantum, [this]() { QuantumTick(); });
  if (config_.enable_load_balancing && env_.cluster.num_servers() > 1) {
    env_.sim.Every(config_.balance_period, [this]() { BalanceTick(); });
  }
  if (config_.enable_trading && env_.cluster.heterogeneous()) {
    env_.sim.Every(config_.trade_period, [this]() { TradeTick(); });
  }
}

void LegacyGandivaFairScheduler::Submit(JobId id) {
  Job& job = env_.jobs.Get(id);
  GFAIR_CHECK(job.state == JobState::kQueued);
  if (!ticket_matrix_.HasUser(job.user)) {
    ticket_matrix_.RegisterUser(job.user, env_.users.Get(job.user).tickets);
  }
  user_unfinished_jobs_[job.user] += 1;
  user_total_demand_[job.user] += job.gang_size;
  if (user_unfinished_jobs_[job.user] == 1) {
    ApplyHierarchy();  // active set grew
  }

  JobInfo info;
  info.last_migration = kLongAgo;
  job_info_[id] = info;

  const ServerId dest = ChoosePlacement(job);
  GFAIR_CHECK_MSG(dest.valid(), "no server can host this gang");
  decisions_.Record(env_.sim.Now(), DecisionType::kPlace, id, ServerId::Invalid(), dest);
  env_.exec.MakeResident(id, dest);
  AttachResident(id, dest);
  FillIdleGpus(dest);
}

void LegacyGandivaFairScheduler::OnJobFinished(JobId id) {
  const Job& job = env_.jobs.Get(id);
  JobInfo& info = InfoFor(id);
  const ServerId server = info.home;
  GFAIR_CHECK(server.valid());

  // Account the final partial quantum to the stride pass before removal.
  LocalStrideScheduler& stride = StrideFor(server);
  if (stride.Contains(id)) {
    stride.Charge(id, env_.sim.Now() - info.last_charge);
  }
  DetachResident(id);

  auto it = user_unfinished_jobs_.find(job.user);
  GFAIR_CHECK(it != user_unfinished_jobs_.end() && it->second > 0);
  it->second -= 1;
  user_total_demand_[job.user] -= job.gang_size;
  if (it->second == 0) {
    ApplyHierarchy();  // active set shrank
  }

  info.home = ServerId::Invalid();
  FillIdleGpus(server);
}

void LegacyGandivaFairScheduler::OnMigrationDone(JobId id) {
  JobInfo& info = InfoFor(id);
  GFAIR_CHECK(info.migrating);
  info.migrating = false;
  AttachResident(id, info.home);
  FillIdleGpus(info.home);
}

void LegacyGandivaFairScheduler::QuantumTick() {
  // Flush open run segments first so ledger windows attribute GPU time to
  // the quantum it was actually consumed in (long uninterrupted runs would
  // otherwise credit hours of GPU time at their eventual close).
  env_.exec.SyncAll();
  for (const auto& server : env_.cluster.servers()) {
    ChargeRunningOn(server.id());
    CollectSamples(server.id());
    ApplyTargetSet(server.id());
  }
  profile_tally_.Flush(env_.exec, profiles_);
  if (config_.enable_work_stealing) {
    for (const auto& server : env_.cluster.servers()) {
      if (server.num_free() > 0) {
        TrySteal(server.id());
      }
    }
  }
}

void LegacyGandivaFairScheduler::ChargeRunningOn(ServerId server) {
  LocalStrideScheduler& stride = StrideFor(server);
  const SimTime now = env_.sim.Now();
  for (JobId id : stride.ResidentJobs()) {
    if (env_.exec.IsRunning(id)) {
      JobInfo& info = InfoFor(id);
      stride.Charge(id, now - info.last_charge);
      info.last_charge = now;
    }
  }
}

void LegacyGandivaFairScheduler::CollectSamples(ServerId server) {
  LocalStrideScheduler& stride = StrideFor(server);
  const GpuGeneration gen = GenOf(server);
  for (JobId id : stride.ResidentJobs()) {
    if (env_.exec.IsRunning(id)) {
      const Job& job = env_.jobs.Get(id);
      profile_tally_.Count(job.model, gen, job.gang_size);
    }
  }
}

void LegacyGandivaFairScheduler::ApplyTargetSet(ServerId server) {
  LocalStrideScheduler& stride = StrideFor(server);
  const std::vector<JobId> target = stride.SelectForQuantum();
  const std::unordered_set<JobId> target_set(target.begin(), target.end());

  // Suspend first so the incoming gang's GPUs are free.
  for (JobId id : stride.ResidentJobs()) {
    if (env_.exec.IsRunning(id) && target_set.count(id) == 0) {
      env_.exec.Suspend(id);
      decisions_.Record(env_.sim.Now(), DecisionType::kSuspend, id, server);
    }
  }
  const SimTime now = env_.sim.Now();
  for (JobId id : target) {
    if (!env_.exec.IsRunning(id)) {
      env_.exec.Resume(id);
      decisions_.Record(now, DecisionType::kResume, id, ServerId::Invalid(), server);
      InfoFor(id).last_charge = now;
    }
  }
}

void LegacyGandivaFairScheduler::FillIdleGpus(ServerId server) {
  cluster::Server& host = env_.cluster.server(server);
  if (host.num_free() == 0) {
    return;
  }
  // Work conservation between quantum ticks: start the best waiting jobs
  // that fit the currently idle GPUs, without preempting anyone. Unlike the
  // quantum boundary, GPUs here free up incrementally, so with
  // reserve_blocked_gang we stop at the first waiting gang that does not fit:
  // its GPUs accumulate instead of being nibbled away by jobs behind it.
  LocalStrideScheduler& stride = StrideFor(server);
  const SimTime now = env_.sim.Now();
  for (JobId id : stride.SelectForQuantum()) {
    if (env_.exec.IsRunning(id)) {
      continue;
    }
    const Job& job = env_.jobs.Get(id);
    if (host.CanFit(job.gang_size)) {
      env_.exec.Resume(id);
      decisions_.Record(now, DecisionType::kResume, id, ServerId::Invalid(), server);
      InfoFor(id).last_charge = now;
    } else if (config_.stride.reserve_blocked_gang) {
      break;
    }
  }
  if (host.num_free() > 0 && config_.enable_work_stealing) {
    TrySteal(server);
  }
}

void LegacyGandivaFairScheduler::AttachResident(JobId id, ServerId server) {
  Job& job = env_.jobs.Get(id);
  JobInfo& info = InfoFor(id);
  info.home = server;
  const GpuGeneration gen = GenOf(server);
  auto& pool_jobs = user_pool_jobs_[job.user][GenerationIndex(gen)];
  GFAIR_CHECK(pool_jobs.insert(id).second);
  StrideFor(server).AddJob(id, job.gang_size,
                           PerJobTickets(job.user, gen, job));
  RefreshPoolTickets(job.user, gen);
  ledger_.RecordDemandChange(job.user, gen, env_.sim.Now(), job.gang_size);
}

void LegacyGandivaFairScheduler::DetachResident(JobId id) {
  Job& job = env_.jobs.Get(id);
  JobInfo& info = InfoFor(id);
  GFAIR_CHECK(info.home.valid());
  const GpuGeneration gen = GenOf(info.home);
  auto& pool_jobs = user_pool_jobs_[job.user][GenerationIndex(gen)];
  GFAIR_CHECK(pool_jobs.erase(id) == 1);
  StrideFor(info.home).RemoveJob(id);
  RefreshPoolTickets(job.user, gen);
  ledger_.RecordDemandChange(job.user, gen, env_.sim.Now(), -job.gang_size);
}

double LegacyGandivaFairScheduler::WeightedResidentDemand(UserId user,
                                                    GpuGeneration gen) const {
  auto it = user_pool_jobs_.find(user);
  if (it == user_pool_jobs_.end()) {
    return 0.0;
  }
  // Exact fixed-point sum in 2^-32 units of gang x weight, converted at read
  // time (mirrors ResidencyIndex's currency demand). Integer addition makes
  // the walk order irrelevant; for dyadic weights the value equals the plain
  // floating-point sum bit for bit.
  int64_t units = 0;
  for (JobId id : common::SortedKeys(it->second[GenerationIndex(gen)])) {
    const Job& job = env_.jobs.Get(id);
    units += std::llround(job.gang_size * job.weight * 4294967296.0);
  }
  return static_cast<double>(units) / 4294967296.0;
}

double LegacyGandivaFairScheduler::PerJobTickets(UserId user, GpuGeneration gen,
                                           const Job& job) const {
  // A user's pool tickets are split across its resident jobs proportional to
  // weight x gang size (equal weighted GPU-time per demanded GPU). An equal
  // per-job split would let the user's 1-GPU jobs run continuously while its
  // 8-GPU gang — one job, one share — starved at an eighth of its demand.
  const double pool_tickets =
      std::max(ticket_matrix_.Get(user, gen).raw(), kMinTickets);
  const double share = job.gang_size * job.weight;
  const double demand = std::max(WeightedResidentDemand(user, gen), share);
  return pool_tickets * share / demand;
}

void LegacyGandivaFairScheduler::RefreshPoolTickets(UserId user, GpuGeneration gen) {
  auto it = user_pool_jobs_.find(user);
  if (it == user_pool_jobs_.end()) {
    return;
  }
  const auto& pool_jobs = it->second[GenerationIndex(gen)];
  if (pool_jobs.empty()) {
    return;
  }
  for (JobId id : pool_jobs) {
    const Job& job = env_.jobs.Get(id);
    StrideFor(job_info_.at(id).home)
        .SetTickets(id, PerJobTickets(user, gen, job));
  }
}

void LegacyGandivaFairScheduler::RefreshAllTickets() {
  for (const auto& [user, pools] : user_pool_jobs_) {
    for (GpuGeneration gen : cluster::kAllGenerations) {
      RefreshPoolTickets(user, gen);
    }
  }
}

ClusterSnapshot LegacyGandivaFairScheduler::Snapshot() const {
  ClusterSnapshot snapshot;
  snapshot.time = env_.sim.Now();
  for (const auto& server : env_.cluster.servers()) {
    ServerSnapshot view;
    view.id = server.id();
    view.generation = server.generation();
    view.num_gpus = server.num_gpus();
    view.busy_gpus = server.num_busy();
    const auto& stride = stride_for(server.id());
    view.resident_jobs = static_cast<int>(stride.num_jobs());
    view.demand_load = stride.DemandLoad() / static_cast<double>(server.num_gpus());
    view.ticket_load =
        stride.TicketLoad().raw() / static_cast<double>(server.num_gpus());
    view.draining = draining_[server.id().value()];
    snapshot.servers.push_back(view);
  }
  for (const auto& user : env_.users.users()) {
    UserSnapshot view;
    view.id = user.id;
    view.name = user.name;
    auto it = user_unfinished_jobs_.find(user.id);
    view.unfinished_jobs = it != user_unfinished_jobs_.end() ? it->second : 0;
    for (GpuGeneration gen : cluster::kAllGenerations) {
      const size_t g = GenerationIndex(gen);
      view.entitlement_gpus[g] =
          ticket_matrix_.HasUser(user.id) ? EntitlementGpus(user.id, gen) : 0.0;
      view.resident_demand[g] = ResidentDemand(user.id, gen);
    }
    snapshot.users.push_back(view);
  }
  return snapshot;
}

bool LegacyGandivaFairScheduler::IsDraining(ServerId server) const {
  GFAIR_CHECK(server.valid() && server.value() < draining_.size());
  return draining_[server.value()];
}

void LegacyGandivaFairScheduler::DrainServer(ServerId server) {
  GFAIR_CHECK(server.valid() && server.value() < draining_.size());
  if (draining_[server.value()]) {
    return;
  }
  draining_[server.value()] = true;
  GFAIR_ILOG << "draining server " << server;
  DrainTick();
}

void LegacyGandivaFairScheduler::UndrainServer(ServerId server) {
  GFAIR_CHECK(server.valid() && server.value() < draining_.size());
  draining_[server.value()] = false;
}

void LegacyGandivaFairScheduler::DrainTick() {
  const SimTime now = env_.sim.Now();
  for (size_t s = 0; s < draining_.size(); ++s) {
    if (!draining_[s]) {
      continue;
    }
    const ServerId source(static_cast<uint32_t>(s));
    const cluster::GpuGeneration gen = GenOf(source);
    // Bounded batch: residents leave over successive balance ticks so the
    // migration network is not swamped.
    int budget = config_.max_migrations_per_round;
    // Copy: StartMigration below removes jobs from this stride scheduler,
    // invalidating its cached resident vector.
    const std::vector<JobId> resident = StrideFor(source).ResidentJobs();
    for (JobId id : resident) {
      if (budget <= 0) {
        break;
      }
      const Job& job = env_.jobs.Get(id);
      // Least-loaded non-draining server of the pool that fits the gang.
      ServerId dest = ServerId::Invalid();
      double dest_load = std::numeric_limits<double>::infinity();
      for (ServerId sid : env_.cluster.servers_of(gen)) {
        if (sid == source || draining_[sid.value()]) {
          continue;
        }
        const auto& peer = env_.cluster.server(sid);
        if (peer.num_gpus() < job.gang_size) {
          continue;
        }
        const double load = stride_for(sid).TicketLoad().raw() / peer.num_gpus();
        if (load < dest_load) {
          dest_load = load;
          dest = sid;
        }
      }
      if (!dest.valid()) {
        GFAIR_WLOG << "drain: no destination for job " << id << " at "
                   << FormatDuration(now) << "; leaving it in place";
        continue;
      }
      StartMigration(id, dest, MigrationCause::kBalance);
      --budget;
    }
  }
}

void LegacyGandivaFairScheduler::ApplyHierarchy() {
  if (!config_.enable_hierarchical_sharing) {
    return;
  }
  bool any_grouped = false;
  for (const auto& user : env_.users.users()) {
    if (!user.group.empty()) {
      any_grouped = true;
      break;
    }
  }
  if (!any_grouped) {
    return;
  }
  const std::vector<UserId> active = ActiveUsers();
  if (active.empty()) {
    return;
  }
  // Mirrors the refactored scheduler: sorted for deterministic row insertion.
  for (const auto& [user, tickets] :
       common::SortedItems(ComputeHierarchicalTickets(env_.users, active))) {
    // Resets the user's pool row to the new base; the next trading epoch
    // rebuilds trades on top (activity changes invalidate them anyway).
    ticket_matrix_.RegisterUser(user, tickets);
  }
  RefreshAllTickets();
}

std::vector<UserId> LegacyGandivaFairScheduler::ActiveUsers() const {
  std::vector<UserId> active;
  for (const auto& [user, count] : user_unfinished_jobs_) {
    if (count > 0) {
      active.push_back(user);
    }
  }
  std::sort(active.begin(), active.end());
  return active;
}

double LegacyGandivaFairScheduler::EntitlementGpus(UserId user, GpuGeneration gen) const {
  const int pool = env_.cluster.total_gpus(gen);
  if (pool == 0) {
    return 0.0;
  }
  const std::vector<UserId> active = ActiveUsers();
  if (active.empty()) {
    return static_cast<double>(pool);
  }
  double total = 0.0;
  double mine = 0.0;
  for (UserId v : active) {
    const double tickets = ticket_matrix_.Get(v, gen).raw();
    total += tickets;
    if (v == user) {
      mine = tickets;
    }
  }
  if (total <= 0.0) {
    return static_cast<double>(pool) / static_cast<double>(active.size());
  }
  return mine / total * static_cast<double>(pool);
}

double LegacyGandivaFairScheduler::ResidentDemand(UserId user, GpuGeneration gen) const {
  auto it = user_pool_jobs_.find(user);
  if (it == user_pool_jobs_.end()) {
    return 0.0;
  }
  double demand = 0.0;
  for (JobId id : it->second[GenerationIndex(gen)]) {
    demand += env_.jobs.Get(id).gang_size;
  }
  return demand;
}

}  // namespace gfair::sched
#include <algorithm>
#include <limits>

#include "common/check.h"
#include "common/log.h"
#include "legacy_gandiva_fair.h"

namespace gfair::sched {

using cluster::GenerationIndex;
using cluster::GpuGeneration;
using workload::Job;

namespace {
// Entitlement floor when scoring pools so that fully-traded-away pools score
// astronomically bad instead of dividing by zero.
constexpr double kEntitlementFloor = 0.01;
}  // namespace

ServerId LegacyGandivaFairScheduler::ChoosePlacement(const Job& job) const {
  // Pool choice: keep the user's per-pool resident demand proportional to its
  // per-pool entitlement, preferring faster generations on ties (we iterate
  // fastest-first and only accept strictly better scores).
  ServerId best_server = ServerId::Invalid();
  double best_score = std::numeric_limits<double>::infinity();

  const auto& model = env_.zoo.Get(job.model);
  for (size_t g = cluster::kNumGenerations; g-- > 0;) {
    const GpuGeneration gen = cluster::kAllGenerations[g];
    if (env_.cluster.total_gpus(gen) == 0 || !model.FitsGeneration(gen)) {
      continue;
    }
    // Cheapest server of the pool that can ever host the gang; residency is
    // oversubscribed (time slicing), so "fits" means physical GPU count.
    // While the pool has idle capacity, occupancy (resident demand per GPU)
    // is the signal — idle GPUs must attract work. Once every server is
    // saturated, ticket load is the signal: a new job's realized share is
    // its tickets relative to its server's ticket density, so packing by
    // "fewest jobs" would herd heavy-ticket users together and dilute them.
    ServerId candidate = ServerId::Invalid();
    double candidate_demand = std::numeric_limits<double>::infinity();
    double candidate_tickets = std::numeric_limits<double>::infinity();
    for (ServerId id : env_.cluster.servers_of(gen)) {
      const auto& server = env_.cluster.server(id);
      if (server.num_gpus() < job.gang_size || IsDraining(id)) {
        continue;
      }
      const double gpus = server.num_gpus();
      // Saturated servers compare equal on occupancy; below saturation the
      // emptier server wins.
      const double demand_load =
          std::min(1.0, stride_for(id).DemandLoad() / gpus);
      const double ticket_load = stride_for(id).TicketLoad().raw() / gpus;
      if (demand_load < candidate_demand - 1e-9 ||
          (demand_load < candidate_demand + 1e-9 && ticket_load < candidate_tickets)) {
        candidate_demand = demand_load;
        candidate_tickets = ticket_load;
        candidate = id;
      }
    }
    if (!candidate.valid()) {
      continue;
    }
    const double entitlement =
        std::max(EntitlementGpus(job.user, gen), kEntitlementFloor);
    const double demand = ResidentDemand(job.user, gen) + job.gang_size;
    const double score = demand / entitlement;
    if (score < best_score - 1e-12) {
      best_score = score;
      best_server = candidate;
    }
  }
  return best_server;
}

void LegacyGandivaFairScheduler::TrySteal(ServerId server) {
  const SimTime now = env_.sim.Now();
  GFAIR_CHECK(server.value() < last_steal_.size());
  if (now - last_steal_[server.value()] < config_.quantum) {
    return;  // at most one steal per server per quantum
  }
  if (IsDraining(server)) {
    return;  // draining servers must not attract work
  }
  const cluster::Server& host = env_.cluster.server(server);
  const int free = host.num_free();
  if (free <= 0) {
    return;
  }
  const GpuGeneration gen = host.generation();

  // Most oversubscribed peer holding a suspended job that fits our idle
  // GPUs. Same-pool peers first; if none, pull queued work up from SLOWER
  // pools (an upgrade is always throughput-positive given the zoo's
  // monotone rates), respecting memory feasibility.
  JobId best = JobId::Invalid();
  double best_overflow = 0.25;  // require genuine oversubscription
  auto scan_pool = [&](GpuGeneration pool) {
    for (ServerId sid : env_.cluster.servers_of(pool)) {
      if (sid == server) {
        continue;
      }
      const auto& peer = env_.cluster.server(sid);
      const double overflow =
          stride_for(sid).DemandLoad() - static_cast<double>(peer.num_gpus());
      if (overflow <= best_overflow) {
        continue;
      }
      JobId candidate = JobId::Invalid();
      int candidate_gang = 0;
      for (JobId id : stride_for(sid).ResidentJobs()) {
        if (env_.exec.IsRunning(id)) {
          continue;
        }
        const Job& job = env_.jobs.Get(id);
        if (job.gang_size > free || job.gang_size <= candidate_gang) {
          continue;
        }
        if (!env_.zoo.Get(job.model).FitsGeneration(gen)) {
          continue;
        }
        if (now - job_info_.at(id).last_migration < config_.min_migration_interval) {
          continue;
        }
        candidate = id;
        candidate_gang = job.gang_size;
      }
      if (candidate.valid()) {
        best = candidate;
        best_overflow = overflow;
      }
    }
  };
  scan_pool(gen);
  if (!best.valid() && ActiveUsers().size() <= 1) {
    // Cross-pool upgrades are only a pure work-conservation move when a
    // single user is active; with multiple users, cross-pool allocation
    // belongs to the trading engine (stealing here would fight its
    // entitlements and skew shares).
    for (size_t g = 0; g < cluster::GenerationIndex(gen); ++g) {
      scan_pool(cluster::kAllGenerations[g]);
    }
  }
  if (!best.valid()) {
    return;
  }
  last_steal_[server.value()] = now;
  ++steals_started_;
  GFAIR_DLOG << "steal: job " << best << " -> server " << server;
  StartMigration(best, server, MigrationCause::kSteal);
}

void LegacyGandivaFairScheduler::StartMigration(JobId id, ServerId dest,
                                           MigrationCause cause) {
  JobInfo& info = InfoFor(id);
  GFAIR_CHECK(!info.migrating);
  GFAIR_CHECK(dest.valid() && dest != info.home);
  const ServerId source = info.home;
  decisions_.Record(env_.sim.Now(), DecisionFor(cause), id, source, dest);

  if (env_.exec.IsRunning(id)) {
    StrideFor(source).Charge(id, env_.sim.Now() - info.last_charge);
    env_.exec.Suspend(id);
  }
  DetachResident(id);
  info.migrating = true;
  info.last_migration = env_.sim.Now();
  info.home = dest;  // AttachResident uses this when the migration lands
  ++migrations_started_;
  env_.exec.Migrate(id, dest);
  GFAIR_DLOG << "migrating job " << id << " from server " << source << " to " << dest;
  FillIdleGpus(source);
}

}  // namespace gfair::sched
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/log.h"
#include "legacy_gandiva_fair.h"

namespace gfair::sched {

using cluster::GenerationIndex;
using cluster::GpuGeneration;
using cluster::kAllGenerations;
using workload::Job;

// ---------------------------------------------------------------------------
// Load balancing: keep per-server ticket load even within each pool.
// ---------------------------------------------------------------------------

void LegacyGandivaFairScheduler::BalanceTick() {
  const SimTime now = env_.sim.Now();
  DrainTick();  // evacuate draining servers first
  for (GpuGeneration gen : kAllGenerations) {
    const auto& servers = env_.cluster.servers_of(gen);
    if (servers.size() < 2) {
      continue;
    }

    // Pass 1 — work conservation: a server whose residents demand more GPUs
    // than it has, next to a server with spare GPUs, wastes capacity that no
    // amount of local time-slicing can recover. Move waiting (suspended)
    // jobs from oversubscribed servers onto idle GPUs.
    std::unordered_map<ServerId, double> pending_demand;  // in-flight arrivals
    for (int round = 0; round < config_.max_migrations_per_round; ++round) {
      ServerId src = ServerId::Invalid();
      ServerId dst = ServerId::Invalid();
      double worst_overflow = 0.5;  // demand beyond capacity, in GPUs
      double best_spare = 0.999;    // idle GPUs worth of headroom
      for (ServerId id : servers) {
        if (IsDraining(id)) {
          continue;
        }
        const auto& server = env_.cluster.server(id);
        const double demand = stride_for(id).DemandLoad() + pending_demand[id];
        const double overflow = demand - server.num_gpus();
        const double spare = server.num_gpus() - demand;
        if (overflow > worst_overflow) {
          worst_overflow = overflow;
          src = id;
        }
        if (spare > best_spare) {
          best_spare = spare;
          dst = id;
        }
      }
      if (!src.valid() || !dst.valid()) {
        break;
      }
      // Largest suspended gang that fits the destination's headroom.
      JobId candidate = JobId::Invalid();
      int candidate_gang = 0;
      for (JobId id : StrideFor(src).ResidentJobs()) {
        if (env_.exec.IsRunning(id)) {
          continue;
        }
        const Job& job = env_.jobs.Get(id);
        const JobInfo& info = job_info_.at(id);
        if (now - info.last_migration < config_.min_migration_interval) {
          continue;
        }
        if (job.gang_size <= best_spare + 1e-9 && job.gang_size > candidate_gang) {
          candidate = id;
          candidate_gang = job.gang_size;
        }
      }
      if (!candidate.valid()) {
        break;
      }
      pending_demand[dst] += candidate_gang;
      StartMigration(candidate, dst, MigrationCause::kConserve);
    }

    // Pass 2 — fairness: even out per-server ticket load so every resident
    // job's stride share is realizable. Tickets already in flight toward a
    // destination this round:
    std::unordered_map<ServerId, double> pending;

    for (int round = 0; round < config_.max_migrations_per_round; ++round) {
      ServerId max_server = ServerId::Invalid();
      ServerId min_server = ServerId::Invalid();
      double max_load = -std::numeric_limits<double>::infinity();
      double min_load = std::numeric_limits<double>::infinity();
      double sum_load = 0.0;
      for (ServerId id : servers) {
        if (IsDraining(id)) {
          continue;
        }
        const double gpus = env_.cluster.server(id).num_gpus();
        const double load = (stride_for(id).TicketLoad().raw() + pending[id]) / gpus;
        sum_load += load;
        if (load > max_load) {
          max_load = load;
          max_server = id;
        }
        if (load < min_load) {
          min_load = load;
          min_server = id;
        }
      }
      const double avg_load = sum_load / static_cast<double>(servers.size());
      if (max_load - min_load <= config_.balance_threshold * std::max(avg_load, 1e-9)) {
        break;
      }

      // Candidate = resident job on the hottest server whose move shrinks the
      // gap the most and still leaves the destination cooler than the source
      // was.
      const double src_gpus = env_.cluster.server(max_server).num_gpus();
      const double dst_gpus = env_.cluster.server(min_server).num_gpus();
      JobId best = JobId::Invalid();
      double best_gap = max_load - min_load;
      for (JobId id : StrideFor(max_server).ResidentJobs()) {
        const Job& job = env_.jobs.Get(id);
        const JobInfo& info = job_info_.at(id);
        if (now - info.last_migration < config_.min_migration_interval) {
          continue;
        }
        if (env_.cluster.server(min_server).num_gpus() < job.gang_size) {
          continue;
        }
        const double tickets = stride_for(max_server).TicketsOf(id).raw();
        const double new_src = max_load - tickets / src_gpus;
        const double new_dst = min_load + tickets / dst_gpus;
        if (new_dst >= max_load) {
          continue;  // would just swap the hot spot
        }
        const double gap = std::abs(new_src - new_dst);
        if (gap < best_gap) {
          best_gap = gap;
          best = id;
        }
      }
      if (!best.valid()) {
        break;
      }
      pending[min_server] += stride_for(max_server).TicketsOf(best).raw();
      StartMigration(best, min_server, MigrationCause::kBalance);
    }
  }
}

// ---------------------------------------------------------------------------
// Trading epoch: probe coverage, recompute trades, reshape tickets, move jobs
// toward their users' traded entitlements.
// ---------------------------------------------------------------------------

bool LegacyGandivaFairScheduler::UserSpeedup(UserId user, GpuGeneration fast,
                                       GpuGeneration slow, double* out) const {
  GFAIR_CHECK(out != nullptr);
  auto it = user_pool_jobs_.find(user);
  if (it == user_pool_jobs_.end()) {
    return false;
  }
  // Demand-weighted mean over the user's resident jobs with usable profiles.
  double weight_sum = 0.0;
  double weighted = 0.0;
  for (GpuGeneration gen : kAllGenerations) {
    // Sorted: float accumulation (mirrors TradeCoordinator::UserSpeedup).
    for (JobId id : common::SortedKeys(it->second[GenerationIndex(gen)])) {
      const Job& job = env_.jobs.Get(id);
      const auto& model = env_.zoo.Get(job.model);
      if (!model.FitsGeneration(fast) || !model.FitsGeneration(slow)) {
        continue;  // this job could not move between these pools
      }
      gfair::Speedup speedup;
      if (profiles_.Speedup(job.model, fast, slow, &speedup)) {
        weighted += speedup.raw() * job.gang_size;
        weight_sum += job.gang_size;
      }
    }
  }
  if (weight_sum <= 0.0) {
    return false;
  }
  // Quantize to 0.25 steps: profile noise on the raw mean flips the
  // lender/borrower matching between epochs, and every flip costs a round of
  // residency migrations before the new entitlements are realized. Floor
  // rather than round — the trade rate is the borrower's speedup, so any
  // upward bias makes borrowers systematically overpay.
  *out = std::max(1.0, std::floor(weighted / weight_sum * 4.0) / 4.0);
  return true;
}

void LegacyGandivaFairScheduler::RunProbes() {
  int budget = config_.max_probes_per_epoch;
  const SimTime now = env_.sim.Now();

  for (UserId user : ActiveUsers()) {
    if (budget <= 0) {
      break;
    }
    auto it = user_pool_jobs_.find(user);
    if (it == user_pool_jobs_.end()) {
      continue;
    }
    // Snapshot: StartMigration mutates the residency sets. Sorted within
    // each pool (mirrors TradeCoordinator::RunProbes).
    std::vector<JobId> resident;
    for (GpuGeneration gen : kAllGenerations) {
      for (JobId id : common::SortedKeys(it->second[GenerationIndex(gen)])) {
        resident.push_back(id);
      }
    }
    bool probed = false;
    for (JobId id : resident) {
      if (probed) {
        break;
      }
      const Job& job = env_.jobs.Get(id);
      const JobInfo& info = job_info_.at(id);
      if (now - info.last_migration < config_.min_migration_interval) {
        continue;
      }
      const GpuGeneration current = GenOf(info.home);
      for (GpuGeneration missing : kAllGenerations) {
        if (missing == current || env_.cluster.total_gpus(missing) == 0) {
          continue;
        }
        if (!env_.zoo.Get(job.model).FitsGeneration(missing)) {
          continue;  // cannot even load there — nothing to profile
        }
        if (profiles_.HasEstimate(job.model, missing)) {
          continue;
        }
        // Cheapest server of the missing generation that can host the gang.
        ServerId dest = ServerId::Invalid();
        double dest_load = std::numeric_limits<double>::infinity();
        for (ServerId sid : env_.cluster.servers_of(missing)) {
          const auto& server = env_.cluster.server(sid);
          if (server.num_gpus() < job.gang_size || IsDraining(sid)) {
            continue;
          }
          const double load = stride_for(sid).TicketLoad().raw() / server.num_gpus();
          if (load < dest_load) {
            dest_load = load;
            dest = sid;
          }
        }
        if (dest.valid()) {
          GFAIR_DLOG << "probe: job " << id << " -> " << cluster::GenerationName(missing);
          StartMigration(id, dest, MigrationCause::kProbe);
          ++probes_started_;
          --budget;
          probed = true;  // one probe per user per epoch
          break;
        }
      }
    }
  }
}

void LegacyGandivaFairScheduler::TradeTick() {
  if (!config_.enable_trading || !env_.cluster.heterogeneous()) {
    return;
  }
  const std::vector<UserId> active = ActiveUsers();
  if (active.size() < 2) {
    // Nobody to trade with: no probes either (a probe strands the lone
    // user's job on a slower pool with no trade flow to bring it back).
    ticket_matrix_.ResetToBase();
    RefreshAllTickets();
    return;
  }
  RunProbes();

  TradeInputs inputs;
  inputs.active_users = active;
  for (UserId user : active) {
    // Matrix base = hierarchy-adjusted effective tickets (== the user's own
    // tickets when hierarchical sharing is off or the user is ungrouped).
    inputs.base_tickets[user] = ticket_matrix_.base(user);
    inputs.total_demand_gpus[user] = user_total_demand_.at(user);
  }
  for (GpuGeneration gen : kAllGenerations) {
    inputs.pool_sizes[GenerationIndex(gen)] = env_.cluster.total_gpus(gen);
  }
  inputs.user_speedup = [this](UserId user, GpuGeneration fast, GpuGeneration slow,
                               Speedup* out) {
    double raw = 0.0;
    if (!UserSpeedup(user, fast, slow, &raw)) {
      return false;
    }
    *out = Speedup::FromRatio(raw);
    return true;
  };

  const TradeOutcome outcome = trading_.Allocate(inputs);

  ticket_matrix_.ResetToBase();
  if (!outcome.trades.empty()) {
    // Pool tickets become the traded entitlements (stride normalizes within
    // each pool, so entitlement GPUs double as tickets). Sorted like the
    // production coordinator: sets on distinct users commute, but the
    // decision-affecting consumers of `entitlements` all route through
    // common::SortedItems.
    for (const auto& [user, entitlement] : common::SortedItems(outcome.entitlements)) {
      for (GpuGeneration gen : kAllGenerations) {
        ticket_matrix_.Set(user, gen,
                           std::max(entitlement[GenerationIndex(gen)], 0.0));
      }
    }
    executed_trades_.insert(executed_trades_.end(), outcome.trades.begin(),
                            outcome.trades.end());
    for (size_t i = 0; i < outcome.trades.size(); ++i) {
      decisions_.Record(env_.sim.Now(), DecisionType::kTrade, JobId::Invalid());
    }
  }
  RefreshAllTickets();
  if (!outcome.trades.empty()) {
    RebalanceResidency(outcome);
  }
}

void LegacyGandivaFairScheduler::RebalanceResidency(const TradeOutcome& outcome) {
  int budget = config_.max_trade_migrations;
  const SimTime now = env_.sim.Now();

  // Sorted by user (mirrors TradeCoordinator::RebalanceResidency).
  for (const auto& [user, entitlement] : common::SortedItems(outcome.entitlements)) {
    while (budget > 0) {
      cluster::PerGeneration<double> surplus{};
      for (GpuGeneration gen : kAllGenerations) {
        surplus[GenerationIndex(gen)] =
            entitlement[GenerationIndex(gen)] - ResidentDemand(user, gen);
      }
      // Most over-resident pool and most under-used entitlement.
      size_t over = 0;
      size_t under = 0;
      for (size_t g = 1; g < cluster::kNumGenerations; ++g) {
        if (surplus[g] < surplus[over]) {
          over = g;
        }
        if (surplus[g] > surplus[under]) {
          under = g;
        }
      }
      // Deadband: entitlements are fractional while residency moves in whole
      // gangs, so small mismatches are permanent — chasing them would
      // migrate the same jobs back and forth every epoch.
      if (surplus[over] > -1.0 || surplus[under] < 1.0) {
        break;
      }
      auto it = user_pool_jobs_.find(user);
      if (it == user_pool_jobs_.end()) {
        break;
      }

      // Smallest gang that the destination surplus still covers. Sorted:
      // ties break to the lowest job id (mirrors the production scheduler).
      JobId candidate = JobId::Invalid();
      int candidate_gang = INT32_MAX;
      for (JobId id : common::SortedKeys(it->second[over])) {
        const Job& job = env_.jobs.Get(id);
        const JobInfo& info = job_info_.at(id);
        if (now - info.last_migration < config_.min_migration_interval) {
          continue;
        }
        if (!env_.zoo.Get(job.model).FitsGeneration(kAllGenerations[under])) {
          continue;
        }
        if (job.gang_size <= surplus[under] && job.gang_size < candidate_gang) {
          candidate = id;
          candidate_gang = job.gang_size;
        }
      }
      if (!candidate.valid()) {
        break;
      }
      const GpuGeneration dest_gen = kAllGenerations[under];
      ServerId dest = ServerId::Invalid();
      double dest_load = std::numeric_limits<double>::infinity();
      for (ServerId sid : env_.cluster.servers_of(dest_gen)) {
        const auto& server = env_.cluster.server(sid);
        if (server.num_gpus() < candidate_gang || IsDraining(sid)) {
          continue;
        }
        const double load = stride_for(sid).TicketLoad().raw() / server.num_gpus();
        if (load < dest_load) {
          dest_load = load;
          dest = sid;
        }
      }
      if (!dest.valid()) {
        break;
      }
      StartMigration(candidate, dest, MigrationCause::kTrade);
      --budget;
    }
    if (budget <= 0) {
      break;
    }
  }
}

}  // namespace gfair::sched
