#include "exec/executor.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "common/log.h"

namespace gfair::exec {

using cluster::GpuGeneration;
using workload::Job;
using workload::JobState;

std::vector<std::string> ExecutorConfig::Validate() const {
  std::vector<std::string> errors;
  // Written as !(in range) so NaN fails every check.
  if (!(std::isfinite(rate_noise) && rate_noise >= 0.0)) {
    errors.push_back("rate_noise must be finite and >= 0, got " + std::to_string(rate_noise));
  }
  if (!(migrate_failure_prob >= 0.0 && migrate_failure_prob <= 1.0)) {
    errors.push_back("migrate_failure_prob must be in [0, 1], got " +
                     std::to_string(migrate_failure_prob));
  }
  if (!(precopy_dirty_fraction >= 0.0 && precopy_dirty_fraction <= 1.0)) {
    errors.push_back("precopy_dirty_fraction must be in [0, 1], got " +
                     std::to_string(precopy_dirty_fraction));
  }
  if (!(compress_ratio > 0.0)) {
    errors.push_back("compress_ratio must be > 0, got " + std::to_string(compress_ratio));
  }
  if (!(migrate_bw_gbps > 0.0)) {
    errors.push_back("migrate_bw_gbps must be > 0, got " + std::to_string(migrate_bw_gbps));
  }
  return errors;
}

namespace {

std::string JoinErrors(const std::vector<std::string>& errors) {
  std::string joined = "invalid ExecutorConfig:";
  for (const std::string& error : errors) {
    joined += " " + error + ";";
  }
  return joined;
}

}  // namespace

Executor::Executor(simkit::Simulator& sim, cluster::Cluster& cluster,
                   const workload::ModelZoo& zoo, workload::JobTable& jobs,
                   ExecutorConfig config, uint64_t seed)
    : sim_(sim),
      cluster_(cluster),
      zoo_(zoo),
      jobs_(jobs),
      config_(config),
      rng_(seed),
      fault_rng_(seed ^ 0x9E3779B97F4A7C15ULL) {
  const std::vector<std::string> errors = config_.Validate();
  GFAIR_CHECK_MSG(errors.empty(), JoinErrors(errors).c_str());
}

SimDuration Executor::SuspendLatency(workload::ModelId model) const {
  const auto& profile = zoo_.Get(model);
  return Seconds(config_.suspend_base_s + config_.suspend_per_gb_s * profile.checkpoint_gb);
}

SimDuration Executor::ResumeLatency(workload::ModelId model) const {
  const auto& profile = zoo_.Get(model);
  return Seconds(config_.resume_base_s + config_.resume_per_gb_s * profile.checkpoint_gb);
}

double Executor::CompressedGb(workload::ModelId model) const {
  return zoo_.Get(model).checkpoint_gb / config_.compress_ratio;
}

SimDuration Executor::TransferTime(double compressed_gb, double compress_cpu_s) const {
  return Seconds(compressed_gb / config_.migrate_bw_gbps + compress_cpu_s);
}

SimDuration Executor::MigrateLatency(workload::ModelId model) const {
  const double cpu_s =
      config_.compress_seconds_per_gb * zoo_.Get(model).checkpoint_gb;
  return SuspendLatency(model) + TransferTime(CompressedGb(model), cpu_s) +
         ResumeLatency(model);
}

const Executor::ModelCosts& Executor::CostsFor(workload::ModelId model) {
  const size_t idx = model.value();
  if (idx >= model_costs_.size()) {
    model_costs_.resize(idx + 1);
  }
  ModelCosts& costs = model_costs_[idx];
  if (!costs.init) {
    costs.suspend = SuspendLatency(model);
    costs.resume = ResumeLatency(model);
    costs.init = true;
  }
  return costs;
}

simkit::TimerId Executor::FinishTimerFor(JobId id) {
  const size_t idx = id.value();
  if (idx >= finish_timer_.size()) {
    finish_timer_.resize(idx + 1, simkit::kInvalidTimer);
  }
  if (finish_timer_[idx] == simkit::kInvalidTimer) {
    finish_timer_[idx] = sim_.CreateTimer([this, id]() { OnFinishEvent(id); });
  }
  return finish_timer_[idx];
}

void Executor::MakeResident(JobId id, ServerId server) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kQueued, "MakeResident requires a queued job");
  const auto& target = cluster_.server(server);
  GFAIR_CHECK_MSG(target.up(), "MakeResident on a down server");
  GFAIR_CHECK_MSG(job.gang_size <= target.num_gpus(),
                  "gang cannot ever fit on this server");
  GFAIR_CHECK_MSG(zoo_.Get(job.model).FitsGeneration(target.generation()),
                  "model does not fit this generation's GPU memory");
  job.server = server;
  job.state = JobState::kSuspended;
}

void Executor::EvictResident(JobId id) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK(job.state == JobState::kSuspended);
  // Exact by construction: a never-run job's progress is the literal 0.0 it
  // was initialized with (no accumulation has happened yet).
  GFAIR_CHECK_MSG(job.completed_minibatches == 0.0,  // gfair-lint: allow(float-eq)
                  "cannot evict a job with progress; use Migrate");
  job.server = ServerId::Invalid();
  job.state = JobState::kQueued;
}

double Executor::TrueRate(JobId id, GpuGeneration gen) const {
  const Job& job = jobs_.Get(id);
  return zoo_.Get(job.model).GangThroughput(gen, job.gang_size);
}

void Executor::Resume(JobId id) { ResumeWithOverlap(id, 0); }

void Executor::ResumeWithOverlap(JobId id, SimDuration overlap_allowance) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kSuspended, "Resume requires a suspended job");
  cluster::Server& server = cluster_.server(job.server);
  GFAIR_CHECK_MSG(server.up(), "Resume on a down server");
  GFAIR_CHECK_MSG(server.CanFit(job.gang_size), "Resume without free GPUs");
  server.Allocate(id, job.gang_size);

  // One profile lookup serves both the warm-up latency and the true rate
  // (ResumeLatency + TrueRate would fetch it twice on the per-quantum path).
  const auto& profile = zoo_.Get(job.model);
  RunSegment seg;
  seg.start = sim_.Now();
  seg.warmup = CostsFor(job.model).resume;
  if (overlap_allowance > 0) {
    // Overlap mode: the warm-up hides behind the drain of the jobs suspended
    // earlier in the same apply slice (see ExecutorConfig::overlap_warmup);
    // only the un-hidden prefix bubbles.
    const SimDuration hidden = std::min(seg.warmup, overlap_allowance);
    seg.warmup -= hidden;
    acct_.AddOverlapSaved(hidden);
  }
  seg.gen = server.generation();
  seg.rate = profile.GangThroughput(seg.gen, job.gang_size);
  GFAIR_CHECK(seg.rate > 0.0);

  const double remaining = job.remaining_minibatches();
  GFAIR_CHECK(remaining > 0.0);
  const SimDuration work_time =
      static_cast<SimDuration>(std::ceil(remaining / seg.rate * kSecond));
  sim_.ArmTimerAt(FinishTimerFor(id), seg.start + seg.warmup + work_time);

  if (id.value() >= segments_.size()) {
    segments_.resize(id.value() + 1);
  }
  seg.active = true;
  seg.running_pos = static_cast<uint32_t>(running_list_.size());
  running_list_.push_back(id);
  segments_[id.value()] = seg;
  job.state = JobState::kRunning;
  job.num_resumes += 1;
  job.overhead_ms += seg.warmup;
  acct_.AddWarmupBubble(seg.warmup);
}

double Executor::SegmentProgress(const RunSegment& seg, SimDuration elapsed) {
  const SimDuration productive = std::max<SimDuration>(0, elapsed - seg.warmup);
  return seg.rate * ToSeconds(productive);
}

Executor::RunSegment& Executor::SegmentOf(JobId id) {
  GFAIR_CHECK_MSG(IsRunning(id), "job has no active run segment");
  return segments_[id.value()];
}

void Executor::CloseSegment(Job& job, bool cancel_finish_event) {
  RunSegment& seg = SegmentOf(job.id);
  const SimTime now = sim_.Now();
  const int64_t gpu_ms = AdvanceSegment(job, seg, now);
  if (gpu_ms > 0 && on_gpu_time_) {
    on_gpu_time_(job.user, seg.gen, now, gpu_ms);
  }

  if (cancel_finish_event) {
    sim_.DisarmTimer(finish_timer_[job.id.value()]);
  }

  cluster_.server(job.server).Release(job.id);
  const JobId moved = running_list_.back();
  running_list_[seg.running_pos] = moved;
  segments_[moved.value()].running_pos = seg.running_pos;
  running_list_.pop_back();
  seg.active = false;
}

void Executor::Suspend(JobId id) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kRunning, "Suspend requires a running job");
  CloseSegment(job, /*cancel_finish_event=*/true);
  job.state = JobState::kSuspended;
  job.num_suspends += 1;
  job.overhead_ms += CostsFor(job.model).suspend;
  job.checkpointed_minibatches = job.completed_minibatches;
}

void Executor::ApplyDelta(const ScheduleOp* ops, size_t count) {
  // A slice's suspends (PlanDiffer orders them first) bound how much of a
  // subsequent resume's warm-up can hide behind the outgoing jobs' drains.
  SimDuration overlap_allowance = 0;
  for (size_t i = 0; i < count; ++i) {
    // Each op's job record and segment are scattered by id; hint the next
    // op's lines while this one applies.
    if (i + 1 < count) {
      jobs_.Prefetch(ops[i + 1].job);
      PrefetchJobState(ops[i + 1].job);
    }
    const ScheduleOp& op = ops[i];
    if (op.resume) {
      ResumeWithOverlap(op.job, overlap_allowance);
    } else {
      Suspend(op.job);
      if (config_.overlap_warmup) {
        overlap_allowance =
            std::max(overlap_allowance, CostsFor(jobs_.Get(op.job).model).suspend);
      }
    }
  }
}

void Executor::InjectCrash(JobId id) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kRunning || job.state == JobState::kSuspended,
                  "InjectCrash requires a running or suspended job");
  if (job.state == JobState::kRunning) {
    // Close the segment normally (GPU time since the checkpoint was really
    // burned and stays charged), then roll progress back.
    CloseSegment(job, /*cancel_finish_event=*/true);
    job.state = JobState::kSuspended;
  }
  const double lost = job.completed_minibatches - job.checkpointed_minibatches;
  GFAIR_CHECK(lost >= -1e-9);
  job.completed_minibatches = job.checkpointed_minibatches;
  job.num_crashes += 1;
  GFAIR_DLOG << "crash: job " << id << " lost " << lost << " mini-batches";
}

void Executor::OnFinishEvent(JobId id) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK(job.state == JobState::kRunning);
  CloseSegment(job, /*cancel_finish_event=*/false);
  // Guard against floating-point shortfall: the event fires at ceil() time.
  job.completed_minibatches = job.total_minibatches;
  job.state = JobState::kFinished;
  job.finish_time = sim_.Now();
  job.server = ServerId::Invalid();
  GFAIR_DLOG << "job " << id << " finished at " << FormatDuration(sim_.Now());
  if (on_finished_) {
    on_finished_(id);
  }
}

void Executor::Migrate(JobId id, ServerId dest) {
  DoMigrate(id, dest, /*transfer_fraction=*/1.0);
}

void Executor::MigrateTail(JobId id, ServerId dest) {
  GFAIR_CHECK_MSG(config_.precopy, "MigrateTail without precopy enabled");
  DoMigrate(id, dest, config_.precopy_dirty_fraction);
}

void Executor::DoMigrate(JobId id, ServerId dest, double transfer_fraction) {
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kSuspended,
                  "Migrate requires a suspended job (suspend first)");
  GFAIR_CHECK(dest.valid() && dest != job.server);
  const cluster::Server& target = cluster_.server(dest);
  GFAIR_CHECK_MSG(target.up(), "Migrate to a down server");
  GFAIR_CHECK_MSG(job.gang_size <= target.num_gpus(), "gang cannot fit on destination");
  GFAIR_CHECK_MSG(zoo_.Get(job.model).FitsGeneration(target.generation()),
                  "model does not fit destination generation's GPU memory");
  GFAIR_CHECK(transfer_fraction >= 0.0 && transfer_fraction <= 1.0);

  job.state = JobState::kMigrating;
  // Concurrent checkpoint transfers share the migration network: stretch the
  // transfer by the contention factor for each migration already in flight.
  const double stretch =
      1.0 + config_.migrate_contention * static_cast<double>(migrations_in_flight_);
  const double wire_gb = CompressedGb(job.model) * transfer_fraction;
  const double compress_cpu_s = config_.compress_seconds_per_gb *
                                zoo_.Get(job.model).checkpoint_gb * transfer_fraction;
  const SimDuration fixed = SuspendLatency(job.model) + ResumeLatency(job.model);
  const SimDuration transfer = TransferTime(wire_gb, compress_cpu_s);
  const SimDuration latency =
      fixed + static_cast<SimDuration>(static_cast<double>(transfer) * stretch);
  job.overhead_ms += latency;
  job.num_migrations += 1;
  job.checkpointed_minibatches = job.completed_minibatches;
  migrations_in_flight_ += 1;
  acct_.AddTransfer(wire_gb);
  acct_.AddBubble(latency);
  sim_.After(latency, [this, id, dest]() { FinishMigration(id, dest); });
}

void Executor::StartPreCopy(JobId id, ServerId dest) {
  GFAIR_CHECK_MSG(config_.precopy, "StartPreCopy without precopy enabled");
  Job& job = jobs_.Get(id);
  GFAIR_CHECK_MSG(job.state == JobState::kRunning || job.state == JobState::kSuspended,
                  "StartPreCopy requires a resident job");
  GFAIR_CHECK(dest.valid() && dest != job.server);
  const cluster::Server& target = cluster_.server(dest);
  GFAIR_CHECK_MSG(target.up(), "StartPreCopy to a down server");
  GFAIR_CHECK_MSG(job.gang_size <= target.num_gpus(), "gang cannot fit on destination");
  GFAIR_CHECK_MSG(zoo_.Get(job.model).FitsGeneration(target.generation()),
                  "model does not fit destination generation's GPU memory");

  // The bulk ships the whole compressed checkpoint while the job keeps its
  // source state (running or suspended — it stays schedulable either way, so
  // none of this is bubble time and no overhead is charged to the job).
  const double stretch =
      1.0 + config_.migrate_contention * static_cast<double>(migrations_in_flight_);
  const double wire_gb = CompressedGb(job.model);
  const double compress_cpu_s =
      config_.compress_seconds_per_gb * zoo_.Get(job.model).checkpoint_gb;
  const SimDuration transfer = TransferTime(wire_gb, compress_cpu_s);
  const SimDuration bulk =
      static_cast<SimDuration>(static_cast<double>(transfer) * stretch);
  migrations_in_flight_ += 1;
  acct_.AddTransfer(wire_gb);
  acct_.CountPrecopyStarted();
  pending_precopies_.push_back(PendingPrecopy{id, job.server, dest});
  const ServerId source = job.server;
  sim_.After(bulk, [this, id, source, dest]() { PrecopyCutover(id, source, dest); });
}

void Executor::PrecopyCutover(JobId id, ServerId source, ServerId dest) {
  migrations_in_flight_ -= 1;
  GFAIR_CHECK(migrations_in_flight_ >= 0);
  for (size_t i = 0; i < pending_precopies_.size(); ++i) {
    const PendingPrecopy& p = pending_precopies_[i];
    if (p.job == id && p.source == source && p.dest == dest) {
      pending_precopies_[i] = pending_precopies_.back();
      pending_precopies_.pop_back();
      break;
    }
  }

  // The world may have moved on during the bulk transfer. A job that
  // finished, was orphaned, or otherwise left its source makes the shipped
  // checkpoint useless — the transfer is abandoned (wasted bytes, but no
  // failure: the job never stopped running anywhere).
  Job& job = jobs_.Get(id);
  const bool still_at_source =
      (job.state == JobState::kRunning || job.state == JobState::kSuspended) &&
      job.server == source;
  if (!still_at_source) {
    acct_.CountPrecopyAborted();
    GFAIR_DLOG << "pre-copy of job " << id << " abandoned (job left server "
               << source << ")";
    return;
  }
  if (!cluster_.server(dest).up()) {
    // The destination died mid-flight. Unlike a stop-and-copy landing
    // failure this is cheap — the job kept running at its source — but it
    // is still an attributed failure for E10/E14.
    acct_.CountFailureDestDown();
    job.num_migration_failures += 1;
    acct_.CountPrecopyAborted();
    GFAIR_DLOG << "pre-copy of job " << id << " to server " << dest
               << " failed: destination down";
    if (on_migration_failed_) {
      on_migration_failed_(id, dest);
    }
    return;
  }
  // Ask the scheduler to cut over: suspend/detach the job and start the
  // stop-and-copy tail (MigrateTail). It may decline — e.g. it dropped its
  // pre-copy claim when the job was orphaned and re-placed back onto the
  // same server — which abandons the transfer like any other stale bulk.
  const bool proceeded = on_precopy_cutover_ && on_precopy_cutover_(id, dest);
  if (!proceeded) {
    acct_.CountPrecopyAborted();
  }
}

void Executor::FinishMigration(JobId id, ServerId dest) {
  Job& moved = jobs_.Get(id);
  GFAIR_CHECK(moved.state == JobState::kMigrating);
  migrations_in_flight_ -= 1;
  GFAIR_CHECK(migrations_in_flight_ >= 0);

  // A transfer can fail at landing: the destination died while the
  // checkpoint was in flight, or the transfer itself flaked. The prob-zero
  // short-circuit also skips the RNG draw, keeping failure-free runs
  // bit-identical to the pre-fault-plane executor. Given prob > 0 the flake
  // draw stays unconditional — even when the destination is down — so the
  // fault stream does not depend on cluster state; a down destination takes
  // attribution priority over a simultaneous flake.
  const bool dest_down = !cluster_.server(dest).up();
  const bool flaked = config_.migrate_failure_prob > 0.0 &&
                      fault_rng_.Bernoulli(config_.migrate_failure_prob);
  if (!dest_down && !flaked) {
    moved.server = dest;
    moved.state = JobState::kSuspended;
    if (on_migrated_) {
      on_migrated_(id);
    }
    return;
  }

  moved.num_migration_failures += 1;
  if (dest_down) {
    acct_.CountFailureDestDown();
  } else {
    acct_.CountFailureFlake();
  }
  // The checkpoint is durable, so the job falls back to its source — unless
  // the source died too while the transfer was in flight, which orphans it.
  if (moved.server.valid() && cluster_.server(moved.server).up()) {
    moved.state = JobState::kSuspended;
    GFAIR_DLOG << "migration of job " << id << " to server " << dest
               << " failed; back on server " << moved.server;
    if (on_migration_failed_) {
      on_migration_failed_(id, dest);
    }
  } else {
    GFAIR_DLOG << "migration of job " << id << " to server " << dest
               << " failed with the source down too; orphaned";
    moved.state = JobState::kSuspended;  // OrphanJob's expected entry state
    OrphanJob(moved);
    if (on_orphaned_) {
      on_orphaned_(id);
    }
  }
}

void Executor::OrphanJob(Job& job) {
  const bool was_running = job.state == JobState::kRunning;
  if (was_running) {
    // Close the segment normally: the GPU time burned since the last
    // checkpoint was really consumed and stays charged.
    CloseSegment(job, /*cancel_finish_event=*/true);
    // The process died with the node — that is a crash, on top of the
    // orphaning.
    job.num_crashes += 1;
  }
  job.completed_minibatches = job.checkpointed_minibatches;
  job.state = JobState::kQueued;
  job.server = ServerId::Invalid();
  job.num_orphanings += 1;
  acct_.CountOrphaned();
}

void Executor::FailServer(ServerId id) {
  cluster::Server& server = cluster_.server(id);
  GFAIR_CHECK_MSG(server.up(), "FailServer on a server that is already down");
  cluster_.SetServerUp(id, false);
  acct_.CountServerFailure();
  GFAIR_DLOG << "server " << id << " failed at " << FormatDuration(sim_.Now());

  // Evacuate executor state for every resident job BEFORE any scheduler
  // callback runs: the callbacks then observe a consistent world (server
  // down, victims queued). Jobs mid-migration keep flying — their checkpoint
  // is already in durable storage (see FinishMigration for inbound ones).
  // Pending pre-copy bulks out of this server keep flying too: the cutover
  // re-validates that the job is still at its source, which an orphaned
  // victim no longer is, so the stale transfer is abandoned there.
  std::vector<JobId> victims;
  for (Job* job : jobs_.All()) {
    if (job->server == id && (job->state == JobState::kRunning ||
                              job->state == JobState::kSuspended)) {
      OrphanJob(*job);
      victims.push_back(job->id);
    }
  }
  GFAIR_CHECK_MSG(server.num_busy() == 0, "down server still holds GPUs");

  if (on_server_down_) {
    on_server_down_(id);
  }
  for (JobId victim : victims) {
    if (on_orphaned_) {
      on_orphaned_(victim);
    }
  }
}

void Executor::RecoverServer(ServerId id) {
  GFAIR_CHECK_MSG(!cluster_.server(id).up(), "RecoverServer on an up server");
  cluster_.SetServerUp(id, true);
  acct_.CountServerRecovery();
  GFAIR_DLOG << "server " << id << " recovered at " << FormatDuration(sim_.Now());
  if (on_server_up_) {
    on_server_up_(id);
  }
}

double Executor::ObservedGroupRate(workload::ModelId model, GpuGeneration gen, int gang,
                                   int64_t jobs) {
  GFAIR_CHECK(jobs > 0);
  const double stddev = config_.rate_noise / std::sqrt(static_cast<double>(jobs));
  const double noise = std::max(0.1, rng_.Normal(1.0, stddev));
  return zoo_.Get(model).GangThroughput(gen, gang) * noise;
}

int64_t Executor::AdvanceSegment(Job& job, RunSegment& seg, SimTime now) {
  const SimDuration elapsed = now - seg.start;
  // elapsed == 0 contributes exactly 0.0 to both accumulators, so skipping
  // the arithmetic is bit-identical — and it is the common case at quantum
  // edges, where SyncAll has just restarted every segment at `now`.
  if (elapsed <= 0) {
    return 0;
  }
  job.completed_minibatches = std::min(
      job.total_minibatches, job.completed_minibatches + SegmentProgress(seg, elapsed));
  const int64_t gpu_ms = elapsed * job.gang_size;
  job.gpu_ms_by_gen[cluster::GenerationIndex(seg.gen)] += static_cast<double>(gpu_ms);
  seg.warmup = std::max<SimDuration>(0, seg.warmup - elapsed);
  seg.start = now;
  return gpu_ms;
}

void Executor::SyncAll() {
  // No callback fires inside the walk, so running_list_ cannot change under
  // it: the per-(user, generation) sums go out after the walk.
  const SimTime now = sim_.Now();
  for (size_t i = 0; i < running_list_.size(); ++i) {
    if (i + 1 < running_list_.size()) {
      jobs_.Prefetch(running_list_[i + 1]);
      PrefetchJobState(running_list_[i + 1]);
    }
    Job& job = jobs_.Get(running_list_[i]);
    RunSegment& seg = segments_[job.id.value()];
    const int64_t gpu_ms = AdvanceSegment(job, seg, now);
    if (gpu_ms == 0) {
      continue;
    }
    const size_t user = job.user.value();
    if (user >= sync_gpu_ms_.size()) {
      sync_gpu_ms_.resize(user + 1, cluster::PerGeneration<int64_t>{});
    }
    int64_t& sum = sync_gpu_ms_[user][cluster::GenerationIndex(seg.gen)];
    if (sum == 0) {
      sync_touched_.push_back(static_cast<uint64_t>(user) << 8 |
                              cluster::GenerationIndex(seg.gen));
    }
    sum += gpu_ms;
  }
  std::sort(sync_touched_.begin(), sync_touched_.end());
  for (const uint64_t key : sync_touched_) {
    const size_t user = static_cast<size_t>(key >> 8);
    const size_t gen = static_cast<size_t>(key & 0xFF);
    int64_t& sum = sync_gpu_ms_[user][gen];
    if (on_gpu_time_) {
      on_gpu_time_(UserId(static_cast<uint32_t>(user)), cluster::kAllGenerations[gen], now,
                   sum);
    }
    sum = 0;
  }
  sync_touched_.clear();
}

void Executor::SyncProgress(JobId id) {
  if (!IsRunning(id)) {
    return;
  }
  Job& job = jobs_.Get(id);
  RunSegment& seg = segments_[id.value()];
  const SimTime now = sim_.Now();
  const int64_t gpu_ms = AdvanceSegment(job, seg, now);
  if (gpu_ms > 0 && on_gpu_time_) {
    on_gpu_time_(job.user, seg.gen, now, gpu_ms);
  }
}

}  // namespace gfair::exec
