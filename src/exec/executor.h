// Executor — simulated DLT job runtime.
//
// Stands in for the Gandiva-style per-server runtime the paper relies on:
// suspend/resume of framework processes and checkpoint-based migration
// between servers. The scheduler calls the five verbs below; the executor
// charges simulated time, tracks job progress at the model's per-generation
// throughput, fires completion callbacks, and accounts GPU time to users.
//
// Cost model (documented in DESIGN.md):
//  * Resume: the first `resume_latency(model)` of a run segment produces no
//    progress (process restore + GPU warm-up) but occupies the gang — so each
//    suspend/resume cycle costs real GPU time, which is why the scheduling
//    quantum must be much larger than the latency.
//  * Suspend: the checkpoint happens asynchronously to the releasing GPUs
//    (device state is small relative to host state); modeled as instantaneous
//    release plus `suspend_latency(model)` charged to the job's overhead.
//  * Migration: suspend + checkpoint transfer at `migrate_bw_gbps` + resume,
//    during which the job is unavailable for scheduling. A transfer can fail
//    at landing (flaky network, destination died mid-flight); the job then
//    falls back, suspended, to its source server — retry policy is the
//    scheduler's business, not the executor's.
//
// Failure model (documented in DESIGN.md): FailServer models whole-node
// loss. Checkpoints live in durable (remote) storage, so a dead server costs
// each resident job only the progress since its last checkpoint; the jobs
// become orphans (kQueued, no server) and the scheduler is told through the
// orphan/server-down callbacks so it can re-place them.
#ifndef GFAIR_EXEC_EXECUTOR_H_
#define GFAIR_EXEC_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "exec/schedule_op.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "simkit/simulator.h"
#include "workload/job.h"
#include "workload/model_zoo.h"

namespace gfair::exec {

struct ExecutorConfig {
  // Suspend/resume latency = base + checkpoint_gb * per_gb (seconds).
  double suspend_base_s = 0.5;
  double suspend_per_gb_s = 0.2;
  double resume_base_s = 1.0;
  double resume_per_gb_s = 0.3;
  // Checkpoint network transfer bandwidth for migration.
  double migrate_bw_gbps = 1.0;
  // Migration network contention: a transfer starting while K others are in
  // flight takes (1 + K * migrate_contention) times as long — a snapshot
  // approximation of bandwidth sharing (exact processor sharing would
  // require re-timing in-flight transfers). 0 disables.
  double migrate_contention = 0.5;
  // Multiplicative noise (stddev, fraction of true rate) on one observed
  // throughput sample — what the online profiler has to cope with.
  double rate_noise = 0.05;
  // Probability that a checkpoint transfer fails at landing (the job bounces
  // back to its source server, suspended). Drawn from a dedicated fault RNG
  // so enabling failures does not perturb the profiler noise stream. 0
  // disables — and skips the draw entirely, keeping failure-free runs
  // bit-identical to builds without the fault plane.
  double migrate_failure_prob = 0.0;
  // --- checkpoint compression (see DESIGN.md, "Migration cost model") ---
  // Checkpoints are compressed before hitting the migration network: the
  // transfer moves checkpoint_gb / compress_ratio GB, and compressing costs
  // compress_seconds_per_gb * checkpoint_gb of CPU time added to the
  // transfer phase (the trade: CPU seconds for network bytes). The defaults
  // model compression off and keep migration timing bit-identical to the
  // pre-compression executor.
  double compress_ratio = 1.0;
  double compress_seconds_per_gb = 0.0;
  // --- pre-copy migration (live-migration style) ---
  // When true, a migration of a resident job ships the bulk of the
  // checkpoint while the job keeps executing at its source; only the
  // stop-and-copy tail — suspend, re-send of the pages dirtied during the
  // bulk transfer, resume — makes the job unavailable. The scheduler drives
  // this through StartPreCopy + the cutover callback; plain Migrate remains
  // the full stop-and-copy path (and the only path for orphan re-placement,
  // where there is no live source to pre-copy from).
  bool precopy = false;
  // Fraction of the (compressed) checkpoint re-sent in the stop-and-copy
  // tail: the write working set dirtied while the bulk transfer ran.
  double precopy_dirty_fraction = 0.1;
  // --- warm-up overlap (Tally-style GPU sharing at quantum edges) ---
  // When true, a job resumed by an ApplyDelta slice warms up while the jobs
  // suspended earlier in the same slice drain their last mini-batch: its
  // no-progress warm-up prefix shrinks by up to the largest suspend latency
  // among those departures, hiding the quantum-boundary bubble. Off keeps
  // resume timing bit-identical to the non-overlapped executor.
  bool overlap_warmup = false;

  // Every out-of-range field, one message each; empty when the config is
  // usable. The Executor constructor CHECKs that this is empty.
  std::vector<std::string> Validate() const;
};

// Global migration / fault accounting: lifetime counters plus the
// byte/bubble accumulators the E10/E14 benches report. Only the Executor
// mutates them (event handlers, migration landings and the apply path);
// reads are unrestricted.
class MigrationAccounting {
 public:
  // --- mutators ---
  void AddTransfer(double wire_gb) { bytes_gb_ += wire_gb; }
  void AddBubble(SimDuration latency) { bubble_ms_ += latency; }
  void AddWarmupBubble(SimDuration warmup) { warmup_bubble_ms_ += warmup; }
  void AddOverlapSaved(SimDuration hidden) { overlap_saved_ms_ += hidden; }
  void CountServerFailure() { server_failures_ += 1; }
  void CountServerRecovery() { server_recoveries_ += 1; }
  void CountFailureDestDown() { failures_dest_down_ += 1; }
  void CountFailureFlake() { failures_flake_ += 1; }
  void CountOrphaned() { jobs_orphaned_ += 1; }
  void CountPrecopyStarted() { precopies_started_ += 1; }
  void CountPrecopyAborted() { precopies_aborted_ += 1; }

  // --- getters ---
  double bytes_gb() const { return bytes_gb_; }
  SimDuration bubble_ms() const { return bubble_ms_; }
  SimDuration warmup_bubble_ms() const { return warmup_bubble_ms_; }
  SimDuration overlap_saved_ms() const { return overlap_saved_ms_; }
  int64_t server_failures() const { return server_failures_; }
  int64_t server_recoveries() const { return server_recoveries_; }
  int64_t failures_dest_down() const { return failures_dest_down_; }
  int64_t failures_flake() const { return failures_flake_; }
  int64_t jobs_orphaned() const { return jobs_orphaned_; }
  int64_t precopies_started() const { return precopies_started_; }
  int64_t precopies_aborted() const { return precopies_aborted_; }

 private:
  int64_t server_failures_ = 0;
  int64_t server_recoveries_ = 0;
  int64_t failures_dest_down_ = 0;
  int64_t failures_flake_ = 0;
  int64_t jobs_orphaned_ = 0;
  int64_t precopies_started_ = 0;
  int64_t precopies_aborted_ = 0;
  double bytes_gb_ = 0.0;
  SimDuration bubble_ms_ = 0;
  SimDuration warmup_bubble_ms_ = 0;
  SimDuration overlap_saved_ms_ = 0;
};

class Executor {
 public:
  // Fired when a running job completes its work. The job's GPUs are already
  // released when this runs.
  using JobFinishedCallback = std::function<void(JobId)>;
  // Fired when a migration lands; the job is suspended on its new server.
  using MigrationDoneCallback = std::function<void(JobId)>;
  // Fired when a checkpoint transfer fails; the job is back, suspended, on
  // its source server. `dest` is the destination that was not reached.
  using MigrationFailedCallback = std::function<void(JobId, ServerId dest)>;
  // Fired when a job loses its server (node failure): progress is rolled
  // back to the last checkpoint and the job is kQueued with no server.
  using JobOrphanedCallback = std::function<void(JobId)>;
  // Server availability transitions (FailServer/RecoverServer).
  using ServerEventCallback = std::function<void(ServerId)>;
  // GPU-time accounting hook: `user` consumed `gpu_ms` GPU-milliseconds of
  // `gen` ending at `end`. CloseSegment and SyncProgress fire it once per
  // job; SyncAll fires it once per (user, generation) with the quantum's sum.
  using AccountingCallback = std::function<void(
      UserId user, cluster::GpuGeneration gen, SimTime end, int64_t gpu_ms)>;
  // Fired when a pre-copy bulk transfer completes and the job is still a
  // valid candidate on the executor side (alive, still at its source). The
  // scheduler returns true to proceed — it must suspend/detach the job and
  // call MigrateTail(job, dest) — or false to abort the migration (e.g. it
  // already dropped its own pre-copy claim on the job).
  using PrecopyCutoverCallback = std::function<bool(JobId, ServerId dest)>;

  Executor(simkit::Simulator& sim, cluster::Cluster& cluster,
           const workload::ModelZoo& zoo, workload::JobTable& jobs,
           ExecutorConfig config, uint64_t seed);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  void set_on_job_finished(JobFinishedCallback cb) { on_finished_ = std::move(cb); }
  void set_on_migration_done(MigrationDoneCallback cb) { on_migrated_ = std::move(cb); }
  void set_on_migration_failed(MigrationFailedCallback cb) {
    on_migration_failed_ = std::move(cb);
  }
  void set_on_job_orphaned(JobOrphanedCallback cb) { on_orphaned_ = std::move(cb); }
  void set_on_server_down(ServerEventCallback cb) { on_server_down_ = std::move(cb); }
  void set_on_server_up(ServerEventCallback cb) { on_server_up_ = std::move(cb); }
  void set_on_gpu_time(AccountingCallback cb) { on_gpu_time_ = std::move(cb); }
  void set_on_precopy_cutover(PrecopyCutoverCallback cb) {
    on_precopy_cutover_ = std::move(cb);
  }

  // queued -> suspended: the job becomes resident on `server` (no cost; the
  // container/image is assumed pre-staged, as in the paper's clusters).
  void MakeResident(JobId id, ServerId server);

  // suspended -> queued: detach a never-started or suspended job from its
  // server without migration cost is NOT allowed once it has progress; use
  // Migrate. Eviction is only for jobs with zero progress (placement undo).
  void EvictResident(JobId id);

  // suspended -> running: allocates the gang and starts progress after the
  // resume latency. Precondition: the server has gang_size free GPUs.
  void Resume(JobId id);

  // running -> suspended: stops progress, releases the gang immediately and
  // charges suspend latency to the job's overhead account.
  void Suspend(JobId id);

  // Applies a batched schedule change: each op is a Suspend (resume=false)
  // or Resume (resume=true), executed strictly in list order — the producer
  // (sched::PlanDiffer) orders suspends before the resumes that need their
  // GPUs. Batched calls at quantum edges (the scheduler applies one slice
  // per diffed server) replace the per-job call storm.
  void ApplyDelta(const ScheduleOp* ops, size_t count);
  void ApplyDelta(const std::vector<ScheduleOp>& ops) {
    ApplyDelta(ops.data(), ops.size());
  }

  // suspended -> migrating -> suspended on `dest` after the migration
  // latency. The migration-done callback then fires.
  void Migrate(JobId id, ServerId dest);

  // Starts a pre-copy migration: the (compressed) checkpoint bulk-transfers
  // while the job keeps running (or sits suspended) at its source; the job
  // stays schedulable there throughout. When the bulk lands, the cutover
  // callback asks the scheduler to suspend/detach the job and call
  // MigrateTail — or the transfer is abandoned if the job finished, moved,
  // was orphaned, or the destination died mid-flight (a cheap failure: the
  // job never stopped running). Precondition: job running or suspended on an
  // up server, destination up and fitting, config().precopy enabled.
  void StartPreCopy(JobId id, ServerId dest);

  // The stop-and-copy tail of a pre-copy migration: like Migrate but the
  // transfer re-sends only precopy_dirty_fraction of the compressed
  // checkpoint. Call from the cutover callback after suspending the job.
  void MigrateTail(JobId id, ServerId dest);

  // Failure injection: the job's process dies (OOM, spot preemption, node
  // fault). Progress rolls back to the last checkpoint — checkpoints are
  // taken on every suspend/migration, so the exposure is the current run
  // segment. A running job releases its GPUs (the GPU time burned since the
  // checkpoint is still charged — that's the cost of the crash) and becomes
  // suspended on its server, ready to restart from the checkpoint. No-op
  // state change for already-suspended jobs. Precondition: not finished, not
  // migrating.
  void InjectCrash(JobId id);

  // Whole-node failure: marks the server down (placement must stop targeting
  // it), then evacuates every resident job — running segments are closed
  // (their burned GPU time stays charged), progress rolls back to the last
  // checkpoint, and the victims become orphans (kQueued, no server). Fires
  // the server-down callback first, then one orphan callback per victim, so
  // a scheduler re-places orphans against a world that already excludes the
  // dead server. Jobs mid-migration are NOT orphaned here: the checkpoint is
  // already in durable storage, so an outbound transfer still lands at its
  // destination, and an inbound transfer fails at landing (see Migrate).
  // Precondition: the server is up.
  void FailServer(ServerId id);

  // Brings a failed server back, empty; fires the server-up callback.
  // Precondition: the server is down.
  void RecoverServer(ServerId id);

  bool IsRunning(JobId id) const {
    return id.value() < segments_.size() && segments_[id.value()].active;
  }

  // Cache hint for an upcoming IsRunning on `id` in a walk over scattered
  // job ids. No effect on behavior.
  void PrefetchJobState(JobId id) const {
    if (id.value() < segments_.size()) {
      __builtin_prefetch(&segments_[id.value()]);
    }
  }

  // Ground-truth gang throughput (mini-batches/s) of the job on `gen`.
  double TrueRate(JobId id, cluster::GpuGeneration gen) const;

  // What the profiler sees of `jobs` running gangs of `gang` GPUs of `model`
  // on `gen` over one quantum: the mean of their observed throughputs
  // (mini-batches/s per gang). One observation is the true gang rate times
  // max(0.1, N(1, rate_noise)) mini-batch timing jitter; the mean of `jobs`
  // iid N(1, rate_noise) factors is N(1, rate_noise / sqrt(jobs)), so one
  // draw from the profiler stream stands for the whole group. Only the 0.1
  // floor moves, from each observation to the group mean; at
  // rate_noise <= 0.2 it lies >= 4.5 stddevs below 1 either way.
  double ObservedGroupRate(workload::ModelId model, cluster::GpuGeneration gen, int gang,
                           int64_t jobs);

  // Folds elapsed progress of a running job into completed_minibatches (e.g.
  // before reading job stats mid-segment). No-op for non-running jobs.
  // Also flushes the pending GPU time to the accounting callback.
  void SyncProgress(JobId id);

  // SyncProgress for every running job. Call before reading jobs/ledgers
  // mid-run — open run segments are otherwise invisible to accounting. The
  // GPU time goes out as one callback per (user, generation) at Now(), in
  // (user, generation) order: each term is an integer number of GPU-ms, so
  // the sum is exact and the ledger's series are bit-identical to one
  // callback per job.
  void SyncAll();

  // Per-model operation latencies (exposed for benches/tests).
  // MigrateLatency is the uncontended figure; the actual charge grows with
  // the number of migrations already in flight (see migrate_contention).
  SimDuration SuspendLatency(workload::ModelId model) const;
  SimDuration ResumeLatency(workload::ModelId model) const;
  SimDuration MigrateLatency(workload::ModelId model) const;

  int migrations_in_flight() const { return migrations_in_flight_; }

  // Lifetime fault counters (benches and tests).
  int64_t server_failures() const { return acct_.server_failures(); }
  int64_t server_recoveries() const { return acct_.server_recoveries(); }
  // Failed landings, split by cause: the destination died while the
  // checkpoint was in flight vs the transfer itself flaked. The total is
  // their sum (kept as a getter so E10/E14 attribution can't drift).
  int64_t migration_failures() const {
    return acct_.failures_dest_down() + acct_.failures_flake();
  }
  int64_t migration_failures_dest_down() const { return acct_.failures_dest_down(); }
  int64_t migration_failures_flake() const { return acct_.failures_flake(); }
  int64_t jobs_orphaned() const { return acct_.jobs_orphaned(); }

  // Pre-copy lifecycle counters.
  int64_t precopies_started() const { return acct_.precopies_started(); }
  int64_t precopies_aborted() const { return acct_.precopies_aborted(); }

  // Migration byte/bubble accounting (benches report these, not just
  // counts). Bytes are post-compression GB put on the migration network
  // (bulk + tail for pre-copies). Bubble is the time jobs were unavailable
  // to the scheduler due to migration (the full latency for stop-and-copy,
  // only the tail for pre-copies). Warm-up bubble is the total no-progress
  // warm-up prefix charged at resumes; overlap_saved is the portion of it
  // hidden by overlap_warmup.
  double migration_bytes_gb() const { return acct_.bytes_gb(); }
  SimDuration migration_bubble_ms() const { return acct_.bubble_ms(); }
  SimDuration warmup_bubble_ms() const { return acct_.warmup_bubble_ms(); }
  SimDuration overlap_saved_ms() const { return acct_.overlap_saved_ms(); }

  // The full accounting block (see MigrationAccounting above).
  const MigrationAccounting& accounting() const { return acct_; }

  const ExecutorConfig& config() const { return config_; }

 private:
  // State of one running gang. Slots live in a dense vector indexed by job
  // id — IsRunning and segment lookup are on the scheduler's per-quantum hot
  // path for every resident job, where a hash probe per call dominates.
  struct RunSegment {
    SimTime start;       // segment start (resume instant)
    SimDuration warmup;  // no-progress prefix (resume latency)
    double rate;         // mini-batches/s once warmed up
    cluster::GpuGeneration gen;
    bool active = false;      // this job currently holds GPUs
    uint32_t running_pos = 0;  // index into running_list_ while active
  };

  RunSegment& SegmentOf(JobId id);

  // Progress accumulated in a segment after `elapsed` of wall time.
  static double SegmentProgress(const RunSegment& seg, SimDuration elapsed);

  // Folds the segment's progress and GPU time up to `now` into the job and
  // restarts the segment at `now`, carrying any unfinished warm-up. Returns
  // the GPU-ms charged (0 when no time has elapsed); the caller reports it.
  int64_t AdvanceSegment(workload::Job& job, RunSegment& seg, SimTime now);

  // Ends a run segment: sync progress, charge GPU time, release GPUs.
  void CloseSegment(workload::Job& job, bool cancel_finish_event);

  void OnFinishEvent(JobId id);

  // Per-model costs, resolved once per model instead of recomputing the
  // latency formula (and its Seconds() rounding) on every suspend/resume.
  struct ModelCosts {
    SimDuration suspend = 0;
    SimDuration resume = 0;
    bool init = false;
  };
  const ModelCosts& CostsFor(workload::ModelId model);

  // The job's finish timer slot (created at first resume; see
  // EventQueue timers — arming/disarming replaces the push/cancel pair).
  simkit::TimerId FinishTimerFor(JobId id);

  // Shared resume body: `overlap_allowance` is the largest suspend latency
  // earlier in the same apply slice (0 outside overlap mode).
  void ResumeWithOverlap(JobId id, SimDuration overlap_allowance);

  // Shared Migrate/MigrateTail body; `dirty_fraction` scales the transfer.
  void DoMigrate(JobId id, ServerId dest, double transfer_fraction);

  // A checkpoint transfer reached its scheduled landing time: success, or
  // fall back to the source, or orphan when both ends are gone.
  void FinishMigration(JobId id, ServerId dest);

  // A pre-copy bulk transfer reached its landing time: validate, ask the
  // scheduler to cut over, or abandon the transfer.
  void PrecopyCutover(JobId id, ServerId source, ServerId dest);

  // Post-compression GB on the wire for a full checkpoint of `model`.
  double CompressedGb(workload::ModelId model) const;
  // Transfer seconds (compression CPU + wire time) for `gb` compressed GB,
  // stretched by current contention.
  SimDuration TransferTime(double compressed_gb, double compress_cpu_s) const;

  // Shared orphan mechanics for FailServer and FinishMigration: close the
  // segment if running, roll back to the checkpoint, queue the job. Does NOT
  // fire the orphan callback — callers sequence that themselves.
  void OrphanJob(workload::Job& job);

  simkit::Simulator& sim_;
  cluster::Cluster& cluster_;
  const workload::ModelZoo& zoo_;
  workload::JobTable& jobs_;
  ExecutorConfig config_;
  // Profiler stream: ObservedGroupRate is its only reader.
  Rng rng_;
  // Separate stream for transfer-failure draws: seeded independently of
  // rng_ so enabling migrate_failure_prob leaves profiler noise unchanged.
  Rng fault_rng_;

  std::vector<RunSegment> segments_;  // indexed by job id; see RunSegment
  std::vector<JobId> running_list_;   // ids of active segments (swap-erase)
  // SyncAll's per-quantum GPU-ms sums, indexed by user id, and the
  // (user, generation) keys it touched, packed user << 8 | generation; both
  // are cleared again before SyncAll returns.
  std::vector<cluster::PerGeneration<int64_t>> sync_gpu_ms_;
  std::vector<uint64_t> sync_touched_;
  std::vector<ModelCosts> model_costs_;       // indexed by model id
  std::vector<simkit::TimerId> finish_timer_;  // indexed by job id
  int migrations_in_flight_ = 0;

  // An in-flight pre-copy bulk transfer. The record is validated at cutover
  // (the job may have finished, moved, or been orphaned mid-flight), so no
  // eager invalidation is needed anywhere.
  struct PendingPrecopy {
    JobId job;
    ServerId source;
    ServerId dest;
  };
  std::vector<PendingPrecopy> pending_precopies_;

  MigrationAccounting acct_;

  JobFinishedCallback on_finished_;
  MigrationDoneCallback on_migrated_;
  MigrationFailedCallback on_migration_failed_;
  JobOrphanedCallback on_orphaned_;
  ServerEventCallback on_server_down_;
  ServerEventCallback on_server_up_;
  AccountingCallback on_gpu_time_;
  PrecopyCutoverCallback on_precopy_cutover_;
};

}  // namespace gfair::exec

#endif  // GFAIR_EXEC_EXECUTOR_H_
