// The benchmark's workloads and the single run loop that drives them
// through analysis::Experiment with the scheduler's default
// GandivaFairConfig.
//
// One run = generate inputs from the seed, build the experiment, deliver
// the arrival burst in tenths, warm up, then time `timed_quanta` quanta one
// Experiment::Run call each, then compute the report, then time
// `submit_probes` more bursts into fresh experiments. Runs of one seed are
// bit-identical in every simulated output, traced or not.
#ifndef GFAIR_PERFBENCH_WORKLOADS_H_
#define GFAIR_PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "helpers.h"
#include "sched/decision_log.h"

namespace gfair::perfbench {

enum class WorkloadKind : uint8_t { kPaper200, kFlip2k, kSteady10k };

struct WorkloadDef {
  const char* name;
  WorkloadKind kind;
  SimDuration warmup;  // simulated time after the burst, before timing
  int timed_quanta;    // quanta timed per run
  // Extra bursts per run, each into a fresh experiment built from the same
  // inputs, so that a burst of well under a millisecond is timed often
  // enough for a steady median.
  int submit_probes;
};

const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(const std::string& name);

// Simulated outputs: equal across every run of one seed, traced or not.
struct SimOutputs {
  double jain = 0.0;                   // over achieved/ideal GPU time per user
  double useful_k80h_per_gpu_h = 0.0;  // useful K80-GPU-h per cluster GPU-h
  std::array<int64_t, sched::kNumDecisionTypes> decisions{};
  uint64_t events = 0;
  int64_t jobs_submitted = 0;
  int64_t jobs_finished = 0;
  int64_t trades = 0;
  double migration_gb = 0.0;

  bool operator==(const SimOutputs&) const = default;
  std::string Describe() const;
};

// Work counted over the timed window (the per-layer counts).
struct WindowCounts {
  int64_t ticks = 0;
  int64_t planned_servers = 0;
  int64_t skipped_servers = 0;
  int64_t resumes = 0;
  int64_t suspends = 0;
  int64_t trades = 0;
  int64_t trade_epochs = 0;
  // Indexed by sched::MigrationCause.
  std::array<int64_t, 5> migrations{};
  double migration_gb = 0.0;
  uint64_t events = 0;
  double sim_hours = 0.0;
};

struct RunResult {
  double setup_s = 0.0;   // inputs + build + burst + warm-up
  double burst_s = 0.0;   // the arrival burst's Run calls
  // Median over the run's burst and its submit probes of jobs / burst time.
  double submit_jobs_per_s = 0.0;
  std::vector<double> tick_us;  // one Experiment::Run per timed quantum
  double timed_s = 0.0;         // sum of the timed Run spans
  // The process's peak resident set at the end of the report, before the
  // submit probes: for the first run of a process, the memory one run needs.
  double peak_rss_mb = 0.0;
  WindowCounts counts;
  SimOutputs sim;
  // Ops = submitted jobs + timed quanta. A job fails if it is lost; a
  // quantum fails if a sampled invariant sweep after it reports a
  // violation or the workload's per-tick shape does not hold.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
};

// Runs the workload once on inputs generated from `seed`; `tracer` null
// means untraced.
RunResult RunWorkload(const WorkloadDef& def, uint64_t seed, Tracer* tracer);

// paper200's closed-loop user set: the E9 users, tickets and model mixes.
struct PaperUser {
  const char* name;
  double tickets;
  std::vector<const char*> models;
};
const std::vector<PaperUser>& PaperUsers();
// GPUs each paper200 user keeps outstanding: 1.5x the 25-GPU equal share.
inline constexpr int kPaperTargetGpus = 38;
ClosedLoopGenerator MakePaperGenerator(uint64_t seed);

}  // namespace gfair::perfbench

#endif  // GFAIR_PERFBENCH_WORKLOADS_H_
