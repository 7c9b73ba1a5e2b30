// ProfileStore — online throughput profiles across GPU generations.
//
// The scheduler transparently times mini-batches of running jobs (noisy
// samples from the executor) and accumulates per-(model, generation) rate
// estimates. Speedup ratios derived from these estimates drive the trading
// engine. Every running job contributes one sample per quantum; a
// ProfileTally groups a quantum's jobs by (model, generation, gang) so each
// group costs one executor draw and one store update.
//
// Substitution note (see DESIGN.md): the paper profiles each *job*; jobs in
// production recur (same model/script resubmitted), so we key profiles by
// model. Samples are normalized to per-GPU rates (observed gang rate divided
// by gang size) so multi-GPU samples mix with 1-GPU samples; the residual
// scaling-efficiency bias cancels in cross-generation ratios when a model's
// gang mix is similar across pools, and shows up as part of the profiler
// error measured in experiment E7.
#ifndef GFAIR_SCHED_PROFILER_H_
#define GFAIR_SCHED_PROFILER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/gpu.h"
#include "common/types.h"
#include "exec/executor.h"
#include "workload/model_zoo.h"

namespace gfair::sched {

class ProfileStore {
 public:
  // An estimate is usable once it has at least `min_samples` samples.
  explicit ProfileStore(size_t min_samples = 3) : min_samples_(min_samples) {}

  // Records `count` observed per-GPU rates (mini-batches/s) of `model` on
  // `gen` whose mean is `mean`: the count grows by `count` and the estimate
  // moves as if each had been added alone.
  void AddSamples(workload::ModelId model, cluster::GpuGeneration gen, PerGpuRate mean,
                  size_t count);

  bool HasEstimate(workload::ModelId model, cluster::GpuGeneration gen) const;
  // Mean per-GPU rate. Precondition: HasEstimate().
  PerGpuRate EstimatedRate(workload::ModelId model, cluster::GpuGeneration gen) const;
  size_t SampleCount(workload::ModelId model, cluster::GpuGeneration gen) const;

  // Speedup of `model` on `fast` relative to `slow`. Returns false when
  // either side lacks an estimate. (The type is qualified because the member
  // function name shadows gfair::Speedup inside the class scope.)
  bool Speedup(workload::ModelId model, cluster::GpuGeneration fast,
               cluster::GpuGeneration slow, gfair::Speedup* out) const;

  size_t min_samples() const { return min_samples_; }

 private:
  // Sample count and running mean: all a speedup needs. A spread or
  // extremes would be wrong anyway once samples arrive as group means.
  struct Cell {
    size_t count = 0;
    double mean = 0.0;
  };

  const Cell* Find(workload::ModelId model, cluster::GpuGeneration gen) const;

  size_t min_samples_;
  // Indexed by model id (model ids are dense, assigned by ModelZoo). A
  // default-constructed Cell (zero samples) is indistinguishable from an
  // absent profile, so no separate presence flag is needed.
  std::vector<cluster::PerGeneration<Cell>> profiles_;
};

// One quantum's profiler observations, grouped. The charge walk Counts each
// running job into its (model, generation, gang) group — an integer
// increment, no RNG — and Flush then turns each group of k jobs into one
// Executor::ObservedGroupRate draw, added to the store as k samples. Groups
// flush in ascending (model, generation, gang) order and every count is
// reset, so the order of draws depends only on which jobs ran this quantum.
class ProfileTally {
 public:
  void Count(workload::ModelId model, cluster::GpuGeneration gen, int gang);
  void Flush(exec::Executor& exec, ProfileStore& store);

 private:
  // counts_[model * kNumGenerations + generation][gang]. Flush walks it in
  // index order, which is the (model, generation, gang) order; its size is
  // bounded by the zoo and the largest gang, not by the job count.
  std::vector<std::vector<int64_t>> counts_;
};

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_PROFILER_H_
