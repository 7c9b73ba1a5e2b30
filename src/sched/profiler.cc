#include "sched/profiler.h"

#include "common/check.h"

namespace gfair::sched {

using cluster::GenerationIndex;
using cluster::GpuGeneration;
using workload::ModelId;

void ProfileStore::AddSamples(ModelId model, GpuGeneration gen, PerGpuRate mean,
                              size_t count) {
  GFAIR_CHECK(model.valid());
  GFAIR_CHECK(count > 0);
  GFAIR_CHECK(mean.raw() > 0.0);  // gfair-lint: allow(unit-unwrap-outside-boundary)
  if (model.value() >= profiles_.size()) {
    profiles_.resize(model.value() + 1);
  }
  // The cell accumulates dimensionless doubles; this is the stats boundary
  // for rate samples. Welford's mean update with weight count/total.
  Cell& cell = profiles_[model.value()][GenerationIndex(gen)];
  cell.count += count;
  cell.mean += (mean.raw() - cell.mean) * static_cast<double>(count) /  // gfair-lint: allow(unit-unwrap-outside-boundary)
               static_cast<double>(cell.count);
}

const ProfileStore::Cell* ProfileStore::Find(ModelId model, GpuGeneration gen) const {
  if (!model.valid() || model.value() >= profiles_.size()) {
    return nullptr;
  }
  return &profiles_[model.value()][GenerationIndex(gen)];
}

bool ProfileStore::HasEstimate(ModelId model, GpuGeneration gen) const {
  const Cell* cell = Find(model, gen);
  return cell != nullptr && cell->count >= min_samples_;
}

PerGpuRate ProfileStore::EstimatedRate(ModelId model, GpuGeneration gen) const {
  GFAIR_CHECK_MSG(HasEstimate(model, gen), "no usable estimate");
  return PerGpuRate(Find(model, gen)->mean);
}

size_t ProfileStore::SampleCount(ModelId model, GpuGeneration gen) const {
  const Cell* cell = Find(model, gen);
  return cell != nullptr ? cell->count : 0;
}

bool ProfileStore::Speedup(ModelId model, GpuGeneration fast, GpuGeneration slow,
                           gfair::Speedup* out) const {
  GFAIR_CHECK(out != nullptr);
  if (!HasEstimate(model, fast) || !HasEstimate(model, slow)) {
    return false;
  }
  const PerGpuRate slow_rate = EstimatedRate(model, slow);
  GFAIR_CHECK(slow_rate.raw() > 0.0);  // gfair-lint: allow(unit-unwrap-outside-boundary)
  *out = gfair::Speedup::FromRates(EstimatedRate(model, fast), slow_rate);
  return true;
}

void ProfileTally::Count(ModelId model, GpuGeneration gen, int gang) {
  const size_t cell = model.value() * cluster::kNumGenerations + GenerationIndex(gen);
  if (cell >= counts_.size()) {
    counts_.resize(cell + 1);
  }
  std::vector<int64_t>& by_gang = counts_[cell];
  const auto slot = static_cast<size_t>(gang);
  if (slot >= by_gang.size()) {
    by_gang.resize(slot + 1, 0);
  }
  ++by_gang[slot];
}

void ProfileTally::Flush(exec::Executor& exec, ProfileStore& store) {
  for (size_t cell = 0; cell < counts_.size(); ++cell) {
    const ModelId model(static_cast<uint32_t>(cell / cluster::kNumGenerations));
    const GpuGeneration gen = cluster::kAllGenerations[cell % cluster::kNumGenerations];
    std::vector<int64_t>& by_gang = counts_[cell];
    for (size_t slot = 0; slot < by_gang.size(); ++slot) {
      const int64_t jobs = by_gang[slot];
      if (jobs == 0) {
        continue;
      }
      const auto gang = static_cast<int>(slot);
      const double group_rate = exec.ObservedGroupRate(model, gen, gang, jobs);
      store.AddSamples(model, gen, PerGpuRate::FromGangRate(group_rate, gang),
                       static_cast<size_t>(jobs));
      by_gang[slot] = 0;
    }
  }
}

}  // namespace gfair::sched
