// E7 — Online profiler accuracy (profiling table).
// Runs the full zoo on the heterogeneous paper-scale cluster for 12 hours
// with trading+probing enabled, then compares the profiler's learned V100/K80
// speedup per model against the zoo's ground truth.
//
// Exits non-zero when the main run covers fewer than 11 of the 12 models or
// its worst V100/K80 error exceeds 12%: the run is deterministic, so the gate
// measures the profiler, not the machine.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "analysis/harness.h"
#include "common/table.h"
#include "workload/trace_gen.h"

using namespace gfair;

namespace {

constexpr int kMinCovered = 11;
constexpr double kMaxWorstErrorPct = 12.0;

}  // namespace

int main() {
  analysis::ExperimentConfig config;
  config.topology = cluster::PaperScaleTopology();
  config.seed = 23;
  analysis::Experiment exp(config);

  // Four users, uniform model mixes, enough load to exercise every pool.
  std::vector<workload::UserWorkloadSpec> specs(4);
  std::vector<UserId> ids;
  for (size_t u = 0; u < specs.size(); ++u) {
    specs[u].name = "user" + std::to_string(u);
    specs[u].mean_interarrival = Minutes(3);
    specs[u].mean_duration_k80 = Hours(6);
    specs[u].stop = Hours(12);
    ids.push_back(exp.users().Create(specs[u].name).id);
  }
  sched::GandivaFairConfig sched_config;
  sched_config.max_probes_per_epoch = 4;
  exp.UseGandivaFair(sched_config);

  workload::TraceGenerator gen(exp.zoo(), config.seed);
  exp.LoadTrace(gen.Generate(specs, ids));
  exp.Run(Hours(12));

  const auto& profiles = exp.gandiva()->profiles();
  Table table({"model", "true V100/K80", "profiled", "error %", "samples K80",
               "samples V100"});
  double worst_error = 0.0;
  int covered = 0;
  for (const auto& model : exp.zoo().models()) {
    const double truth =
        model.SpeedupOver(cluster::GpuGeneration::kV100, cluster::GpuGeneration::kK80);
    Speedup learned;
    const bool has = profiles.Speedup(model.id, cluster::GpuGeneration::kV100,
                                      cluster::GpuGeneration::kK80, &learned);
    const double error = has ? std::abs(learned.raw() - truth) / truth * 100.0 : 0.0;
    if (has) {
      ++covered;
      worst_error = std::max(worst_error, error);
    }
    table.BeginRow()
        .Cell(model.name)
        .Cell(truth, 2)
        .Cell(has ? FormatDouble(learned.raw(), 2) : "--")
        .Cell(has ? FormatDouble(error, 1) : "--")
        .Cell(static_cast<int64_t>(
            profiles.SampleCount(model.id, cluster::GpuGeneration::kK80)))
        .Cell(static_cast<int64_t>(
            profiles.SampleCount(model.id, cluster::GpuGeneration::kV100)));
  }
  table.Report("E7: profiled vs true V100/K80 speedup after 12h (transparent profiling)",
               "e7_profiler_accuracy");
  std::cout << "Coverage: " << covered << "/" << exp.zoo().size()
            << " models profiled on both pools; worst error "
            << FormatDouble(worst_error, 1) << "%.\n\n";

  // Noise sweep: profiler error vs mini-batch timing jitter.
  Table sweep({"rate noise (stddev)", "mean error %", "worst error %", "covered"});
  for (double noise : {0.02, 0.05, 0.10, 0.20}) {
    analysis::ExperimentConfig sweep_config;
    sweep_config.topology = cluster::Topology{{
        {cluster::GpuGeneration::kK80, 2, 8},
        {cluster::GpuGeneration::kV100, 2, 8},
    }};
    sweep_config.seed = 29;
    sweep_config.exec.rate_noise = noise;
    analysis::Experiment sweep_exp(sweep_config);
    std::vector<workload::UserWorkloadSpec> sweep_specs(2);
    std::vector<UserId> sweep_ids;
    for (size_t u = 0; u < sweep_specs.size(); ++u) {
      sweep_specs[u].name = "user" + std::to_string(u);
      sweep_specs[u].mean_interarrival = Minutes(4);
      sweep_specs[u].mean_duration_k80 = Hours(6);
      sweep_specs[u].stop = Hours(8);
      sweep_ids.push_back(sweep_exp.users().Create(sweep_specs[u].name).id);
    }
    sched::GandivaFairConfig sweep_sched;
    sweep_sched.max_probes_per_epoch = 4;
    sweep_exp.UseGandivaFair(sweep_sched);
    workload::TraceGenerator sweep_gen(sweep_exp.zoo(), sweep_config.seed);
    sweep_exp.LoadTrace(sweep_gen.Generate(sweep_specs, sweep_ids));
    sweep_exp.Run(Hours(8));

    const auto& store = sweep_exp.gandiva()->profiles();
    double sum_error = 0.0;
    double max_error = 0.0;
    int count = 0;
    for (const auto& model : sweep_exp.zoo().models()) {
      Speedup learned;
      if (!store.Speedup(model.id, cluster::GpuGeneration::kV100,
                         cluster::GpuGeneration::kK80, &learned)) {
        continue;
      }
      const double truth = model.SpeedupOver(cluster::GpuGeneration::kV100,
                                             cluster::GpuGeneration::kK80);
      const double error = std::abs(learned.raw() - truth) / truth * 100.0;
      sum_error += error;
      max_error = std::max(max_error, error);
      ++count;
    }
    sweep.BeginRow()
        .Cell(noise, 2)
        .Cell(count > 0 ? sum_error / count : 0.0, 1)
        .Cell(max_error, 1)
        .Cell(std::to_string(count) + "/" + std::to_string(sweep_exp.zoo().size()));
  }
  sweep.Report("E7b: profiler error vs observation noise (8h, 16 K80 + 16 V100)",
               "e7_noise_sweep");

  if (covered < kMinCovered || worst_error > kMaxWorstErrorPct) {
    std::cerr << "E7 gate failed: coverage " << covered << "/" << exp.zoo().size()
              << " (need >= " << kMinCovered << "), worst error "
              << FormatDouble(worst_error, 1) << "% (need <= "
              << FormatDouble(kMaxWorstErrorPct, 1) << "%)\n";
    return 1;
  }
  return 0;
}
