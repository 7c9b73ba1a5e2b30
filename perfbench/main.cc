// gfair_perfbench — the repository benchmark's driver.
//
//   gfair_perfbench --workload <paper200|flip2k|steady10k> --seed <n>
//                   --seconds <s> --trace <0|1> [--trace-out <file.json>]
//   gfair_perfbench --self-test
//
// --trace 0 repeats whole runs of the workload (fresh experiment each) for
// about --seconds, at least three, and reports each end-to-end metric as the
// median over runs of the per-run figure (tick percentiles are per run, over
// that run's timed quanta).
//
// --trace 1 makes untraced runs for about half of --seconds, then one traced
// run of the same seed whose spans give every per-layer metric (written as a
// Chrome trace to --trace-out) and one more untraced run (the two untraced
// neighbours give the tracing overhead), then one untraced run on a held-out
// seed whose per-tick shape must hold too.
//
// Both modes check outputs: every run's invariant sweeps and job accounting
// (see workloads.h), and bit-identical simulated outputs across all runs of
// one seed, traced or not. The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is non-zero
// when any check failed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "helpers.h"
#include "selftest.h"
#include "workloads.h"

using namespace gfair;
using namespace gfair::perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
  bool self_test = false;
};

// Held-out seed for the shape check of a traced invocation.
constexpr uint64_t kHeldOutOffset = 1000003;
// Never start another run once this much wall time is spent: every
// invocation must end well inside three minutes.
constexpr double kWallCapSeconds = 120.0;

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "gfair_perfbench: " << error
            << "\nusage: gfair_perfbench --workload <paper200|flip2k|steady10k> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "       gfair_perfbench --self-test\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.self_test) {
    return args;
  }
  if (FindWorkload(args.workload) == nullptr) {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 60.0)) {
    Usage("--seconds must be in (0, 60]");
  }
  if (args.trace != 0 && args.trace != 1) {
    Usage("--trace must be 0 or 1");
  }
  return args;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The result line's metrics plus the human-readable table on stderr.
class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fail(const std::string& what) {
    failures_.push_back(what);
  }
  void Count(const RunResult& run) {
    attempted_ += run.attempted;
    failed_ += run.failed;
    for (const std::string& failure : run.failures) {
      failures_.push_back(failure);
    }
  }
  // A mismatching run's every op produced a wrong output.
  void Mismatch(const RunResult& run, const RunResult& reference, const char* what) {
    failed_ += run.attempted - run.failed;
    failures_.push_back(std::string(what) + ": " + run.sim.Describe() + " vs " +
                        reference.sim.Describe());
  }

  int Print() const {
    bool finite = true;
    for (const Metric& m : metrics_) {
      finite = finite && std::isfinite(m.value);
    }
    const bool correct = failures_.empty() && failed_ == 0 && finite && attempted_ > 0;
    for (const std::string& failure : failures_) {
      std::cerr << "CHECK FAILED: " << failure << "\n";
    }
    std::fprintf(stderr, "%-40s %22s  %s\n", "metric", "value", "unit");
    for (const Metric& m : metrics_) {
      std::fprintf(stderr, "%-40s %22.6f  %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::fprintf(stderr, "%-40s %22.6f  %s\n", "failed_ops_frac",
                 attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0, "frac");
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted_),
                static_cast<long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Whole runs of one seed until `budget_s` has passed (at least `min_runs`,
// never past the wall cap), each checked against the first.
std::vector<RunResult> RepeatRuns(const WorkloadDef& def, uint64_t seed, double budget_s,
                                  size_t min_runs, Clock::time_point invocation_start,
                                  Report& report) {
  std::vector<RunResult> runs;
  const Clock::time_point start = Clock::now();
  double longest = 0.0;
  while (runs.size() < min_runs || SecondsSince(start) < budget_s) {
    if (!runs.empty() && SecondsSince(invocation_start) + longest > kWallCapSeconds) {
      break;
    }
    const Clock::time_point run_start = Clock::now();
    runs.push_back(RunWorkload(def, seed, nullptr));
    longest = std::max(longest, SecondsSince(run_start));
    std::cerr << "  run " << runs.size() << ": setup " << runs.back().setup_s
              << " s, tick p50 " << Median(runs.back().tick_us) << " us, p99 "
              << ReportablePercentile(runs.back().tick_us, 99.0).value_or(0.0) << " us, "
              << SecondsSince(run_start) << " s\n";
    report.Count(runs.back());
    if (!(runs.back().sim == runs.front().sim)) {
      report.Mismatch(runs.back(), runs.front(), "repeated run of one seed diverged");
    }
  }
  return runs;
}

double Percentile(const std::vector<double>& samples, double p, const char* what,
                  Report& report) {
  const std::optional<double> value = ReportablePercentile(samples, p);
  if (!value.has_value()) {
    report.Fail(std::string("too few samples for ") + what + ": " +
                std::to_string(samples.size()));
    return 0.0;
  }
  return *value;
}

int EndToEnd(const WorkloadDef& def, const Args& args, Clock::time_point invocation_start) {
  Report report;
  const std::vector<RunResult> runs =
      RepeatRuns(def, args.seed, args.seconds, 3, invocation_start, report);
  // Per-run figures, then the median over runs: one disturbed run moves
  // none of them.
  std::vector<double> setup_s;
  std::vector<double> sim_hours_per_s;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> submit_rate;
  size_t samples = 0;
  for (const RunResult& run : runs) {
    setup_s.push_back(run.setup_s);
    sim_hours_per_s.push_back(run.counts.sim_hours / run.timed_s);
    p50.push_back(Percentile(run.tick_us, 50.0, "tick_us_p50", report));
    p99.push_back(Percentile(run.tick_us, 99.0, "tick_us_p99", report));
    submit_rate.push_back(run.submit_jobs_per_s);
    samples += run.tick_us.size();
  }
  std::cerr << def.name << " seed " << args.seed << ": " << runs.size() << " runs, "
            << samples << " timed quanta (" << runs.front().tick_us.size()
            << " per run behind each per-run tick percentile)\n";
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("sim_hours_per_s", Median(sim_hours_per_s), "h/s");
  report.Add("tick_us_p50", Median(p50), "us");
  report.Add("tick_us_p99", Median(p99), "us");
  report.Add("submit_jobs_per_s", Median(submit_rate), "1/s");
  report.Add("jain", runs.front().sim.jain, "ratio");
  report.Add("useful_k80h_per_gpu_h", runs.front().sim.useful_k80h_per_gpu_h, "K80h/GPUh");
  report.Add("peak_rss_mb", runs.front().peak_rss_mb, "MB");
  return report.Print();
}

double PerTick(int64_t total, const WindowCounts& c) {
  return static_cast<double>(total) / static_cast<double>(c.ticks);
}

double PerSimHour(double total, const WindowCounts& c) { return total / c.sim_hours; }

double SingleSpanUs(const Tracer& tracer, const char* name) {
  const std::vector<double> spans = tracer.DurationsUs(name);
  return spans.empty() ? 0.0 : spans.front();
}

int Traced(const WorkloadDef& def, const Args& args, Clock::time_point invocation_start) {
  Report report;
  const std::vector<RunResult> untraced =
      RepeatRuns(def, args.seed, args.seconds / 2.0, 1, invocation_start, report);

  Tracer tracer(/*run=*/0);
  const RunResult traced = RunWorkload(def, args.seed, &tracer);
  report.Count(traced);
  if (!(traced.sim == untraced.front().sim)) {
    report.Mismatch(traced, untraced.front(), "traced run diverged from untraced");
  }
  if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
    report.Fail("cannot write trace " + args.trace_out);
  }
  // The tracing overhead compares the traced run with its untraced
  // neighbours in time, the runs just before and just after it.
  const RunResult after = RunWorkload(def, args.seed, nullptr);
  report.Count(after);
  if (!(after.sim == untraced.front().sim)) {
    report.Mismatch(after, untraced.front(), "repeated run of one seed diverged");
  }

  const uint64_t held_out_seed = args.seed + kHeldOutOffset;
  const RunResult held_out = RunWorkload(def, held_out_seed, nullptr);
  report.Count(held_out);  // its per-tick shape checks run inside
  const WindowCounts& h = held_out.counts;
  std::cerr << def.name << " held-out seed " << held_out_seed << ": planned/tick "
            << PerTick(h.planned_servers, h) << ", skipped/tick "
            << PerTick(h.skipped_servers, h) << ", resumes/tick " << PerTick(h.resumes, h)
            << ", trades " << h.trades << "\n";

  const WindowCounts& c = traced.counts;
  // The burst's ten sched.submit spans carry their job counts.
  std::vector<double> submit_us_per_job;
  for (const Tracer::Span& span : tracer.spans()) {
    if (std::string("sched.submit") == span.name) {
      submit_us_per_job.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0 /
                                  static_cast<double>(span.arg));
    }
  }
  const double first_tenth = submit_us_per_job.front();
  const double last_tenth = submit_us_per_job.back();
  report.Add("sched.submit_us_per_job.first_tenth", first_tenth, "us");
  report.Add("sched.submit_us_per_job.last_tenth", last_tenth, "us");
  report.Add("sched.submit_growth", last_tenth / first_tenth, "ratio");
  report.Add("sched.planned_servers_per_tick", PerTick(c.planned_servers, c), "count");
  report.Add("sched.skipped_servers_per_tick", PerTick(c.skipped_servers, c), "count");
  report.Add("sched.resumes_per_tick", PerTick(c.resumes, c), "count");
  report.Add("sched.suspends_per_tick", PerTick(c.suspends, c), "count");
  report.Add("sched.replan_us", Median(tracer.DurationsUs("sched.replan")), "us");
  for (size_t i = 0; i < kNumTickClasses; ++i) {
    const auto cls = static_cast<TickClass>(i);
    // An empty class (no trade epoch on a single pool) reads 0.
    report.Add(std::string("sched.tick_us_p50.") + TickClassName(cls),
               Median(tracer.DurationsUs(TickSpanName(cls))), "us");
  }
  report.Add("sched.trades_per_epoch",
             c.trade_epochs > 0 ? static_cast<double>(c.trades) / c.trade_epochs : 0.0,
             "count");
  static constexpr const char* kCauses[] = {"balance", "conserve", "steal", "probe", "trade"};
  for (size_t cause = 0; cause < c.migrations.size(); ++cause) {
    report.Add(std::string("sched.migrations_per_sim_h.") + kCauses[cause],
               PerSimHour(static_cast<double>(c.migrations[cause]), c), "1/h");
  }
  report.Add("exec.migration_gb_per_sim_h", PerSimHour(c.migration_gb, c), "GB/h");
  report.Add("simkit.events_per_sim_h", PerSimHour(static_cast<double>(c.events), c), "1/h");
  report.Add("sched.invariants_us", Median(tracer.DurationsUs("sched.invariants")), "us");
  report.Add("workload.gen_us", SingleSpanUs(tracer, "workload.gen"), "us");
  report.Add("analysis.report_us", SingleSpanUs(tracer, "analysis.report"), "us");

  const double untraced_p50 = (Median(untraced.back().tick_us) + Median(after.tick_us)) / 2.0;
  report.Add("bench.trace_overhead_frac", Median(traced.tick_us) / untraced_p50 - 1.0, "frac");
  report.Add("bench.tick_samples", static_cast<double>(traced.tick_us.size()), "count");
  return report.Print();
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point start = Clock::now();
  const Args args = ParseArgs(argc, argv);
  if (!RunSelfTests(std::cerr)) {
    return 1;
  }
  if (args.self_test) {
    std::cerr << "gfair_perfbench: self-tests passed\n";
    return 0;
  }
  const WorkloadDef& def = *FindWorkload(args.workload);
  return args.trace == 1 ? Traced(def, args, start) : EndToEnd(def, args, start);
}
