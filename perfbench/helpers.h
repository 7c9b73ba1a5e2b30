// Helpers of the repository benchmark (perfbench/): the reportable
// percentile, the tick classifier, the closed-loop job generator and the
// in-memory span tracer. Each is self-tested by selftest.cc.
#ifndef GFAIR_PERFBENCH_HELPERS_H_
#define GFAIR_PERFBENCH_HELPERS_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "sched/gandiva_fair.h"

namespace gfair::perfbench {

// --- percentiles ---

// A percentile is reported only when at least this many samples lie beyond
// it; below that the value is one or two outliers, not a tail.
inline constexpr size_t kMinSamplesBeyond = 10;

// Samples strictly above the p-th percentile's rank in `n` samples.
size_t SamplesBeyond(size_t n, double p);

// PercentileSampler's p-th percentile (p in (0, 100)), or nullopt when fewer
// than kMinSamplesBeyond samples lie beyond it.
std::optional<double> ReportablePercentile(const std::vector<double>& samples, double p);

// Plain median (0 for no samples) for medians of per-run figures, where the
// tail rule above does not apply.
double Median(const std::vector<double>& values);

// --- tick classes ---

// Which periodic scheduler passes fire in a quantum. The classes nest: a
// trade quantum may also balance, and every quantum ticks.
enum class TickClass : uint8_t { kPlain = 0, kBalance = 1, kTrade = 2 };
inline constexpr size_t kNumTickClasses = 3;
const char* TickClassName(TickClass cls);  // "plain", "balance", "trade"
const char* TickSpanName(TickClass cls);   // "tick.<class name>"

// Classifies the quantum ending at a tick time from the scheduler's own
// config: GandivaFairScheduler::Start() arms the balance pass (when enabled
// on a multi-server cluster) and the trade epoch (when enabled on a
// heterogeneous cluster) as Every() chains from simulated time zero, so a
// pass fires exactly at the positive multiples of its period.
class TickClassifier {
 public:
  TickClassifier(const sched::GandivaFairConfig& config, int num_servers,
                 bool heterogeneous);

  TickClass Classify(SimTime tick_time) const;

 private:
  SimDuration balance_period_ = 0;  // 0 = pass not armed
  SimDuration trade_period_ = 0;
};

// --- closed-loop workload ---

// One job the generator asks the driver to submit.
struct JobRequest {
  size_t user = 0;           // index into the generator's user list
  const char* model = "";    // model zoo name
  int gang = 1;              // GPUs in the gang
  SimDuration k80_duration = 0;  // standalone K80 runtime
};

// Keeps every user at >= target_gpus GPUs of outstanding (submitted and
// unfinished) gangs. Each user draws from its own RNG stream derived from
// (seed, user index), so a user's requests depend only on the seed and on
// how many of its own jobs have finished, never on other users' timing.
// Gangs are 1/2/4 GPUs uniformly; models uniform over the user's mix; K80
// durations log-normal with mean `mean_duration` and log-space sigma
// `sigma`.
class ClosedLoopGenerator {
 public:
  ClosedLoopGenerator(uint64_t seed, std::vector<std::vector<const char*>> user_models,
                      int target_gpus, SimDuration mean_duration, double sigma);

  // Appends the requests that bring `user` back to the target.
  void Refill(size_t user, std::vector<JobRequest>* out);
  // Records a finished job of `user` holding `gang` GPUs.
  void OnFinished(size_t user, int gang);

  int outstanding(size_t user) const { return users_[user].outstanding; }
  size_t num_users() const { return users_.size(); }
  int target_gpus() const { return target_gpus_; }

 private:
  struct UserStream {
    Rng rng;
    std::vector<const char*> models;
    int outstanding = 0;
  };
  std::vector<UserStream> users_;
  int target_gpus_;
  double log_mu_hours_;
  double sigma_;
};

// --- tracing ---

using Clock = std::chrono::steady_clock;

// Spans kept in memory and written out when the run ends. A span has a name
// (a string literal), start, end, the index of its parent span (-1 for a
// root), a run id and an optional integer argument. Begin/End nest through
// a stack; Record adds an already-timed leaf under the open span, so the
// timed hot loop pays only a push_back for it.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;  // since the tracer's origin
    int64_t end_ns;
    int32_t parent;
    int32_t run;
    int64_t arg;
  };

  // `run` tags every span, so traces of several runs can be merged.
  explicit Tracer(int32_t run);

  // Opens a span under the innermost open one; returns its index.
  int32_t Begin(const char* name, int64_t arg = -1);
  void End(int32_t span);
  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t arg = -1);

  const std::vector<Span>& spans() const { return spans_; }
  // Durations in microseconds of the spans named `name`, in record order.
  std::vector<double> DurationsUs(const char* name) const;

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps),
  // loadable in Perfetto or chrome://tracing. Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int64_t SinceOrigin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int32_t run_;
};

// RAII span on a possibly-null tracer (null = untraced run: no-op).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t arg = -1)
      : tracer_(tracer), span_(tracer != nullptr ? tracer->Begin(name, arg) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(span_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t span_;
};

}  // namespace gfair::perfbench

#endif  // GFAIR_PERFBENCH_HELPERS_H_
