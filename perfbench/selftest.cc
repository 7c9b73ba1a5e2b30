// Self-tests of the benchmark's own helpers. They run at the start of every
// benchmark invocation (a failure stops it before any measurement) and
// alone with `gfair_perfbench --self-test`.
#include "selftest.h"

#include <string>
#include <vector>

#include "workloads.h"

namespace gfair::perfbench {

namespace {

class Checker {
 public:
  explicit Checker(std::ostream& log) : log_(log) {}
  void Expect(bool ok, const char* what) {
    if (!ok) {
      log_ << "self-test FAILED: " << what << "\n";
      failures_ += 1;
    }
  }
  bool ok() const { return failures_ == 0; }

 private:
  std::ostream& log_;
  int failures_ = 0;
};

std::vector<double> Ramp(size_t n) {
  std::vector<double> out;
  for (size_t i = 1; i <= n; ++i) {
    out.push_back(static_cast<double>(i));
  }
  return out;
}

void TestPercentile(Checker& c) {
  c.Expect(!ReportablePercentile(Ramp(999), 99.0).has_value(),
           "p99 of 999 samples (9 beyond it) is refused");
  c.Expect(ReportablePercentile(Ramp(1000), 99.0).has_value(),
           "p99 of 1000 samples (10 beyond it) is reported");
  c.Expect(!ReportablePercentile(Ramp(19), 50.0).has_value(),
           "p50 of 19 samples (9 beyond it) is refused");
  const auto p50 = ReportablePercentile(Ramp(1000), 50.0);
  c.Expect(p50.has_value() && *p50 == 500.5, "p50 of 1..1000 interpolates to 500.5");
  c.Expect(SamplesBeyond(1000, 99.9) == 1, "one sample lies beyond p99.9 of 1000");
  c.Expect(Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even count averages");
}

void TestTickClassifier(Checker& c) {
  sched::GandivaFairConfig config;
  const TickClassifier hetero(config, 50, true);
  c.Expect(hetero.Classify(config.quantum) == TickClass::kPlain, "first quantum is plain");
  c.Expect(hetero.Classify(config.balance_period) == TickClass::kBalance,
           "balance period fires the balance class");
  c.Expect(hetero.Classify(config.trade_period) == TickClass::kTrade,
           "trade period fires the trade class");

  config.balance_period = Minutes(3);
  config.trade_period = Minutes(7);
  const TickClassifier odd(config, 50, true);
  c.Expect(odd.Classify(Minutes(3)) == TickClass::kBalance &&
               odd.Classify(Minutes(5)) == TickClass::kPlain &&
               odd.Classify(Minutes(10)) == TickClass::kPlain &&
               odd.Classify(Minutes(7)) == TickClass::kTrade &&
               odd.Classify(Minutes(21)) == TickClass::kTrade,
           "classes follow the configured periods, not fixed ones");

  const TickClassifier homogeneous(config, 50, false);
  c.Expect(homogeneous.Classify(Minutes(21)) == TickClass::kBalance,
           "no trade class on a homogeneous cluster");
  const TickClassifier single(config, 1, true);
  c.Expect(single.Classify(Minutes(3)) == TickClass::kPlain,
           "no balance class on a single server");
  config.enable_trading = false;
  const TickClassifier no_trade(config, 50, true);
  c.Expect(no_trade.Classify(Minutes(21)) == TickClass::kBalance,
           "no trade class with trading disabled");
}

// Drives a generator through `steps` finishes chosen by `pick`, returning
// every request it made; checks the outstanding target after each refill.
std::vector<JobRequest> DriveLoop(ClosedLoopGenerator gen, uint64_t pick_seed, int steps,
                                  Checker& c) {
  std::vector<JobRequest> requests;
  std::vector<JobRequest> live;
  for (size_t u = 0; u < gen.num_users(); ++u) {
    gen.Refill(u, &live);
  }
  requests = live;
  Rng pick(pick_seed);
  bool held = true;
  for (int step = 0; step < steps; ++step) {
    const auto victim = static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
    const JobRequest done = live[victim];
    live[victim] = live.back();
    live.pop_back();
    gen.OnFinished(done.user, done.gang);
    const size_t before = live.size();
    gen.Refill(done.user, &live);
    requests.insert(requests.end(), live.begin() + static_cast<ptrdiff_t>(before),
                    live.end());
    std::vector<int> gpus(gen.num_users(), 0);
    for (const JobRequest& job : live) {
      gpus[job.user] += job.gang;
    }
    for (size_t u = 0; u < gen.num_users(); ++u) {
      held = held && gpus[u] == gen.outstanding(u) && gpus[u] >= gen.target_gpus() &&
             gpus[u] < gen.target_gpus() + 4;
    }
  }
  c.Expect(held, "closed loop holds every user at >= 38 outstanding GPUs (and < 42)");
  return requests;
}

bool SameRequests(const std::vector<JobRequest>& a, const std::vector<JobRequest>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].user != b[i].user || a[i].gang != b[i].gang ||
        a[i].k80_duration != b[i].k80_duration ||
        std::string(a[i].model) != std::string(b[i].model)) {
      return false;
    }
  }
  return true;
}

void TestClosedLoop(Checker& c) {
  const auto first = DriveLoop(MakePaperGenerator(7), 99, 3000, c);
  const auto again = DriveLoop(MakePaperGenerator(7), 99, 3000, c);
  const auto other = DriveLoop(MakePaperGenerator(8), 99, 3000, c);
  c.Expect(SameRequests(first, again), "same seed, same request stream");
  c.Expect(!SameRequests(first, other), "another seed, another request stream");
  double hours = 0.0;
  for (const JobRequest& request : first) {
    hours += ToHours(request.k80_duration);
  }
  const double mean = hours / static_cast<double>(first.size());
  c.Expect(mean > 1.8 && mean < 2.2, "K80 durations average about 2 h");
}

void TestTracer(Checker& c) {
  Tracer tracer(3);
  const int32_t outer = tracer.Begin("outer");
  const Clock::time_point now = Clock::now();
  tracer.Record("leaf", now, now + std::chrono::microseconds(5), 42);
  const int32_t inner = tracer.Begin("inner");
  tracer.End(inner);
  tracer.End(outer);
  const auto& spans = tracer.spans();
  c.Expect(spans.size() == 3 && spans[0].parent == -1 && spans[1].parent == outer &&
               spans[2].parent == outer && spans[1].arg == 42 && spans[2].run == 3,
           "spans record their parent, run and argument");
  const auto leaf = tracer.DurationsUs("leaf");
  c.Expect(leaf.size() == 1 && leaf[0] == 5.0, "a recorded span keeps its duration");
}

}  // namespace

bool RunSelfTests(std::ostream& log) {
  Checker c(log);
  TestPercentile(c);
  TestTickClassifier(c);
  TestClosedLoop(c);
  TestTracer(c);
  return c.ok();
}

}  // namespace gfair::perfbench
