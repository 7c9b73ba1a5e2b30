#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "analysis/harness.h"
#include "analysis/metrics.h"
#include "cluster/cluster.h"
#include "common/stats.h"
#include "sched/cluster_state_view.h"
#include "sched/quantum_planner.h"

namespace gfair::perfbench {

namespace {

// flip2k / steady10k: 1-GPU jobs that never finish, drawn from a few models
// (the tick cost does not depend on the model; the seed picks the mix).
const std::vector<const char*>& UniformModels() {
  static const std::vector<const char*> models = {"DCGAN", "ResNet-18", "VAE",
                                                  "SuperResolution"};
  return models;
}
constexpr double kInfiniteHours = 100000.0;
// CheckInvariants() runs after every kInvariantsEvery-th timed quantum and
// after the last one, traced or not.
constexpr int kInvariantsEvery = 64;
// Traced runs time a bench-owned replan of every up server each
// kReplanEvery quanta (pure: it changes no decision).
constexpr int kReplanEvery = 8;

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Everything the program receives, generated from the seed before it runs.
struct Inputs {
  cluster::Topology topology;
  std::vector<std::pair<std::string, double>> users;  // name, tickets
  std::vector<JobRequest> burst;                      // arrivals at t = 0
  std::unique_ptr<ClosedLoopGenerator> loop;          // paper200 only
};

Inputs UniformInputs(int servers, int jobs_per_server, uint64_t seed) {
  Inputs in;
  in.topology = cluster::HomogeneousTopology(servers, 8);
  in.users = {{"u0", 1.0}, {"u1", 1.0}};
  Rng rng(seed);
  const auto& models = UniformModels();
  const int jobs = servers * jobs_per_server;
  in.burst.reserve(static_cast<size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    JobRequest request;
    request.user = static_cast<size_t>(i % 2);
    request.model = models[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(models.size()) - 1))];
    request.gang = 1;
    request.k80_duration = Hours(kInfiniteHours);
    in.burst.push_back(request);
  }
  return in;
}

Inputs GenerateInputs(WorkloadKind kind, uint64_t seed) {
  switch (kind) {
    case WorkloadKind::kPaper200: {
      Inputs in;
      in.topology = cluster::PaperScaleTopology();
      for (const PaperUser& user : PaperUsers()) {
        in.users.emplace_back(user.name, user.tickets);
      }
      in.loop = std::make_unique<ClosedLoopGenerator>(MakePaperGenerator(seed));
      for (size_t u = 0; u < in.users.size(); ++u) {
        in.loop->Refill(u, &in.burst);
      }
      return in;
    }
    case WorkloadKind::kFlip2k:
      return UniformInputs(250, 16, seed);
    case WorkloadKind::kSteady10k:
      return UniformInputs(1250, 8, seed);
  }
  std::abort();
}

// A live closed-loop job: submitted, not yet seen finished.
struct LiveJob {
  JobId id;
  size_t user;
  int gang;
};

class Runner {
 public:
  Runner(const WorkloadDef& def, uint64_t seed, Tracer* tracer)
      : def_(def), seed_(seed), tracer_(tracer) {}

  RunResult Run() {
    ScopedSpan run_span(tracer_, "run", static_cast<int64_t>(seed_));
    const Clock::time_point setup_start = Clock::now();
    {
      ScopedSpan setup_span(tracer_, "setup");
      {
        ScopedSpan span(tracer_, "workload.gen");
        inputs_ = GenerateInputs(def_.kind, seed_);
      }
      Build();
      Burst();
      WarmUp();
    }
    result_.setup_s = Seconds(setup_start, Clock::now());
    TimedWindow();
    {
      ScopedSpan span(tracer_, "analysis.report");
      Report();
    }
    result_.peak_rss_mb = PeakRssMb();
    CheckNoJobLost();
    result_.attempted += static_cast<int64_t>(submitted_.size());
    TimeSubmitRate();
    return std::move(result_);
  }

 private:
  static double Seconds(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  }

  void Build() {
    ScopedSpan span(tracer_, "analysis.build");
    analysis::ExperimentConfig config;
    config.topology = inputs_.topology;
    exp_ = std::make_unique<analysis::Experiment>(config);
    for (const auto& [name, tickets] : inputs_.users) {
      user_ids_.push_back(exp_->users().Create(name, tickets).id);
    }
    exp_->UseGandivaFair(sched::GandivaFairConfig{});
    gandiva_ = exp_->gandiva();
  }

  void Submit(SimTime when, const JobRequest& request) {
    const JobId id = exp_->SubmitAt(when, user_ids_[request.user], request.model,
                                    request.gang, request.k80_duration);
    submitted_.push_back(id);
    if (inputs_.loop != nullptr) {
      live_.push_back(LiveJob{id, request.user, request.gang});
    }
  }

  // Delivers the burst at t = 0 in ten Run calls, timing each tenth.
  void Burst() {
    ScopedSpan span(tracer_, "burst");
    const size_t n = inputs_.burst.size();
    for (size_t k = 0; k < 10; ++k) {
      const size_t begin = n * k / 10;
      const size_t end = n * (k + 1) / 10;
      const Clock::time_point t0 = Clock::now();
      for (size_t i = begin; i < end; ++i) {
        Submit(kTimeZero, inputs_.burst[i]);
      }
      exp_->Run(kTimeZero);
      const Clock::time_point t1 = Clock::now();
      result_.burst_s += Seconds(t0, t1);
      if (tracer_ != nullptr) {
        tracer_->Record("sched.submit", t0, t1, static_cast<int64_t>(end - begin));
      }
    }
  }

  // The run's own burst plus `submit_probes` bursts of the same inputs into
  // fresh, untraced experiments that are dropped after the burst.
  void TimeSubmitRate() {
    ScopedSpan span(tracer_, "submit_probes", def_.submit_probes);
    const auto jobs = static_cast<double>(inputs_.burst.size());
    std::vector<double> rates = {jobs / result_.burst_s};
    for (int i = 0; i < def_.submit_probes; ++i) {
      Runner probe(def_, seed_, nullptr);
      probe.inputs_ = GenerateInputs(def_.kind, seed_);
      probe.Build();
      probe.Burst();
      rates.push_back(jobs / probe.result_.burst_s);
    }
    result_.submit_jobs_per_s = Median(rates);
  }

  void WarmUp() {
    ScopedSpan span(tracer_, "warmup");
    const SimDuration quantum = gandiva_->config().quantum;
    for (SimTime now = quantum; now <= def_.warmup; now += quantum) {
      exp_->Run(now);
      ReplaceFinished(now);
    }
  }

  // Closed loop: a job seen finished after a quantum is replaced at that
  // quantum, users in ascending order, so the stream is deterministic.
  void ReplaceFinished(SimTime now) {
    if (inputs_.loop == nullptr) {
      return;
    }
    ScopedSpan span(tracer_, "driver.replace");
    std::vector<bool> refill(inputs_.users.size(), false);
    for (size_t i = 0; i < live_.size();) {
      if (exp_->jobs().Get(live_[i].id).finished()) {
        inputs_.loop->OnFinished(live_[i].user, live_[i].gang);
        refill[live_[i].user] = true;
        live_[i] = live_.back();
        live_.pop_back();
      } else {
        ++i;
      }
    }
    pending_.clear();
    for (size_t u = 0; u < refill.size(); ++u) {
      if (refill[u]) {
        inputs_.loop->Refill(u, &pending_);
      }
    }
    for (const JobRequest& request : pending_) {
      Submit(now, request);
    }
  }

  // The closed loop's promise, checked against the driver's own live set.
  bool LoopHolds() const {
    std::vector<int> gpus(inputs_.users.size(), 0);
    for (const LiveJob& job : live_) {
      gpus[job.user] += job.gang;
    }
    for (size_t u = 0; u < gpus.size(); ++u) {
      if (gpus[u] != inputs_.loop->outstanding(u) || gpus[u] < kPaperTargetGpus) {
        return false;
      }
    }
    return true;
  }

  // Per-tick shape of the synthetic workloads: every server flips (flip2k)
  // or every server is skipped (steady10k).
  bool TickShapeHolds(size_t planned, size_t skipped, int64_t resumes,
                      int64_t suspends) const {
    const auto servers = static_cast<size_t>(exp_->cluster().num_servers());
    switch (def_.kind) {
      case WorkloadKind::kPaper200:
        return true;
      case WorkloadKind::kFlip2k: {
        const int64_t gpus = exp_->cluster().total_gpus();
        return planned == servers && skipped == 0 && resumes == gpus && suspends == gpus;
      }
      case WorkloadKind::kSteady10k:
        return planned == 0 && skipped == servers && resumes == 0 && suspends == 0;
    }
    return false;
  }

  void Fail(std::string what) {
    result_.failed += 1;
    if (result_.failures.size() < 8) {
      result_.failures.push_back(std::move(what));
    }
  }

  void TimedWindow() {
    ScopedSpan span(tracer_, "timed");
    const sched::DecisionLog& log = gandiva_->decisions();
    const auto count = [&log](sched::DecisionType type) { return log.Count(type); };
    const std::array<int64_t, sched::kNumDecisionTypes> decisions_before = Decisions();
    const uint64_t events_before = exp_->sim().total_events_processed();
    const double gb_before = exp_->exec().migration_bytes_gb();
    const size_t trades_before = gandiva_->executed_trades().size();
    window_start_ = exp_->sim().Now();
    useful_before_ = analysis::TotalUsefulWork(exp_->jobs(), exp_->zoo());

    const TickClassifier classifier(gandiva_->config(), exp_->cluster().num_servers(),
                                    exp_->cluster().heterogeneous());
    const sched::QuantumPlanner replanner(
        sched::ClusterStateView(exp_->cluster(), gandiva_->cluster_index()));
    sched::SchedulePlan replan;

    const SimDuration quantum = gandiva_->config().quantum;
    SimTime now = window_start_;
    result_.tick_us.reserve(static_cast<size_t>(def_.timed_quanta));
    WindowCounts& c = result_.counts;
    for (int q = 1; q <= def_.timed_quanta; ++q) {
      now += quantum;
      const TickClass cls = classifier.Classify(now);
      const int64_t resumes = count(sched::DecisionType::kResume);
      const int64_t suspends = count(sched::DecisionType::kSuspend);
      const Clock::time_point t0 = Clock::now();
      exp_->Run(now);
      const Clock::time_point t1 = Clock::now();
      const double tick_s = Seconds(t0, t1);
      result_.tick_us.push_back(tick_s * 1e6);
      result_.timed_s += tick_s;
      if (tracer_ != nullptr) {
        tracer_->Record(TickSpanName(cls), t0, t1, q);
      }

      const sched::SchedulePlan& plan = gandiva_->last_plan();
      c.ticks += 1;
      c.planned_servers += static_cast<int64_t>(plan.servers.size());
      c.skipped_servers += static_cast<int64_t>(plan.skipped_vt.size());
      c.trade_epochs += cls == TickClass::kTrade ? 1 : 0;
      std::string broken;
      if (!TickShapeHolds(plan.servers.size(), plan.skipped_vt.size(),
                          count(sched::DecisionType::kResume) - resumes,
                          count(sched::DecisionType::kSuspend) - suspends)) {
        broken = "the workload's per-tick shape does not hold";
      }
      if (q < def_.timed_quanta) {  // the last quantum's replacements would never arrive
        ReplaceFinished(now);
        if (inputs_.loop != nullptr && !LoopHolds()) {
          broken = "a closed-loop user is below its outstanding-GPU target";
        }
      }
      if (q % kInvariantsEvery == 0 || q == def_.timed_quanta) {
        ScopedSpan inv_span(tracer_, "sched.invariants");
        const std::vector<std::string> violations = gandiva_->CheckInvariants();
        if (!violations.empty()) {
          broken = "invariant violation: " + violations.front();
        }
      }
      if (!broken.empty()) {
        Fail("quantum " + std::to_string(q) + ": " + broken);
      }
      if (tracer_ != nullptr && q % kReplanEvery == 0) {
        ScopedSpan replan_span(tracer_, "sched.replan");
        replan.Clear();
        for (const cluster::Server& server : exp_->cluster().servers()) {
          if (server.up()) {
            replanner.PlanServer(server.id(), &replan);
          }
        }
      }
    }
    result_.attempted += def_.timed_quanta;

    const std::array<int64_t, sched::kNumDecisionTypes> decisions_after = Decisions();
    const auto delta = [&](sched::DecisionType type) {
      const auto t = static_cast<size_t>(type);
      return decisions_after[t] - decisions_before[t];
    };
    c.resumes = delta(sched::DecisionType::kResume);
    c.suspends = delta(sched::DecisionType::kSuspend);
    for (size_t cause = 0; cause < c.migrations.size(); ++cause) {
      c.migrations[cause] =
          delta(sched::DecisionFor(static_cast<sched::MigrationCause>(cause)));
    }
    c.trades = static_cast<int64_t>(gandiva_->executed_trades().size() - trades_before);
    c.migration_gb = exp_->exec().migration_bytes_gb() - gb_before;
    c.events = exp_->sim().total_events_processed() - events_before;
    c.sim_hours = ToHours(now - window_start_);
    if (def_.kind == WorkloadKind::kPaper200 && c.trades == 0) {
      Fail("paper200 executed no trade in the timed window");
    }
  }

  std::array<int64_t, sched::kNumDecisionTypes> Decisions() const {
    std::array<int64_t, sched::kNumDecisionTypes> out{};
    for (size_t t = 0; t < out.size(); ++t) {
      out[t] = gandiva_->decisions().Count(static_cast<sched::DecisionType>(t));
    }
    return out;
  }

  void Report() {
    const SimTime from = window_start_;
    const SimTime to = exp_->sim().Now();
    const std::vector<double> ideal = exp_->IdealGpuMs(from, to);
    std::vector<double> ratios;
    for (size_t u = 0; u < user_ids_.size(); ++u) {
      if (ideal[u] > static_cast<double>(Minutes(1))) {
        ratios.push_back(exp_->ledger().GpuMs(user_ids_[u], from, to) / ideal[u]);
      }
    }
    SimOutputs& sim = result_.sim;
    sim.jain = JainIndex(ratios);
    const double useful = analysis::TotalUsefulWork(exp_->jobs(), exp_->zoo());
    sim.useful_k80h_per_gpu_h = (useful - useful_before_) /
                                (exp_->cluster().total_gpus() * ToHours(to - from));
    sim.decisions = Decisions();
    sim.events = exp_->sim().total_events_processed();
    sim.jobs_submitted = static_cast<int64_t>(submitted_.size());
    for (const JobId id : submitted_) {
      sim.jobs_finished += exp_->jobs().Get(id).finished() ? 1 : 0;
    }
    sim.trades = static_cast<int64_t>(gandiva_->executed_trades().size());
    sim.migration_gb = exp_->exec().migration_bytes_gb();
  }

  // A submitted job is lost when it is neither finished nor known to the
  // scheduler: per user, the unfinished jobs must match the scheduler's
  // count, and queued (non-resident) ones must be parked orphans.
  void CheckNoJobLost() {
    std::vector<int64_t> unfinished(user_ids_.size(), 0);
    int64_t queued = 0;
    for (const JobId id : submitted_) {
      const workload::Job& job = exp_->jobs().Get(id);
      if (job.finished()) {
        continue;
      }
      const auto user = static_cast<size_t>(
          std::find(user_ids_.begin(), user_ids_.end(), job.user) - user_ids_.begin());
      unfinished[user] += 1;
      queued += job.state == workload::JobState::kQueued ? 1 : 0;
    }
    int64_t lost =
        std::max<int64_t>(0, queued - static_cast<int64_t>(gandiva_->pending_orphan_count()));
    for (size_t u = 0; u < user_ids_.size(); ++u) {
      lost += std::abs(unfinished[u] - gandiva_->residency().UnfinishedJobs(user_ids_[u]));
    }
    for (int64_t i = 0; i < lost; ++i) {
      Fail("a submitted job is lost");
    }
  }

  const WorkloadDef& def_;
  const uint64_t seed_;
  Tracer* const tracer_;
  Inputs inputs_;
  std::unique_ptr<analysis::Experiment> exp_;
  sched::GandivaFairScheduler* gandiva_ = nullptr;
  std::vector<UserId> user_ids_;
  std::vector<JobId> submitted_;
  std::vector<LiveJob> live_;
  std::vector<JobRequest> pending_;
  SimTime window_start_ = kTimeZero;
  double useful_before_ = 0.0;
  RunResult result_;
};

}  // namespace

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"paper200", WorkloadKind::kPaper200, Hours(1), 10080, 63},  // one simulated week
      {"flip2k", WorkloadKind::kFlip2k, Minutes(2), 1000, 0},
      {"steady10k", WorkloadKind::kSteady10k, Minutes(2), 1000, 0},
  };
  return defs;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : Workloads()) {
    if (name == def.name) {
      return &def;
    }
  }
  return nullptr;
}

std::string SimOutputs::Describe() const {
  std::ostringstream os;
  os.precision(17);
  os << "jain=" << jain << " useful=" << useful_k80h_per_gpu_h << " events=" << events
     << " submitted=" << jobs_submitted << " finished=" << jobs_finished
     << " trades=" << trades << " migration_gb=" << migration_gb << " decisions=[";
  for (size_t t = 0; t < decisions.size(); ++t) {
    os << (t == 0 ? "" : ",") << decisions[t];
  }
  os << "]";
  return os.str();
}

const std::vector<PaperUser>& PaperUsers() {
  static const std::vector<PaperUser> users = {
      {"vae-lab", 1.0, {"VAE", "VAE", "SuperResolution"}},
      {"audio-lab", 1.0, {"DeepSpeech2", "GRU-LM", "LSTM-LM"}},
      {"gan-lab", 1.0, {"DCGAN", "DCGAN", "SuperResolution"}},
      {"mixed-a", 2.0, {"ResNet-18", "LSTM-LM", "DCGAN"}},
      {"mixed-b", 1.0, {"InceptionV3", "GRU-LM"}},
      {"vision-a", 1.0, {"ResNet-50", "ResNet-50", "InceptionV3"}},
      {"vision-b", 2.0, {"ResNeXt-50", "ResNeXt-50", "ResNet-50"}},
      {"nlp-lab", 1.0, {"Transformer", "Transformer", "ResNeXt-50"}},
  };
  return users;
}

ClosedLoopGenerator MakePaperGenerator(uint64_t seed) {
  std::vector<std::vector<const char*>> models;
  for (const PaperUser& user : PaperUsers()) {
    models.push_back(user.models);
  }
  return ClosedLoopGenerator(seed, std::move(models), kPaperTargetGpus, Hours(2), 0.8);
}

RunResult RunWorkload(const WorkloadDef& def, uint64_t seed, Tracer* tracer) {
  return Runner(def, seed, tracer).Run();
}

}  // namespace gfair::perfbench
