#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/check.h"
#include "common/stats.h"

namespace gfair::perfbench {

size_t SamplesBeyond(size_t n, double p) {
  // Samples at or below the percentile: ceil(n * p / 100), with a small
  // epsilon so that e.g. 0.99 * 1000 lands on 990 despite rounding.
  const double at_or_below = std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9);
  const auto below = static_cast<size_t>(std::max(0.0, at_or_below));
  return below >= n ? 0 : n - below;
}

std::optional<double> ReportablePercentile(const std::vector<double>& samples, double p) {
  GFAIR_CHECK(p > 0.0 && p < 100.0);
  if (SamplesBeyond(samples.size(), p) < kMinSamplesBeyond) {
    return std::nullopt;
  }
  PercentileSampler sampler;
  for (double x : samples) {
    sampler.Add(x);
  }
  return sampler.Percentile(p);
}

double Median(const std::vector<double>& values) {
  PercentileSampler sampler;
  for (double x : values) {
    sampler.Add(x);
  }
  return sampler.Median();
}

const char* TickClassName(TickClass cls) {
  switch (cls) {
    case TickClass::kPlain:
      return "plain";
    case TickClass::kBalance:
      return "balance";
    case TickClass::kTrade:
      return "trade";
  }
  return "?";
}

const char* TickSpanName(TickClass cls) {
  switch (cls) {
    case TickClass::kPlain:
      return "tick.plain";
    case TickClass::kBalance:
      return "tick.balance";
    case TickClass::kTrade:
      return "tick.trade";
  }
  return "tick.?";
}

TickClassifier::TickClassifier(const sched::GandivaFairConfig& config, int num_servers,
                               bool heterogeneous) {
  if (config.enable_load_balancing && num_servers > 1) {
    balance_period_ = config.balance_period;
  }
  if (config.enable_trading && heterogeneous) {
    trade_period_ = config.trade_period;
  }
}

TickClass TickClassifier::Classify(SimTime tick_time) const {
  const auto fires = [tick_time](SimDuration period) {
    return period > 0 && tick_time > 0 && tick_time % period == 0;
  };
  if (fires(trade_period_)) {
    return TickClass::kTrade;
  }
  if (fires(balance_period_)) {
    return TickClass::kBalance;
  }
  return TickClass::kPlain;
}

ClosedLoopGenerator::ClosedLoopGenerator(uint64_t seed,
                                         std::vector<std::vector<const char*>> user_models,
                                         int target_gpus, SimDuration mean_duration,
                                         double sigma)
    : target_gpus_(target_gpus),
      // Log-normal mean is exp(mu + sigma^2 / 2).
      log_mu_hours_(std::log(ToHours(mean_duration)) - sigma * sigma / 2.0),
      sigma_(sigma) {
  GFAIR_CHECK(target_gpus > 0 && mean_duration > 0 && sigma >= 0.0);
  users_.reserve(user_models.size());
  for (size_t u = 0; u < user_models.size(); ++u) {
    GFAIR_CHECK(!user_models[u].empty());
    uint64_t mix = seed ^ (0x9E3779B97F4A7C15ULL * (u + 1));
    users_.push_back(UserStream{Rng(SplitMix64(mix)), std::move(user_models[u]), 0});
  }
}

void ClosedLoopGenerator::Refill(size_t user, std::vector<JobRequest>* out) {
  UserStream& stream = users_[user];
  while (stream.outstanding < target_gpus_) {
    JobRequest request;
    request.user = user;
    request.gang = 1 << stream.rng.UniformInt(0, 2);
    request.model = stream.models[static_cast<size_t>(
        stream.rng.UniformInt(0, static_cast<int64_t>(stream.models.size()) - 1))];
    // At least one minute, so no job is shorter than the quantum it lands in.
    request.k80_duration =
        std::max(Minutes(1), Hours(stream.rng.LogNormal(log_mu_hours_, sigma_)));
    stream.outstanding += request.gang;
    out->push_back(request);
  }
}

void ClosedLoopGenerator::OnFinished(size_t user, int gang) {
  users_[user].outstanding -= gang;
  GFAIR_CHECK(users_[user].outstanding >= 0);
}

Tracer::Tracer(int32_t run) : origin_(Clock::now()), run_(run) {}

int32_t Tracer::Begin(const char* name, int64_t arg) {
  const auto index = static_cast<int32_t>(spans_.size());
  const int64_t now = SinceOrigin(Clock::now());
  spans_.push_back(Span{name, now, now, open_.empty() ? -1 : open_.back(), run_, arg});
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t span) {
  GFAIR_CHECK(!open_.empty() && open_.back() == span);
  open_.pop_back();
  spans_[static_cast<size_t>(span)].end_ns = SinceOrigin(Clock::now());
}

void Tracer::Record(const char* name, Clock::time_point start, Clock::time_point end,
                    int64_t arg) {
  spans_.push_back(Span{name, SinceOrigin(start), SinceOrigin(end),
                        open_.empty() ? -1 : open_.back(), run_, arg});
}

std::vector<double> Tracer::DurationsUs(const char* name) const {
  std::vector<double> out;
  const std::string wanted(name);
  for (const Span& span : spans_) {
    if (wanted == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1000.0);
    }
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) {
    return false;
  }
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buffer[384];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // One track per run; nesting on a track comes from the timestamps, and
    // the explicit parent index rides along in args.
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                  "\"run\":%d,\"arg\":%lld}}",
                  i == 0 ? "" : ",", span.name, span.run,
                  static_cast<double>(span.start_ns) / 1000.0,
                  static_cast<double>(span.end_ns - span.start_ns) / 1000.0, i,
                  span.parent, span.run, static_cast<long long>(span.arg));
    out << buffer;
  }
  out << "\n]}\n";
  return out.good();
}

}  // namespace gfair::perfbench
