// Streaming statistics: Welford accumulator and a percentile sampler.
#ifndef GFAIR_COMMON_STATS_H_
#define GFAIR_COMMON_STATS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace gfair {

// Numerically stable running mean/variance (Welford's algorithm).
class RunningStats {
 public:
  // Inline: a per-sample update meant for hot loops.
  void Add(double x) {
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
  }

  size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  void Reset() { *this = RunningStats(); }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Stores all samples; answers exact percentiles. Fine for experiment-scale
// sample counts (<= millions).
class PercentileSampler {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  size_t count() const { return samples_.size(); }

  // p in [0, 100]. Linear interpolation between closest ranks. Returns 0 when
  // empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  double Mean() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Fairness metric helpers over a vector of per-entity allocations.

// Jain's fairness index: (Σx)^2 / (n Σx^2). 1.0 is perfectly fair; 1/n is
// maximally unfair. Returns 1.0 for empty or all-zero input.
double JainIndex(const std::vector<double>& values);

// max_i |x_i - fair_i| / fair_i given an ideal per-entity share vector.
double MaxRelativeDeviation(const std::vector<double>& actual,
                            const std::vector<double>& ideal);

}  // namespace gfair

#endif  // GFAIR_COMMON_STATS_H_
