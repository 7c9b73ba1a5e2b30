// Ticket currencies — how a user's pool tickets are split across its jobs.
//
// Waldspurger's lottery/stride scheduling denominates tickets in currencies;
// the paper's split stride design is one currency per (user, GPU pool). Each
// of the user's jobs resident in the pool holds a fixed share of that
// currency, gang x weight, and the job's tickets are its share valued at the
// currency's current exchange rate:
//
//     tickets = pool_tickets * share / max(pool_demand, share)
//
// where pool_demand is the sum of the currency's issued shares (the max keeps
// a job's tickets at most the pool's). An arrival or departure changes only
// pool_demand, so re-rating the currency's holders is the whole ticket
// refresh; shares never change while a job is resident.
//
// Issued shares are summed exactly: each share counts as an integer number of
// 2^-32 units, so the pool demand is an integer add/subtract per residency
// change — O(1), independent of arrival order, never re-summed. For dyadic
// weights (1, 0.5, 2, ...) the units are exact and the demand equals the
// plain floating-point sum bit for bit; a non-dyadic weight such as 0.3
// rounds its share to the 2^-32 grid inside the demand only.
#ifndef GFAIR_SCHED_CURRENCY_H_
#define GFAIR_SCHED_CURRENCY_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "cluster/gpu.h"
#include "common/types.h"
#include "common/units.h"

namespace gfair::sched {

struct CurrencyIdTag {};
// Dense id of a (user, pool) currency: user x kNumGenerations + pool.
using CurrencyId = StrongId<CurrencyIdTag>;

inline CurrencyId CurrencyOf(UserId user, cluster::GpuGeneration gen) {
  return CurrencyId(user.value() * static_cast<uint32_t>(cluster::kNumGenerations) +
                    static_cast<uint32_t>(cluster::GenerationIndex(gen)));
}

// Fixed-point units per share (2^32; see file comment).
inline constexpr double kCurrencyUnitsPerShare = 4294967296.0;

class CurrencyDemand;

// A job's holding in its currency: gang size x job weight.
class CurrencyShare {
 public:
  constexpr CurrencyShare() = default;
  static constexpr CurrencyShare Of(int gang_size, double weight) {
    return CurrencyShare(gang_size * weight);
  }

  int64_t units() const {
    return static_cast<int64_t>(std::llround(v_ * kCurrencyUnitsPerShare));
  }

 private:
  friend Tickets Exchange(Tickets pool_tickets, CurrencyShare share, CurrencyDemand demand);

  constexpr explicit CurrencyShare(double v) : v_(v) {}
  double v_ = 0.0;
};

// The sum of a currency's issued shares, held exactly in share units.
class CurrencyDemand {
 public:
  void Issue(CurrencyShare share) { units_ += share.units(); }
  void Retire(CurrencyShare share) { units_ -= share.units(); }

  int64_t units() const { return units_; }
  // Converted at read time; exact below 2^53 units (2^21 GPUs of demand).
  double value() const { return static_cast<double>(units_) / kCurrencyUnitsPerShare; }

 private:
  int64_t units_ = 0;
};

// A share's tickets at the currency's current rate — the one place the
// per-job ticket expression is evaluated, in its historical order.
inline Tickets Exchange(Tickets pool_tickets, CurrencyShare share, CurrencyDemand demand) {
  return pool_tickets * share.v_ / std::max(demand.value(), share.v_);
}

}  // namespace gfair::sched

#endif  // GFAIR_SCHED_CURRENCY_H_
