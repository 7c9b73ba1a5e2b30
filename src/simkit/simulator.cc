#include "simkit/simulator.h"

#include <memory>
#include <utility>

namespace gfair::simkit {

EventId Simulator::At(SimTime when, EventCallback callback) {
  GFAIR_CHECK_MSG(when >= now_, "cannot schedule events in the past");
  return queue_.Push(when, std::move(callback));
}

EventId Simulator::After(SimDuration delay, EventCallback callback) {
  GFAIR_CHECK(delay >= 0);
  return At(now_ + delay, std::move(callback));
}

EventId Simulator::Every(SimDuration period, std::function<void()> callback) {
  GFAIR_CHECK(period > 0);
  // Each firing reschedules itself under a fresh event id; the chain cell
  // records that live id on every re-push so Cancel() — keyed by the first
  // id, the caller's stable handle — can remove the pending event from the
  // queue. The cancelled flag additionally guards the (re-entrant) case
  // where the chain is cancelled from inside its own callback.
  auto chain = std::make_shared<RepeatingChain>();
  chain->period = period;
  chain->callback = std::move(callback);
  PushFiring(chain);
  repeating_chains_.emplace_back(chain->live, chain);
  return chain->live;
}

void Simulator::PushFiring(std::shared_ptr<RepeatingChain> chain) {
  RepeatingChain& cell = *chain;
  cell.live = queue_.Push(now_ + cell.period, [this, chain = std::move(chain)]() {
    if (chain->cancelled) {
      return;
    }
    chain->callback();
    if (!chain->cancelled) {
      PushFiring(chain);
    }
  });
}

bool Simulator::Cancel(EventId id) {
  for (auto it = repeating_chains_.begin(); it != repeating_chains_.end(); ++it) {
    if (it->first == id) {
      it->second->cancelled = true;
      // The live id is the chain's current pending event — the original
      // handle only until the first firing, a fresh id afterwards.
      queue_.Cancel(it->second->live);
      repeating_chains_.erase(it);
      return true;
    }
  }
  return queue_.Cancel(id);
}

size_t Simulator::RunUntil(SimTime deadline) {
  stop_requested_ = false;
  size_t processed = 0;
  while (!queue_.empty() && !stop_requested_) {
    const SimTime next = queue_.NextTime();
    if (next > deadline) {
      break;
    }
    auto event = queue_.Pop();
    GFAIR_CHECK(event.time >= now_);
    now_ = event.time;
    event.callback();
    ++processed;
    ++events_processed_;
  }
  if (queue_.empty() || queue_.NextTime() > deadline) {
    if (deadline != kTimeNever && deadline > now_) {
      now_ = deadline;
    }
  }
  return processed;
}

}  // namespace gfair::simkit
