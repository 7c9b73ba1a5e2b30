#include "sched/cluster_state_index.h"

#include <limits>

#include "common/check.h"

namespace gfair::sched {

ClusterStateIndex::ClusterStateIndex(const cluster::Cluster& cluster,
                                     const StrideConfig& stride_config)
    : cluster_(cluster) {
  const size_t n = static_cast<size_t>(cluster.num_servers());
  strides_.reserve(n);
  load_key_.assign(n, 0.0);
  pos_dirty_.assign(n, false);
  dirty_list_.reserve(n);
  draining_.assign(n, false);
  down_.assign(n, false);
  plan_dirty_.assign(n, 1);  // every server must be planned on the first tick
  for (const auto& server : cluster.servers()) {
    strides_.emplace_back(server.num_gpus(), stride_config, &slots_);
    pools_by_load_[cluster::GenerationIndex(server.generation())].emplace(0.0,
                                                                          server.id());
  }
}

double ClusterStateIndex::NormTicketLoad(ServerId server) const {
  // Unwrap at the ordering-key boundary: the pool sets are keyed by double.
  return (stride(server).TicketLoad() /
          static_cast<double>(cluster_.server(server).num_gpus())).raw();  // gfair-lint: allow(unit-unwrap-outside-boundary)
}

void ClusterStateIndex::MarkDirty(ServerId server) {
  const size_t s = server.value();
  if (!pos_dirty_[s]) {
    pos_dirty_[s] = true;
    dirty_list_.push_back(server);
  }
}

void ClusterStateIndex::Flush() const {
  for (ServerId server : dirty_list_) {
    Reposition(server);
    pos_dirty_[server.value()] = false;
  }
  dirty_list_.clear();
}

void ClusterStateIndex::Reposition(ServerId server) const {
  const size_t s = server.value();
  const double key = NormTicketLoad(server);
  if (key == load_key_[s]) {
    return;
  }
  auto& pool = pools_by_load_[cluster::GenerationIndex(cluster_.server(server).generation())];
  const size_t erased = pool.erase({load_key_[s], server});
  GFAIR_CHECK_MSG(erased == 1, "server missing from its pool ordering");
  load_key_[s] = key;
  pool.emplace(key, server);
}

void ClusterStateIndex::AddJob(ServerId server, JobId id, int gang_size, Tickets tickets,
                               CurrencyId currency, CurrencyShare share) {
  stride(server).AddJob(id, gang_size, tickets, currency, share);
  MarkDirty(server);
  MarkPlanDirty(server);
  if (!currency.valid()) {
    return;
  }
  if (currency.value() >= currency_hosts_.size()) {
    currency_hosts_.resize(currency.value() + 1);
  }
  std::vector<CurrencyHost>& hosts = currency_hosts_[currency.value()];
  for (CurrencyHost& host : hosts) {
    if (host.server == server) {
      ++host.holders;
      return;
    }
  }
  hosts.push_back(CurrencyHost{server, 1});
}

void ClusterStateIndex::RemoveJob(ServerId server, JobId id) {
  const CurrencyId currency = stride(server).CurrencyOfJob(id);
  stride(server).RemoveJob(id);
  MarkDirty(server);
  MarkPlanDirty(server);
  if (!currency.valid()) {
    return;
  }
  std::vector<CurrencyHost>& hosts = currency_hosts_[currency.value()];
  for (CurrencyHost& host : hosts) {
    if (host.server == server) {
      if (--host.holders == 0) {
        // Host order is immaterial: re-rating a server touches only its own
        // entries, and the dirty marks it leaves are a set.
        host = hosts.back();
        hosts.pop_back();
      }
      return;
    }
  }
  GFAIR_CHECK_MSG(false, "currency holder missing from its host list");
}

void ClusterStateIndex::RerateCurrency(CurrencyId currency, Tickets pool_tickets,
                                       CurrencyDemand demand) {
  for (const CurrencyHost& host : currency_hosts(currency)) {
    stride(host.server).RerateCurrency(currency, pool_tickets, demand);
    MarkDirty(host.server);
    MarkPlanDirty(host.server);
  }
}

const std::vector<ClusterStateIndex::CurrencyHost>& ClusterStateIndex::currency_hosts(
    CurrencyId currency) const {
  static const std::vector<CurrencyHost> kNone;
  return currency.valid() && currency.value() < currency_hosts_.size()
             ? currency_hosts_[currency.value()]
             : kNone;
}

void ClusterStateIndex::SetRunnable(ServerId server, JobId id, bool runnable) {
  stride(server).SetRunnable(id, runnable);
  MarkDirty(server);
  MarkPlanDirty(server);
}

void ClusterStateIndex::SetDraining(ServerId server, bool draining) {
  GFAIR_CHECK(server.valid() && server.value() < draining_.size());
  if (draining_[server.value()] != draining) {
    num_draining_ += draining ? 1 : -1;
  }
  draining_[server.value()] = draining;
}

void ClusterStateIndex::SetDown(ServerId server, bool down) {
  GFAIR_CHECK(server.valid() && server.value() < down_.size());
  if (down_[server.value()] != down) {
    num_down_ += down ? 1 : -1;
    MarkPlanDirty(server);
  }
  down_[server.value()] = down;
}

ServerId ClusterStateIndex::LeastLoadedServer(cluster::GpuGeneration gen, int min_gpus,
                                              ServerId exclude) const {
  Flush();
#ifndef NDEBUG
  // The ordered set must agree with a from-scratch linear scan ("first
  // strictly smaller load wins", the pre-index selection rule).
  ServerId scan_best = ServerId::Invalid();
  double scan_load = std::numeric_limits<double>::infinity();
  for (ServerId sid : cluster_.servers_of(gen)) {
    if (sid == exclude || draining_[sid.value()] || down_[sid.value()] ||
        cluster_.server(sid).num_gpus() < min_gpus) {
      continue;
    }
    const double load = NormTicketLoad(sid);
    if (load < scan_load) {
      scan_load = load;
      scan_best = sid;
    }
  }
#endif
  ServerId best = ServerId::Invalid();
  for (const auto& [load, sid] : pools_by_load_[cluster::GenerationIndex(gen)]) {
    if (sid == exclude || draining_[sid.value()] || down_[sid.value()] ||
        cluster_.server(sid).num_gpus() < min_gpus) {
      continue;
    }
    best = sid;
    break;
  }
  GFAIR_DCHECK_MSG(best == scan_best,
                   "pool ordering disagrees with linear least-loaded scan");
  return best;
}

}  // namespace gfair::sched
