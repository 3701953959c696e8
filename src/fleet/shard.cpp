#include "fleet/shard.hpp"

#include <algorithm>
#include <stdexcept>

#include "web/object.hpp"
#include "web/page.hpp"

namespace parcel::fleet {

SharedObjectStore::Stats ShardedFleetStats::l1_total() const {
  SharedObjectStore::Stats t;
  for (const SharedObjectStore::Stats& s : l1) {
    t.hits += s.hits;
    t.misses += s.misses;
    t.evictions += s.evictions;
    t.bytes_saved += s.bytes_saved;
    t.bytes_stored += s.bytes_stored;
  }
  return t;
}

ShardedFleet::ShardedFleet(sim::Scheduler& sched, const FleetConfig& config,
                           const ShardSnapshot* start)
    : sched_(sched),
      config_(config),
      router_(config.shards, config.route_salt),
      l2_(start != nullptr ? start->l2.fork_contents()
                           : SharedObjectStore(config.l2_capacity)),
      l2_enabled_(config.shards > 1) {
  if (start != nullptr &&
      start->l1.size() != static_cast<std::size_t>(config.shards)) {
    throw std::invalid_argument(
        "ShardedFleet: starting snapshot has " +
        std::to_string(start->l1.size()) + " L1 tiers for " +
        std::to_string(config.shards) + " shards");
  }
  const sim::FaultPlan* blackouts = config.base.testbed.faults.enabled()
                                        ? &config.base.testbed.faults
                                        : nullptr;
  nodes_.reserve(static_cast<std::size_t>(config.shards));
  for (int s = 0; s < config.shards; ++s) {
    SharedObjectStore l1 =
        start != nullptr ? start->l1[static_cast<std::size_t>(s)].fork_contents()
                         : SharedObjectStore(config.store_capacity);
    // ProxyCompute holds the scheduler by reference, so nodes live behind
    // unique_ptr (the vector must never relocate a pool).
    nodes_.push_back(std::make_unique<ProxyShard>(s, sched, config.compute,
                                                  std::move(l1), blackouts));
  }
  if (config.shard_faults.proxy_crash_at.has_value()) {
    victim_ = crash_victim(config);
    crash_sec_ = config.shard_faults.proxy_crash_at->sec();
  }
}

int ShardedFleet::crash_victim(const FleetConfig& config) {
  // Pure function of (fault seed, shard count): the victim is decided
  // before the run starts, never by run state, so every --jobs value and
  // rerun kills the same shard.
  return static_cast<int>(ShardRouter::mix(config.shard_faults.seed ^
                                           0x5eedULL) %
                          static_cast<std::uint64_t>(config.shards));
}

void ShardedFleet::run(const std::vector<const web::WebPage*>& corpus,
                       const MacroColumns& cols, MacroOut& out) {
  const std::size_t n = cols.arrival_sec.size();
  shard_of_.assign(n, -1);
  outstanding_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    sched_.schedule_at(util::TimePoint::at_seconds(cols.arrival_sec[i]),
                       [this, &corpus, &cols, i, &out] {
                         on_arrival(corpus, cols, i, out);
                       });
  }
  // Fault events are scheduled after every arrival, so an arrival at the
  // exact crash instant still routes to the full fleet (FIFO tie-break) —
  // and is then immediately migrated off the corpse. One fixed rule.
  if (victim_ >= 0) {
    sched_.schedule_at(*config_.shard_faults.proxy_crash_at,
                       [this, &corpus, &cols, &out] {
                         on_crash(corpus, cols, out);
                       });
    if (config_.shard_faults.proxy_restart_after.has_value()) {
      sched_.schedule_at(*config_.shard_faults.proxy_crash_at +
                             *config_.shard_faults.proxy_restart_after,
                         [this] {
                           // Rejoin with a cold L1: clear() already ran at
                           // crash time and nothing repopulates it while
                           // the shard is out of the routing front.
                           nodes_[static_cast<std::size_t>(victim_)]
                               ->compute.restart();
                           router_.set_alive(victim_, true);
                         });
    }
  }
  sched_.run();
  if (crashed_) {
    for (std::size_t i = 0; i < n; ++i) {
      if (out.handoffs[i] != 0 && out.shed[i] == 0) {
        out.recovery_sec[i] = std::max(0.0, out.done_sec[i] - crash_sec_);
      }
    }
  }
}

void ShardedFleet::on_arrival(const std::vector<const web::WebPage*>& corpus,
                              const MacroColumns& cols, std::size_t i,
                              MacroOut& out) {
  const web::WebPage& page = *corpus[cols.page_index[i]];
  const int client = static_cast<int>(cols.base + i);
  int s = router_.route(ShardRouter::client_key(client));
  ProxyShard& node = *nodes_[static_cast<std::size_t>(s)];

  // Admission control: size the whole batch against both tiers first (a
  // client is either served or refused, never half-queued). An L1 hit is
  // free; an L2 hit costs one backplane transfer; a full miss costs the
  // origin fetch plus, for text bodies, a parse/scan. Bundle assembly is
  // always the client's own work.
  std::size_t batch = 1;
  util::Duration batch_cost =
      node.compute.cost_of(TaskKind::kBundle, page.total_bytes());
  for (const web::WebObject* object : page.objects()) {
    if (node.l1.contains(*object)) continue;
    if (l2_enabled_ && l2_.contains(*object)) {
      batch += 1;
      batch_cost += node.compute.cost_of(TaskKind::kTransfer, object->size);
      continue;
    }
    batch += web::is_parseable(object->type) ? 2u : 1u;
    batch_cost += node.compute.cost_of(TaskKind::kFetch, object->size);
    if (web::is_parseable(object->type)) {
      batch_cost += node.compute.cost_of(TaskKind::kParse, object->size);
    }
  }
  if (!node.compute.can_accept(batch, batch_cost)) {
    out.shed[i] = 1;
    return;
  }
  shard_of_[i] = s;
  submit_batch(i, s, page, client, out, /*redo=*/false);
}

void ShardedFleet::submit_batch(std::size_t i, int s, const web::WebPage& page,
                                int client, MacroOut& out, bool redo) {
  ProxyShard& node = *nodes_[static_cast<std::size_t>(s)];
  auto on_done = [this, &out, i](util::TimePoint finished,
                                 util::Duration waited) {
    out.max_wait_sec[i] = std::max(out.max_wait_sec[i], waited.sec());
    out.done_sec[i] = std::max(out.done_sec[i], finished.sec());
    --outstanding_[i];
  };
  auto submit = [&](TaskKind kind, util::Bytes bytes) {
    if (redo) {
      double sec = node.compute.cost_of(kind, bytes).sec();
      out.redo_sec[i] += sec;
      redo_sec_total_ += sec;
      // "Bytes moved twice": origin refetches and backplane transfers both
      // re-move payload; re-bundling and re-parsing are CPU, not bytes.
      if (kind == TaskKind::kFetch || kind == TaskKind::kTransfer) {
        out.redo_bytes[i] += static_cast<std::int64_t>(bytes);
        redo_bytes_total_ += bytes;
      }
    }
    ++outstanding_[i];
    node.compute.submit(client, /*weight=*/1.0, kind, bytes, on_done);
  };
  for (const web::WebObject* object : page.objects()) {
    SharedObjectStore::Outcome o1 = node.l1.request(*object);
    if (o1.hit) continue;  // this shard already holds the artifact
    if (l2_enabled_) {
      SharedObjectStore::Outcome o2 = l2_.request(*object);
      if (o2.hit) {
        // A sibling already published it: pull over the backplane instead
        // of re-fetching (and re-parsing) from origin.
        submit(TaskKind::kTransfer, object->size);
        continue;
      }
    }
    submit(TaskKind::kFetch, object->size);
    if (web::is_parseable(object->type)) {
      submit(TaskKind::kParse, object->size);
    }
  }
  submit(TaskKind::kBundle, page.total_bytes());
}

void ShardedFleet::on_crash(const std::vector<const web::WebPage*>& corpus,
                            const MacroColumns& cols, MacroOut& out) {
  crashed_ = true;
  ProxyShard& victim = *nodes_[static_cast<std::size_t>(victim_)];
  crash_killed_ += victim.compute.crash();
  victim.l1.clear();  // the process died; its cache died with it
  router_.set_alive(victim_, false);
  // Migrate every session the victim had not finished, in ascending index
  // order (a fixed rule — the order sessions were admitted). outstanding_
  // counts completions the generation bump just voided, so > 0 means the
  // session's proxy work is not done. Migration resubmits the session's
  // whole batch on the rendezvous front's new choice and bypasses
  // admission: the tier owes these sessions service (they were admitted
  // once); survivors absorb the redo load.
  const std::size_t n = shard_of_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (shard_of_[i] != victim_ || outstanding_[i] <= 0) continue;
    outstanding_[i] = 0;  // every pending completion was voided
    const web::WebPage& page = *corpus[cols.page_index[i]];
    const int client = static_cast<int>(cols.base + i);
    int target = router_.route(ShardRouter::client_key(client));
    shard_of_[i] = target;
    ++out.handoffs[i];
    ++crash_handoffs_;
    submit_batch(i, target, page, client, out, /*redo=*/true);
  }
}

ShardedFleetStats ShardedFleet::stats() const {
  ShardedFleetStats st;
  st.l1.reserve(nodes_.size());
  for (const std::unique_ptr<ProxyShard>& node : nodes_) {
    st.l1.push_back(node->l1.stats());
    const ProxyCompute::Stats& c = node->compute.stats();
    st.compute.completed += c.completed;
    st.compute.fetch_busy_sec += c.fetch_busy_sec;
    st.compute.parse_busy_sec += c.parse_busy_sec;
    st.compute.bundle_busy_sec += c.bundle_busy_sec;
    st.compute.transfer_busy_sec += c.transfer_busy_sec;
    st.compute.crash_killed += c.crash_killed;
    st.compute.last_finish = std::max(st.compute.last_finish, c.last_finish);
  }
  st.l2 = l2_.stats();
  st.crash_handoffs = crash_handoffs_;
  st.crash_killed_tasks = crash_killed_;
  st.redo_sec_total = redo_sec_total_;
  st.redo_bytes_total = redo_bytes_total_;
  return st;
}

ShardSnapshot ShardedFleet::snapshot() const {
  ShardSnapshot snap;
  snap.l1.reserve(nodes_.size());
  for (const std::unique_ptr<ProxyShard>& node : nodes_) {
    snap.l1.push_back(node->l1.fork_contents());
  }
  snap.l2 = l2_.fork_contents();
  return snap;
}

bool ShardedFleet::snapshot_equal(const ShardSnapshot& other) const {
  if (other.l1.size() != nodes_.size()) return false;
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    if (!nodes_[s]->l1.contents_equal(other.l1[s])) return false;
  }
  return l2_.contents_equal(other.l2);
}

ShardSnapshot make_cold_snapshot(const FleetConfig& config) {
  ShardSnapshot snap;
  snap.l1.reserve(static_cast<std::size_t>(config.shards));
  for (int s = 0; s < config.shards; ++s) {
    snap.l1.emplace_back(config.store_capacity);
  }
  snap.l2 = SharedObjectStore(config.l2_capacity);
  return snap;
}

void replay_store_requests(const std::vector<const web::WebPage*>& corpus,
                           const ClientColumns& cols, std::size_t begin,
                           std::size_t end, const FleetConfig& config,
                           ShardSnapshot& snap) {
  // Must mirror submit_batch's request order exactly: arrivals fire in
  // index order (sorted times, FIFO tie-break), each requesting L1 then —
  // only on a miss, only when sharded — the L2. Valid exactly when no
  // shedding and no crash can occur (plan_epochs degrades otherwise).
  ShardRouter router(config.shards, config.route_salt);
  const bool l2_on = config.shards > 1;
  for (std::size_t i = begin; i < end; ++i) {
    int s = router.route(ShardRouter::client_key(static_cast<int>(i)));
    SharedObjectStore& l1 = snap.l1[static_cast<std::size_t>(s)];
    for (const web::WebObject* object : corpus[cols.page_index[i]]->objects()) {
      if (l1.request(*object).hit) continue;
      if (l2_on) snap.l2.request(*object);
    }
  }
}

}  // namespace parcel::fleet
