#include "fleet/proxy_compute.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace parcel::fleet {

std::string_view to_string(TaskKind k) {
  switch (k) {
    case TaskKind::kFetch: return "fetch";
    case TaskKind::kParse: return "parse";
    case TaskKind::kBundle: return "bundle";
    case TaskKind::kTransfer: return "transfer";
  }
  return "?";
}

Duration TaskCosts::service_time(TaskKind kind, Bytes bytes) const {
  double b = static_cast<double>(bytes);
  switch (kind) {
    case TaskKind::kFetch:
      return fetch_base + (fetch_bytes_per_sec > 0.0
                               ? Duration::seconds(b / fetch_bytes_per_sec)
                               : Duration::zero());
    case TaskKind::kParse:
      return parse_base + (parse_bytes_per_sec > 0.0
                               ? Duration::seconds(b / parse_bytes_per_sec)
                               : Duration::zero());
    case TaskKind::kBundle:
      return bundle_base + (bundle_bytes_per_sec > 0.0
                                ? Duration::seconds(b / bundle_bytes_per_sec)
                                : Duration::zero());
    case TaskKind::kTransfer:
      return transfer_base +
             (transfer_bytes_per_sec > 0.0
                  ? Duration::seconds(b / transfer_bytes_per_sec)
                  : Duration::zero());
  }
  return Duration::zero();
}

TaskCosts TaskCosts::idle() {
  TaskCosts costs;
  costs.fetch_base = Duration::zero();
  costs.fetch_bytes_per_sec = 0.0;
  costs.parse_base = Duration::zero();
  costs.parse_bytes_per_sec = 0.0;
  costs.bundle_base = Duration::zero();
  costs.bundle_bytes_per_sec = 0.0;
  costs.transfer_base = Duration::zero();
  costs.transfer_bytes_per_sec = 0.0;
  return costs;
}

ProxyComputeConfig ProxyComputeConfig::idle() {
  ProxyComputeConfig cfg;
  cfg.workers = 1;
  cfg.max_queue = 0;
  cfg.costs = TaskCosts::idle();
  return cfg;
}

void ProxyComputeConfig::validate() const {
  if (workers < 1) {
    throw std::invalid_argument(
        "ProxyComputeConfig: workers must be >= 1, got " +
        std::to_string(workers));
  }
  if (costs.fetch_base < Duration::zero() ||
      costs.parse_base < Duration::zero() ||
      costs.bundle_base < Duration::zero() ||
      costs.transfer_base < Duration::zero()) {
    throw std::invalid_argument(
        "ProxyComputeConfig: base service costs must be >= 0");
  }
  if (costs.fetch_bytes_per_sec < 0.0 || costs.parse_bytes_per_sec < 0.0 ||
      costs.bundle_bytes_per_sec < 0.0 ||
      costs.transfer_bytes_per_sec < 0.0) {
    throw std::invalid_argument(
        "ProxyComputeConfig: byte rates must be >= 0 (0 disables the "
        "byte-proportional term)");
  }
  if (max_backlog < Duration::zero()) {
    throw std::invalid_argument(
        "ProxyComputeConfig: max_backlog must be >= 0 (zero disables it)");
  }
}

ProxyCompute::ProxyCompute(sim::Scheduler& sched, ProxyComputeConfig config,
                           const sim::FaultPlan* faults)
    : sched_(sched), config_(config), faults_(faults) {
  config_.validate();
  idle_workers_ = config_.workers;
}

bool ProxyCompute::can_accept(std::size_t tasks, Duration batch_cost) const {
  if (dead_) return false;  // a crashed shard serves nothing
  if (config_.max_queue != 0 &&
      queue_.size() + tasks > config_.max_queue) {
    return false;
  }
  if (!config_.max_backlog.is_zero() &&
      backlog_ + batch_cost > config_.max_backlog) {
    return false;
  }
  return true;
}

void ProxyCompute::submit(TaskKind kind, Bytes bytes, Done done) {
  Task task;
  task.kind = kind;
  task.cost = config_.costs.service_time(kind, bytes);
  task.submitted = sched_.now();
  task.done = std::move(done);
  backlog_ += task.cost;
  queue_.push_back(std::move(task));
  dispatch();
}

TimePoint ProxyCompute::defer_past_blackouts(TimePoint start) const {
  if (faults_ == nullptr) return start;
  // Windows may abut; walk until none contains the candidate start. The
  // vector is as the plan listed it (spec order), so this is deterministic.
  bool moved = true;
  while (moved) {
    moved = false;
    for (const sim::FaultWindow& w : faults_->blackouts) {
      if (w.contains(start)) {
        start = w.end();
        moved = true;
      }
    }
  }
  return start;
}

std::size_t ProxyCompute::crash() {
  std::size_t in_flight =
      static_cast<std::size_t>(config_.workers - idle_workers_);
  std::size_t killed = queue_.size() + in_flight;
  // Queued work dies here; in-flight work dies at its completion event,
  // which voids itself via the generation bump below.
  queue_.clear();
  backlog_ = Duration::zero();
  dead_ = true;
  ++generation_;
  idle_workers_ = 0;
  stats_.crash_killed += killed;
  return killed;
}

void ProxyCompute::restart() {
  dead_ = false;
  // Every pre-crash in-flight task was voided, so the full worker pool is
  // idle again; anything queued while dead dispatches now.
  idle_workers_ = config_.workers;
  dispatch();
}

void ProxyCompute::dispatch() {
  while (!dead_ && idle_workers_ > 0 && !queue_.empty()) {
    Task task = std::move(queue_.front());
    queue_.pop_front();
    backlog_ -= task.cost;
    --idle_workers_;
    TimePoint start = defer_past_blackouts(sched_.now());
    Duration waited = start - task.submitted;
    TimePoint finish = start + task.cost;
    double cost_sec = task.cost.sec();
    TaskKind kind = task.kind;
    // The completion event carries the task by value; the worker slot is
    // freed there, which may dispatch the next waiter. The captured
    // generation voids the event if the pool crashed after service began:
    // the work died with the process, so it contributes neither stats nor
    // its Done callback (crash() already reset the worker slots).
    sched_.schedule_at(finish, [this, finish, waited, cost_sec, kind,
                                gen = generation_,
                                done = std::move(task.done)]() mutable {
      if (gen != generation_) return;
      ++stats_.completed;
      stats_.last_finish = std::max(stats_.last_finish, finish);
      switch (kind) {
        case TaskKind::kFetch: stats_.fetch_busy_sec += cost_sec; break;
        case TaskKind::kParse: stats_.parse_busy_sec += cost_sec; break;
        case TaskKind::kBundle: stats_.bundle_busy_sec += cost_sec; break;
        case TaskKind::kTransfer: stats_.transfer_busy_sec += cost_sec; break;
      }
      ++idle_workers_;
      if (done) done(finish, waited);
      dispatch();
    });
  }
}

}  // namespace parcel::fleet
