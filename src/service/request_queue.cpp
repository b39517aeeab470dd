#include "service/request_queue.hpp"

#include <algorithm>

namespace msptrsv::service {

namespace {

/// Selection weights of the weighted-wait rule: the dispatcher takes the
/// group with the largest (head wait) * weight. Higher classes win while
/// waits are comparable; a lower class wins once it has waited the weight
/// ratio longer -- bounded delay in both directions, so neither a
/// background flood nor a high-priority stream can starve the other
/// indefinitely (the aging bound the starvation test pins down).
constexpr double kClassWeight[kNumPriorities] = {16.0, 4.0, 1.0};

std::size_t class_of(Priority p) { return static_cast<std::size_t>(p); }

}  // namespace

RequestQueue::RequestQueue(QueueOptions options) : opt_([&] {
  QueueOptions o = options;
  o.max_width = std::max<index_t>(1, o.max_width);
  o.pack_max_groups = std::max<std::size_t>(1, o.pack_max_groups);
  o.pack_narrow_width = std::max<index_t>(1, o.pack_narrow_width);
  return o;
}()) {}

bool RequestQueue::push(SolveRequest r) {
  const index_t k = r.num_rhs;
  const std::size_t cls = class_of(r.priority);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return false;
    Group& g = groups_[r.plan.state_id()];
    // A more urgent rider promotes the whole group (it dispatches with it
    // anyway).
    g.priority = g.requests.empty() ? r.priority
                                    : std::min(g.priority, r.priority);
    g.width += k;
    g.requests.push_back(std::move(r));
    pending_rhs_ += static_cast<std::size_t>(k);
    pending_by_class_[cls] += static_cast<std::size_t>(k);
  }
  cv_.notify_one();
  return true;
}

bool RequestQueue::packable_locked(const Group& g) const {
  return g.requests.front().plan.rows() <= opt_.pack_small_rows &&
         g.width <= opt_.pack_narrow_width;
}

std::vector<SolveRequest> RequestQueue::take_locked(const void* id, Group& g,
                                                    index_t width_cap) {
  std::vector<SolveRequest> out;
  index_t width = 0;
  // Whole requests only: a multi-rhs submit is one client's batch and is
  // never split across dispatches. The first request always goes (even
  // when wider than the cap on its own).
  while (!g.requests.empty() &&
         (out.empty() || width + g.requests.front().num_rhs <= width_cap)) {
    width += g.requests.front().num_rhs;
    out.push_back(std::move(g.requests.front()));
    g.requests.pop_front();
  }
  g.width -= width;
  pending_rhs_ -= static_cast<std::size_t>(width);
  for (const SolveRequest& r : out) {
    pending_by_class_[class_of(r.priority)] -=
        static_cast<std::size_t>(r.num_rhs);
  }
  if (g.requests.empty()) {
    groups_.erase(id);
  } else {
    // The popped head may have carried the promotion.
    g.priority = Priority::kBackground;
    for (const SolveRequest& r : g.requests) {
      g.priority = std::min(g.priority, r.priority);
    }
  }
  return out;
}

bool RequestQueue::wait_for_work() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return !groups_.empty() || stopping_; });
  return !groups_.empty();
}

PoppedDispatch RequestQueue::pop_dispatch() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return !groups_.empty() || stopping_; });
  if (groups_.empty()) return {};  // drained: the dispatcher's exit signal

  const Clock::time_point now = Clock::now();
  const void* best = nullptr;
  double best_score = -1.0;
  for (const auto& [id, g] : groups_) {
    const double wait_us = std::chrono::duration<double, std::micro>(
                               now - g.requests.front().submitted)
                               .count();
    // +1us floor so a fresh high group still outranks a fresh background
    // one at (near) zero wait.
    const double score = (wait_us + 1.0) * kClassWeight[class_of(g.priority)];
    if (score > best_score) {
      best_score = score;
      best = id;
    }
  }
  PoppedDispatch out;
  Group& g = groups_.find(best)->second;
  const bool pack = opt_.pack_max_groups > 1 && packable_locked(g);
  out.groups.push_back(take_locked(best, g, opt_.max_width));
  if (pack) {
    // The winner is a small tenant: carry other small tenants in the same
    // dispatch (ids first -- take_locked erases map entries).
    std::vector<const void*> riders;
    for (const auto& [id, og] : groups_) {
      if (out.groups.size() + riders.size() >= opt_.pack_max_groups) break;
      if (id == best) continue;  // best survives only on a partial pop
      if (packable_locked(og)) riders.push_back(id);
    }
    for (const void* id : riders) {
      Group& og = groups_.find(id)->second;
      out.groups.push_back(take_locked(id, og, opt_.pack_narrow_width));
    }
  }
  return out;
}

void RequestQueue::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
}

std::size_t RequestQueue::depth_rhs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_rhs_;
}

std::size_t RequestQueue::depth_rhs(Priority p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_by_class_[class_of(p)];
}

}  // namespace msptrsv::service
