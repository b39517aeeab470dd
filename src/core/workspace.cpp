#include "core/workspace.hpp"

#include <algorithm>

#include "support/contracts.hpp"

namespace msptrsv::core {

/// No cap by default: a value above any plausible parties_ behaves as
/// "unlimited" without a branch on a sentinel.
thread_local int ScopedGangCap::cap_ = 1 << 20;

SolveWorkspace::SolveWorkspace(int parties, SharedWorkerPool* shared,
                               PoolOptions options)
    : parties_(parties), shared_(shared), options_(options),
      barrier_(parties) {
  MSPTRSV_REQUIRE(parties >= 1, "workspaces need at least one thread");
  if (shared_ != nullptr) {
    // A gang is the caller plus claimed shared workers: the cap cannot
    // usefully exceed the whole shared pool plus the caller.
    parties_ = std::min(parties_, shared_->threads() + 1);
  }
}

std::atomic<std::uint64_t>* SolveWorkspace::delivered(index_t n) {
  const std::size_t need = static_cast<std::size_t>(n);
  if (need > delivered_capacity_) {
    MSPTRSV_REQUIRE(delivered_capacity_ == 0,
                    "a workspace serves one plan: n cannot grow");
    delivered_ = std::make_unique<std::atomic<std::uint64_t>[]>(need);
    for (std::size_t i = 0; i < need; ++i) {
      delivered_[i].store(0, std::memory_order_relaxed);
    }
    delivered_capacity_ = need;
  }
  return delivered_.get();
}

WorkspacePool::WorkspacePool(int parties_per_workspace,
                             SharedWorkerPool* shared, PoolOptions options)
    : parties_(parties_per_workspace), shared_(shared), options_(options) {
  MSPTRSV_REQUIRE(parties_ >= 1, "workspaces need at least one thread");
}

WorkspacePool::Lease WorkspacePool::acquire() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (idle_.empty()) {
    all_.push_back(
        std::make_unique<SolveWorkspace>(parties_, shared_, options_));
    idle_.push_back(all_.back().get());
  }
  SolveWorkspace* ws = idle_.back();
  idle_.pop_back();
  return Lease(this, ws);
}

std::size_t WorkspacePool::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return all_.size();
}

std::size_t WorkspacePool::owned_threads() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& ws : all_) {
    if (ws->owns_threads()) {
      count += static_cast<std::size_t>(ws->threads() - 1);
    }
  }
  return count;
}

void WorkspacePool::release(SolveWorkspace* ws) {
  std::lock_guard<std::mutex> lock(mutex_);
  idle_.push_back(ws);
}

}  // namespace msptrsv::core
