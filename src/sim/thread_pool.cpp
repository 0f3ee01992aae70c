#include "sim/thread_pool.hpp"

#include <algorithm>

// Batch protocol: parallel_for publishes (fn, count) under the mutex, opens
// the batch and bumps the generation. A worker may only enter the CURRENT,
// OPEN batch (mutex-gated), registering in `active_`; it then claims
// indices from the lock-free ticket counter until they run out, and
// deregisters under the mutex. The caller participates too, then waits for
// executed_ == count && active_ == 0 before closing the batch -- so no
// thread can ever touch a finished batch's ticket counter or its caller-
// owned function object (the bug ThreadSanitizer catches immediately if
// entry is gated on the generation alone: a straggler waking after the
// barrier would claim tickets of the NEXT batch and run a dead stack's fn).
//
// Spinning changes only when a thread takes the mutex, never what it
// decides under it: a worker spins until open_generation_ names a batch it
// has not entered, the caller until batch_done_ is set, and each then runs
// the same mutex-gated wait as before (which returns at once when its
// condition holds). A spin that runs out of time falls through to that
// wait and parks.

namespace sbp::sim {

namespace {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until ready() or until ThreadPool::kSpinNs have passed.
template <typename Ready>
void spin_until(Ready ready) {
  const std::uint64_t deadline = obs::now_ns() + ThreadPool::kSpinNs;
  while (!ready() && obs::now_ns() < deadline) cpu_relax();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t resident =
      std::max<std::size_t>(1, num_threads) - 1;  // caller is thread #0
  workers_.reserve(resident);
  for (std::size_t i = 0; i < resident; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

void ThreadPool::set_obs(obs::PoolObs* obs) {
  const std::lock_guard<std::mutex> lock(mutex_);
  obs_ = obs;
  if (obs_ != nullptr) {
    obs_->workers.assign(size(), {});
    slots_.assign(size(), {});
  } else {
    slots_.clear();
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t ThreadPool::run_claim_loop(
    const std::function<void(std::size_t)>& fn, std::size_t count) {
  std::size_t executed = 0;
  while (true) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) break;
    fn(i);
    ++executed;
  }
  return executed;
}

void ThreadPool::worker_loop(std::size_t slot) {
  std::uint64_t seen_generation = 0;
  while (true) {
    spin_until([&] {
      const std::uint64_t open = open_generation_.load();
      return (open != 0 && open != seen_generation) || stop_;
    });
    std::unique_lock<std::mutex> lock(mutex_);
    work_cv_.wait(lock, [&] {
      return stop_ || (generation_ != seen_generation && batch_open_);
    });
    if (stop_) return;
    seen_generation = generation_;
    ++active_;
    batch_done_.store(false);
    const auto* fn = fn_;
    const std::size_t count = count_;
    // Timing reads happen under the mutex (publish_ns_) or on thread-local
    // values; the slot write below is mutex-guarded, so instrumentation
    // introduces no new sharing for TSan to object to.
    const bool timed = obs_ != nullptr;
    const std::uint64_t entry_ns = timed ? obs::now_ns() : 0;
    const std::uint64_t dispatch_ns = timed ? entry_ns - publish_ns_ : 0;
    lock.unlock();

    const std::size_t executed = run_claim_loop(*fn, count);
    const std::uint64_t busy_ns = timed ? obs::now_ns() - entry_ns : 0;

    lock.lock();
    executed_ += executed;
    if (timed) {
      Slot& mine = slots_[slot];
      mine.dispatch_ns = dispatch_ns;
      mine.busy_ns = busy_ns;
      mine.executed = executed;
      mine.participated = true;
    }
    --active_;
    if (executed_ == count_ && active_ == 0) {
      batch_done_.store(true);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::fold_batch_locked(std::size_t count) {
  ++obs_->batches;
  obs_->tasks += count;
  std::uint64_t max_items = 0;
  std::uint64_t min_items = UINT64_MAX;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    // A thread that never woke in time executed 0 items; that counts
    // toward imbalance (the batch was over before it arrived).
    const std::uint64_t items = slot.participated ? slot.executed : 0;
    max_items = std::max(max_items, items);
    min_items = std::min(min_items, items);
    if (!slot.participated) continue;
    obs_->busy_ns.record(slot.busy_ns);
    if (i > 0) obs_->dispatch_ns.record(slot.dispatch_ns);
    obs::PoolObs::Worker& worker = obs_->workers[i];
    worker.busy_ns += slot.busy_ns;
    worker.executed += slot.executed;
    ++worker.batches;
  }
  obs_->imbalance_items.record(max_items - min_items);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty()) {  // size-1 pool: plain sequential loop
    const bool timed = obs_ != nullptr;
    const std::uint64_t t0 = timed ? obs::now_ns() : 0;
    for (std::size_t i = 0; i < count; ++i) fn(i);
    if (timed) {
      const std::uint64_t busy_ns = obs::now_ns() - t0;
      const std::lock_guard<std::mutex> lock(mutex_);
      slots_[0] = Slot{.busy_ns = busy_ns, .executed = count,
                       .participated = true};
      fold_batch_locked(count);
    }
    return;
  }

  bool timed = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    count_ = count;
    executed_ = 0;
    next_.store(0, std::memory_order_relaxed);
    timed = obs_ != nullptr;
    if (timed) {
      for (Slot& slot : slots_) slot = Slot{};
      publish_ns_ = obs::now_ns();
    }
    batch_open_ = true;
    ++generation_;
    batch_done_.store(false);
    open_generation_.store(generation_);
  }
  work_cv_.notify_all();

  // The caller is a compute thread too.
  const std::uint64_t t0 = timed ? obs::now_ns() : 0;
  const std::size_t executed = run_claim_loop(fn, count);
  const std::uint64_t caller_busy_ns = timed ? obs::now_ns() - t0 : 0;

  std::unique_lock<std::mutex> lock(mutex_);
  executed_ += executed;
  const auto done = [&] { return executed_ == count_ && active_ == 0; };
  if (!done()) {
    lock.unlock();
    spin_until([&] { return batch_done_.load(); });
    lock.lock();
    done_cv_.wait(lock, done);
  }
  batch_open_ = false;  // stragglers that never woke skip this batch
  open_generation_.store(0);
  fn_ = nullptr;
  if (timed) {
    // Every participant has deregistered (active_ == 0), so all slot
    // writes happened-before this fold under the same mutex.
    Slot& mine = slots_[0];
    mine.busy_ns = caller_busy_ns;
    mine.executed = executed;
    mine.participated = true;
    fold_batch_locked(count);
  }
}

}  // namespace sbp::sim
