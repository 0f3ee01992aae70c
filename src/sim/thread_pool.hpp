// A fixed-size worker pool for the parallel simulation runtime (src/sim).
//
// The engine's unit of parallelism is the shard (sim/config.hpp): shards
// share no mutable state during a tick, so any assignment of shards to
// threads produces the same per-shard results and the engine's canonical
// post-barrier merge makes the output bit-identical at every thread count.
// That freedom is what lets this pool hand out shard indices dynamically
// (atomic counter) instead of statically -- better load balance when shard
// work is skewed, with zero effect on determinism.
//
// A pool of size N runs work on N threads total: N-1 resident workers plus
// the calling thread, so size 1 spawns nothing and degenerates to a plain
// sequential loop -- exactly the pre-parallel engine behaviour.
//
// The engine opens one batch per tick, with a short serial phase between
// two batches. A worker that has finished a batch therefore spins for
// kSpinNs, watching an atomic mirror of the open batch, before it parks on
// the condition variable; the caller likewise spins on an atomic mirror of
// "batch finished" before it parks. A wake through the condition variable
// costs tens of microseconds per worker per tick. The spin has to outlast
// the wait for the batch's slowest index plus the serial phase: on
// churn-resync at 4 threads a 50 us spin recovered little of the wake cost,
// 200 us all of it, and 500 us no more. It is bounded, so an idle pool
// still parks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/phase.hpp"

namespace sbp::sim {

class ThreadPool {
 public:
  /// How long a thread spins for the next batch (worker) or for the end of
  /// its batch (caller) before it parks on a condition variable.
  static constexpr std::uint64_t kSpinNs = 200'000;

  /// `num_threads` total compute threads (including the caller of
  /// parallel_for); clamped to >= 1. Workers are spawned once and live
  /// until destruction.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(0) .. fn(count-1) across the pool and returns once ALL calls
  /// have completed (a full barrier). Indices are claimed dynamically; fn
  /// must be safe to call concurrently for distinct indices and must not
  /// throw. Not reentrant.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Total compute threads (resident workers + the caller).
  [[nodiscard]] std::size_t size() const noexcept {
    return workers_.size() + 1;
  }

  /// Attaches (or detaches, with nullptr) batch instrumentation. Must be
  /// called from the owning thread between batches -- in practice once,
  /// right after construction. Sizes obs->workers to size(): entry 0 is
  /// the calling thread, 1..N-1 the resident workers. With obs attached,
  /// each batch records dispatch (publish-to-wake) latency per worker,
  /// busy time per participating thread and the executed-items imbalance;
  /// all samples are staged in per-thread slots guarded by the batch
  /// mutex and folded in by the caller after the barrier, so collection
  /// adds no atomics and no contention to the claim loop itself.
  void set_obs(obs::PoolObs* obs);

 private:
  /// One thread's contribution to the current batch; written under
  /// mutex_ when the thread deregisters, folded by the caller after the
  /// barrier (also under mutex_), so never accessed concurrently.
  struct Slot {
    std::uint64_t dispatch_ns = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t executed = 0;
    bool participated = false;
  };

  void worker_loop(std::size_t slot);
  /// Claims and runs indices until the ticket counter runs dry; returns
  /// how many this thread executed.
  std::size_t run_claim_loop(const std::function<void(std::size_t)>& fn,
                             std::size_t count);
  /// Folds the finished batch's slots into *obs_. Caller holds mutex_.
  void fold_batch_locked(std::size_t count);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;

  // Instrumentation; guarded by mutex_ except for reads from the caller
  // thread, which is the only thread that may call set_obs/parallel_for.
  obs::PoolObs* obs_ = nullptr;
  std::vector<Slot> slots_;
  std::uint64_t publish_ns_ = 0;

  // Batch state, guarded by mutex_ (only the ticket counter is touched
  // outside it). A thread may enter a batch only while it is open and
  // must register in active_; parallel_for returns only when every index
  // ran AND every participant left, so a finished batch's fn/tickets are
  // never touched again.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  std::size_t executed_ = 0;
  std::size_t active_ = 0;
  std::uint64_t generation_ = 0;
  bool batch_open_ = false;
  /// Written under mutex_; atomic so spinning workers see it.
  std::atomic<bool> stop_{false};
  /// Lock-free mirrors of the batch state for the spinners, written under
  /// mutex_ with it: the open batch's generation (0 while none is open),
  /// and whether executed_ == count_ && active_ == 0. They only decide
  /// when to take the mutex; entry and close are still decided under it.
  std::atomic<std::uint64_t> open_generation_{0};
  std::atomic<bool> batch_done_{false};
  /// The ticket counter is the ONE field hammered by every thread during
  /// the claim loop; keep it on its own cache line so the contended CAS
  /// traffic doesn't false-share with the mutex-guarded batch state above
  /// (which workers read on wake).
  alignas(64) std::atomic<std::size_t> next_{0};
};

}  // namespace sbp::sim
