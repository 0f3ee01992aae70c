// The timed lock helper (src/obs): one mutex type for the shared state the
// parallel tick touches, held by sb::PublishedTable (sb::Server's update
// serve path and sb::SyncStateCache's get-or-build path).
//
// Every scoped acquisition is counted -- a deterministic figure when the
// calls that lock are fixed by the program, as the engine's barrier
// schedule fixes them. With metrics on, each acquisition also records how
// long it waited for the mutex and how long it held it; with metrics off
// the guard reads no clock (tools/check_hot_path.py rejects a clock read
// here outside `if (metrics_)`). Everything recorded is written while the
// mutex is held, so the figures need no lock of their own.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>

#include "obs/histogram.hpp"
#include "obs/phase.hpp"

namespace sbp::obs {

/// One mutex's contention figures.
struct LockStats {
  std::uint64_t acquisitions = 0;  ///< scoped acquisitions (always counted)
  Histogram wait_ns;  ///< asking for the mutex until holding it (metrics on)
  Histogram hold_ns;  ///< holding the mutex until releasing it (metrics on)
};

class TimedMutex {
 public:
  /// Holds the mutex for its scope; counts the acquisition, and times its
  /// wait and hold when metrics are on.
  class Guard {
   public:
    explicit Guard(TimedMutex& mutex) : mutex_(mutex) {
      if (mutex_.metrics_) {
        const std::uint64_t asked_ns = now_ns();
        mutex_.mutex_.lock();
        acquired_ns_ = now_ns();
        mutex_.metrics_->wait_ns.record(acquired_ns_ - asked_ns);
      } else {
        mutex_.mutex_.lock();
      }
      ++mutex_.acquisitions_;
    }
    ~Guard() {
      if (mutex_.metrics_) {
        mutex_.metrics_->hold_ns.record(now_ns() - acquired_ns_);
      }
      mutex_.mutex_.unlock();
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    TimedMutex& mutex_;
    std::uint64_t acquired_ns_ = 0;
  };

  /// Turns wait/hold timing on or off. Only while no thread uses the mutex.
  void set_metrics(bool on) {
    if (!on) {
      metrics_.reset();
    } else if (!metrics_) {
      metrics_ = std::make_unique<Timing>();
    }
  }

  /// The figures so far. Only while no thread uses the mutex.
  [[nodiscard]] LockStats stats() const {
    LockStats stats;
    stats.acquisitions = acquisitions_;
    if (metrics_) {
      stats.wait_ns = metrics_->wait_ns;
      stats.hold_ns = metrics_->hold_ns;
    }
    return stats;
  }

 private:
  struct Timing {
    Histogram wait_ns;
    Histogram hold_ns;
  };

  std::mutex mutex_;
  std::uint64_t acquisitions_ = 0;
  /// Null with metrics off: the guard's one branch.
  std::unique_ptr<Timing> metrics_;
};

}  // namespace sbp::obs
