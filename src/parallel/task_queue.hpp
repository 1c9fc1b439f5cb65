// Bounded work-stealing task queue (paper §III-A/B).
//
// Working threads push tasks; idle threads block on a condition variable
// until a task arrives or the run terminates. The capacity follows the
// paper's rule: N_t + 1 tasks for N_t < 8 threads, N_t / 2 otherwise —
// enough to keep the pool fed without flooding it with tiny subproblems.
//
// Storage is a fixed ring of `capacity` Task slots allocated at
// construction. The producer stages its pooled task outside the lock and a
// push swaps it with the tail slot; a pop swaps the head slot with the
// consumer's pooled task. Both critical sections are O(1) pointer
// exchanges: every hand-off is allocation-free on both sides, and no node
// allocation or element copying ever happens inside the critical section.
//
// Termination detection: the queue tracks how many workers are busy. The
// last worker to go idle with an empty queue declares the run finished and
// wakes everyone. A stopping rule (CounterSink) also releases all waiters.
//
// All shared state is guarded by mutex_ and annotated for Clang's
// -Wthread-safety analysis (see support/thread_annotations.hpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "gentrius/counters.hpp"
#include "gentrius/enumerator.hpp"
#include "support/invariant.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace gentrius::parallel {

/// Capacity rule from the paper (empirically tuned by the authors).
inline std::size_t queue_capacity_for(std::size_t n_threads) {
  return n_threads < 8 ? n_threads + 1 : n_threads / 2;
}

/// Slice [begin, begin+len) of the I0 branch set assigned to thread `tid`
/// ("as uniformly as possible", paper §III-A). Shared by the real pool and
/// the virtual-time simulator.
inline std::pair<std::size_t, std::size_t> slice_for(std::size_t tid,
                                                     std::size_t n_threads,
                                                     std::size_t total) {
  const std::size_t base = total / n_threads;
  const std::size_t extra = total % n_threads;
  const std::size_t begin = tid * base + std::min(tid, extra);
  const std::size_t len = base + (tid < extra ? 1 : 0);
  GENTRIUS_DCHECK_LE(begin + len, total);  // slices partition [0, total)
  return {begin, len};
}

class TaskQueue final : public core::TaskSink, public core::StopWaker {
 public:
  /// All `workers` participants start in the busy state.
  TaskQueue(std::size_t capacity, std::size_t workers)
      : capacity_(capacity), workers_(workers), slots_(capacity),
        busy_(workers) {}

  /// Producer side (called from inside Enumerator::step). Non-blocking:
  /// a full queue rejects the task — left untouched, the producer keeps
  /// the branches — and a terminated queue (done_) rejects every task. On
  /// success the task's vectors are swapped into the tail slot; whatever
  /// capacity the slot accumulated travels back to the producer's pool.
  bool try_push(core::Task& task) override GENTRIUS_EXCLUDES(mutex_) {
    {
      support::MutexLock lock(mutex_);
      GENTRIUS_DCHECK_LE(size_, capacity_);
      if (done_) return false;
      if (size_ >= capacity_) {
        ++rejections_;
        return false;
      }
      std::swap(slots_[(head_ + size_) % capacity_], task);
      ++size_;
      // order: advisory mirror of size_ for the lock-free backlog() probe
      approx_size_.store(size_, std::memory_order_relaxed);
      if (size_ > max_depth_) max_depth_ = size_;
    }
    cv_.notify_one();
    return true;
  }

  /// Consumer side: transitions the caller from busy to idle, blocks until
  /// work arrives, and swaps the oldest task into `out` (caller becomes
  /// busy again). Returns false when the pool terminated — all workers idle
  /// with an empty queue — or a stopping rule fired; `out` is untouched
  /// then.
  bool pop(const core::CounterSink& sink, core::Task& out)
      GENTRIUS_EXCLUDES(mutex_) {
    bool got = false;
    bool i_terminated = false;
    {
      support::MutexLock lock(mutex_);
      GENTRIUS_DCHECK_GT(busy_, 0u);
      if (--busy_ == 0 && size_ == 0) {
        done_ = true;
        i_terminated = true;
      } else {
        for (;;) {
          if (done_ || sink.stop_requested()) break;
          if (size_ > 0) {
            // Swap instead of move: the consumer's old vectors end up in
            // the slot and get reused by a later push.
            std::swap(out, slots_[head_]);
            head_ = (head_ + 1) % capacity_;
            --size_;
            // order: advisory mirror of size_ for backlog(); see try_push
            approx_size_.store(size_, std::memory_order_relaxed);
            ++busy_;
            ++pops_;
            got = true;
            break;
          }
          cv_.wait(mutex_);
        }
      }
    }
    if (i_terminated) cv_.notify_all();
    return got;
  }

  /// Pool-facing names shared with DequeScheduler: every worker offers
  /// into the one queue and acquires from it.
  core::TaskSink* sink_for(std::size_t /*tid*/) { return this; }
  bool acquire(std::size_t /*tid*/, const core::CounterSink& sink,
               core::Task& out) GENTRIUS_EXCLUDES(mutex_) {
    return pop(sink, out);
  }

  /// Wakes all waiters (after a stopping rule fired).
  void broadcast_stop() GENTRIUS_EXCLUDES(mutex_) {
    {
      support::MutexLock lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
  }

  /// core::StopWaker: the sink calls this from request_stop so consumers
  /// parked in pop()'s cv_.wait unblock immediately.
  void wake_all() override { broadcast_stop(); }

  /// Diagnostics (tests): current queue occupancy.
  std::size_t size() const GENTRIUS_EXCLUDES(mutex_) {
    support::MutexLock lock(mutex_);
    return size_;
  }

  /// Adaptive-policy starvation signal (core::TaskSink): the queue's
  /// occupancy from a lock-free mirror. Suppressed offers read this on
  /// every candidate frame, so it must never touch the hand-off mutex; a
  /// slightly stale value only shifts task granularity, never correctness.
  std::size_t backlog() const override {
    // order: advisory snapshot; staleness is tolerated by the policy
    return approx_size_.load(std::memory_order_relaxed);
  }

  /// Ring size: at backlog() >= this, try_push would reject.
  std::size_t backlog_limit() const override { return capacity_; }

  /// Every hand-off serializes on the one shared mutex, and its cache line
  /// is bounced by all workers — one unit of time spent inside that serial
  /// section displaces N_t units of potential fleet progress, so the
  /// adaptive cutoff's backpressure term scales with the worker count.
  double handoff_penalty() const override {
    return static_cast<double>(workers_);
  }

  /// Scheduler observability. Every hand-off crosses the shared queue, so
  /// each pop counts as both an attempt and a transfer; the queue has no
  /// notion of a failed probe (consumers block instead of probing).
  core::SchedulerStats stats() const GENTRIUS_EXCLUDES(mutex_) {
    support::MutexLock lock(mutex_);
    core::SchedulerStats s;
    s.tasks_stolen = pops_;
    s.steal_attempts = pops_;
    s.queue_full_rejections = rejections_;
    s.max_queue_depth = max_depth_;
    return s;
  }

 private:
  const std::size_t capacity_;
  const std::size_t workers_;
  mutable support::Mutex mutex_{support::Rank::kTaskQueue};
  support::CondVar cv_;
  std::vector<core::Task> slots_ GENTRIUS_GUARDED_BY(mutex_);  // fixed ring
  std::size_t head_ GENTRIUS_GUARDED_BY(mutex_) = 0;
  std::size_t size_ GENTRIUS_GUARDED_BY(mutex_) = 0;
  std::atomic<std::size_t> approx_size_{0};  // lock-free backlog() mirror
  std::size_t busy_ GENTRIUS_GUARDED_BY(mutex_);
  bool done_ GENTRIUS_GUARDED_BY(mutex_) = false;
  std::uint64_t pops_ GENTRIUS_GUARDED_BY(mutex_) = 0;
  std::uint64_t rejections_ GENTRIUS_GUARDED_BY(mutex_) = 0;
  std::size_t max_depth_ GENTRIUS_GUARDED_BY(mutex_) = 0;
};

}  // namespace gentrius::parallel
