// Distributed work-stealing scheduler: per-worker lock-free bounded deques.
//
// The paper's §III design funnels every hand-off through one mutex/condvar
// TaskQueue whose capacity rule (N_t+1, then N_t/2) deliberately starves
// the pool at high thread counts. This header implements the alternative
// scheduler (Options::Scheduler::kDistributedDeques): each worker owns a
// bounded Chase-Lev-style ring deque, pushes and pops its own tasks LIFO
// (newest = deepest subtree, warm state) with no lock and no CAS on the
// common path, and — when both its assignment and its deque are empty —
// steals FIFO (oldest = shallowest = biggest subtree) from victims visited
// in a deterministically seeded random cyclic order. Thieves synchronize
// with each other and with the owner's last-element pop through a single
// CAS on the deque's top index; the owner's push/pop touch no shared lock
// at all.
//
// Tasks are handed off as node pointers, not values: the ring stores
// pointers into a fixed node pool, so a steal moves one pointer plus an
// O(1) vector swap — the same hand-off cost as the old locked design's
// slot swap, without the mutex. Nodes consumed by either side return to a
// Treiber free stack; only the owner pops it (so the classic ABA window
// needs no generation tags), while owner and thieves both push. The pool
// holds capacity + max_thieves + 1 nodes, which makes the free stack
// provably non-empty whenever the ring is non-full (each thief holds at
// most one node mid-hand-off), so a successful try_reserve still
// guarantees the next owner_push cannot fail.
//
// Termination detection is a busy count: a worker whose steal sweep fails
// registers as idle under the scheduler's signal mutex; the last worker to
// go idle with zero pending tasks declares the run finished and wakes
// everyone. The pending-task count itself is a lock-free atomic,
// incremented before a task becomes stealable; producers only touch the
// signal mutex when a sleeper is actually parked (Dekker-style pairing of
// the pending increment with the sleeper count, both seq_cst, closes the
// lost-wakeup race).
//
// Decomposition semantics are identical to the central queue: an offered
// task carries half of a frame's admissible branches plus the replay path,
// the producer keeps the other half, and every branch is explored (and
// counted) exactly once by whoever ends up holding it — so tree/state/
// dead-end totals and the stand set match the serial run whenever the
// stopping rules stay quiet. The virtual-time simulator re-implements this
// exact decomposition deterministically (src/vthread/virtual_pool.cpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "gentrius/counters.hpp"
#include "gentrius/enumerator.hpp"
#include "gentrius/options.hpp"
#include "support/invariant.hpp"
#include "support/rng.hpp"
#include "support/sync.hpp"
#include "support/thread_annotations.hpp"

namespace gentrius::parallel {

/// Per-worker ring capacity. Unlike the central queue's N_t-coupled rule,
/// capacity is per worker, so total task headroom scales with the pool: at
/// 48 threads the central queue holds 24 tasks for 47 potential thieves,
/// while 48 deques hold up to 384. Eight slots per worker keeps the
/// owner-side pop-back churn (rewind + replay of self-offered tasks that
/// nobody stole) negligible while leaving thieves plenty to take.
inline std::size_t steal_deque_capacity_for(std::size_t /*n_threads*/) {
  return 8;
}

/// Deterministically seeded victim-selection stream: one per worker, used
/// only by its owner. Each steal sweep starts at a pseudo-random peer and
/// scans cyclically, so thieves spread over victims instead of convoying on
/// worker 0. The identical generator drives the virtual-time simulator's
/// victim order, making the simulated schedule a pure function of
/// Options::steal_seed. A selector always belongs to a concrete pool, so
/// the zero-worker state is unrepresentable: there is no default
/// constructor, and construction checks n_workers >= 1.
class VictimSelector {
 public:
  VictimSelector(std::uint64_t seed, std::size_t tid, std::size_t n_workers)
      : rng_(seed ^ (0x9e3779b97f4a7c15ULL * (tid + 1))),
        n_workers_(n_workers) {
    GENTRIUS_CHECK(n_workers >= 1);
  }

  /// First victim candidate of a sweep (may equal the caller's own id —
  /// sweeps skip self). Cyclic scan order: begin, begin+1, ... mod n.
  std::size_t begin_sweep() { return rng_.below(n_workers_); }

 private:
  support::Rng rng_;
  std::size_t n_workers_;
};

/// One worker's bounded lock-free task ring (Chase-Lev-style). The owner
/// pushes and pops at the bottom (LIFO) without locks or, except for the
/// last element, CAS; thieves take from the top (FIFO) behind a CAS. All
/// hand-offs swap the task's vectors with node storage, so the contended
/// window is O(1) pointer exchanges exactly like the central TaskQueue's
/// critical sections.
///
/// `max_thieves` bounds how many threads may call steal() concurrently
/// (the scheduler passes its worker count); it sizes the node pool so the
/// free stack can never be empty while the ring has room.
//
// Declared happens-before protocol for the top_/bottom_/ring_ triple,
// checked by gentrius-analyze (atomic-hb): each row is a function's exact
// sequence of atomic ops on the covered variables plus fences, in source
// order; cas lists success,failure orders. Any function touching these
// variables must appear here, so the Chase-Lev choreography cannot drift
// without this table (and its reasoning) being edited alongside.
//
// hb-table: StealDeque
//   try_reserve: bottom_.load relaxed ; top_.load acquire
//   owner_push: bottom_.load relaxed ; top_.load acquire ;
//     ring_.store relaxed ; bottom_.store release
//   owner_pop: bottom_.load relaxed ; bottom_.store relaxed ;
//     fence seq_cst ; top_.load relaxed ; bottom_.store relaxed ;
//     ring_.load relaxed ; top_.cas seq_cst,relaxed ;
//     bottom_.store relaxed ; bottom_.store relaxed
//   steal: top_.load acquire ; fence seq_cst ; bottom_.load acquire ;
//     ring_.load relaxed ; top_.cas seq_cst,relaxed
//   size: bottom_.load acquire ; top_.load acquire
// hb-end
class StealDeque {
 public:
  explicit StealDeque(std::size_t capacity, std::size_t max_thieves = 16)
      : capacity_(static_cast<std::int64_t>(capacity)),
        nodes_(capacity + max_thieves + 1),
        ring_(capacity) {
    GENTRIUS_CHECK(capacity >= 1);
    for (auto& n : nodes_) push_free(&n);
  }

  StealDeque(const StealDeque&) = delete;
  StealDeque& operator=(const StealDeque&) = delete;

  /// Owner-side capacity reservation: false (counting the rejection) when
  /// the ring is full. Sound as a push precondition despite being a
  /// separate load: the owner is the only thread that adds tasks, and
  /// thieves can only drain, so a non-full observation cannot be
  /// invalidated before the owner's next push.
  bool try_reserve() {
    // order: owner is the sole bottom_ writer; it re-reads its own value
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    // order: pairs with thief top_ CAS; a stale top_ only under-counts
    // free slots, which is safe for a reservation check
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= capacity_) {
      // order: monotonic diagnostic counter, read after workers join
      rejections_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Owner side: false when full (the caller keeps its branches). Counts
  /// capacity rejections and tracks the high-water depth. No lock, no CAS.
  bool owner_push(core::Task& task) {
    // order: owner is the sole bottom_ writer; it re-reads its own value
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    // order: pairs with thief top_ CAS so the fullness check never
    // over-counts occupancy (a stale top_ only rejects early)
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= capacity_) {
      // order: monotonic diagnostic counter, read after workers join
      rejections_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    Node* n = acquire_node();
    std::swap(n->task, task);
    // order: the slot write is published by the bottom_ release below
    ring_[static_cast<std::size_t>(b % capacity_)].store(
        n, std::memory_order_relaxed);
    // order: publish — a thief that observes bottom > top acquires the
    // node pointer and its payload through this release store
    bottom_.store(b + 1, std::memory_order_release);
    const std::size_t depth = static_cast<std::size_t>(b + 1 - t);
    // order: owner-written high-water stat; stats() reads are racy by
    // design and only consumed after the pool joins
    if (depth > max_depth_.load(std::memory_order_relaxed))
      max_depth_.store(depth, std::memory_order_relaxed);
    return true;
  }

  /// Owner side: newest task (deepest subtree), or false when empty. Only
  /// the race for the final element pays a CAS against thieves.
  bool owner_pop(core::Task& out) {
    // order: owner-local read-modify of its own index; the seq_cst fence
    // below orders the decrement against the top_ read
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    // order: the decrement itself is made visible by the fence below
    bottom_.store(b, std::memory_order_relaxed);
    // order: the bottom_ store above must be globally visible before the
    // top_ read below (the Chase-Lev owner/thief symmetry point); pairs
    // with the fence in steal()
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // order: fenced; a thief's CAS after this read is caught by the t == b
    // arbitration below
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {  // empty: restore bottom
      // order: owner-only restore; next owner_push republishes with release
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    // order: owner reads a slot it published itself (program order)
    Node* n =
        ring_[static_cast<std::size_t>(b % capacity_)].load(
            std::memory_order_relaxed);
    if (t == b) {
      // order: last element — seq_cst CAS arbitrates against thieves on
      // top_; relaxed failure is fine, the value is discarded on loss
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        // order: owner-only restore after losing the race (thief won)
        bottom_.store(b + 1, std::memory_order_relaxed);
        return false;
      }
      // order: owner-only restore; deque is now empty
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    std::swap(out, n->task);
    push_free(n);
    return true;
  }

  /// Thief side: oldest task (shallowest, biggest subtree), or false when
  /// empty or when another thief (or the owner's last-element pop) won the
  /// CAS race. A false from a race is indistinguishable from empty to the
  /// caller — the scheduler treats both as a failed probe and re-checks
  /// pending work before parking, so no task is ever lost.
  bool steal(core::Task& out) {
    // order: acquire top_ so the ring read below sees at least the slots
    // published up to this top value
    std::int64_t t = top_.load(std::memory_order_acquire);
    // order: orders the top_ read before the bottom_ read; pairs with the
    // fence in owner_pop so thief and owner agree on the last element
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // order: pairs with owner_push's bottom_ release — observing b > t
    // here makes the slot and payload writes visible
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return false;
    // order: the node pointer was published by the bottom_ release that
    // made b > t observable; read *before* the CAS — once top moves the
    // owner may recycle the slot, and a failed CAS discards the read
    Node* n =
        ring_[static_cast<std::size_t>(t % capacity_)].load(
            std::memory_order_relaxed);
    // order: seq_cst CAS totally orders competing thieves and the owner's
    // last-element pop; relaxed failure value is discarded
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
      return false;
    std::swap(out, n->task);
    push_free(n);
    return true;
  }

  std::size_t size() const {
    // order: racy diagnostic snapshot; acquire keeps the pair no staler
    // than the last publication but the result is advisory anyway
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    // order: same advisory snapshot as the bottom_ read above
    const std::int64_t t = top_.load(std::memory_order_acquire);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }
  std::size_t capacity() const { return static_cast<std::size_t>(capacity_); }
  std::uint64_t rejections() const {
    // order: monotonic diagnostic counter, read after workers join
    return rejections_.load(std::memory_order_relaxed);
  }
  std::size_t max_depth() const {
    // order: owner-written stat, read after workers join
    return max_depth_.load(std::memory_order_relaxed);
  }

 private:
  struct Node {
    core::Task task;
    std::atomic<Node*> next_free{nullptr};
  };

  /// Multi-producer free-stack push (owner and thieves both return nodes).
  void push_free(Node* n) {
    // order: speculative head read; the CAS below validates it
    Node* head = free_head_.load(std::memory_order_relaxed);
    do {
      // order: the link write is published by the CAS release below
      n->next_free.store(head, std::memory_order_relaxed);
      // order: release publishes the node's link (and drained payload) to
      // the owner's acquire pop; failure just reloads the head
    } while (!free_head_.compare_exchange_weak(
        head, n, std::memory_order_release, std::memory_order_relaxed));
  }

  /// Single-consumer free-stack pop: only the owner calls this, so the
  /// popped head cannot be concurrently removed by anyone else and the
  /// classic Treiber ABA window does not arise. The pool is sized so a
  /// node is always available when the ring is non-full; the wait loop
  /// only covers the instants where a thief holds a node between its CAS
  /// and its push_free, and that thief is guaranteed to return it.
  Node* acquire_node() {
    for (;;) {
      // order: pairs with push_free's CAS release so the head's link is
      // visible before it is dereferenced below
      Node* head = free_head_.load(std::memory_order_acquire);
      if (head == nullptr) continue;  // thief mid-hand-off: bounded wait
      // order: the link was made visible by the acquire load above
      Node* next = head->next_free.load(std::memory_order_relaxed);
      // order: acquire on success re-synchronizes with the latest pusher
      // (the head may have been re-pushed since the load); relaxed
      // failure value is discarded by the retry
      if (free_head_.compare_exchange_weak(head, next,
                                           std::memory_order_acquire,
                                           std::memory_order_relaxed))
        return head;
    }
  }

  const std::int64_t capacity_;
  std::vector<Node> nodes_;                 // fixed pool, never reallocates
  std::vector<std::atomic<Node*>> ring_;    // indexed modulo capacity_
  std::atomic<Node*> free_head_{nullptr};
  // top_/bottom_ never decrease except bottom_'s transient owner_pop dip;
  // size = bottom - top. 64-bit indices never wrap in practice.
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<std::size_t> max_depth_{0};   // owner-written, racily read
  std::atomic<std::uint64_t> rejections_{0};
};

/// The full distributed scheduler: N_t deques, per-worker victim streams,
/// busy-count termination, and a signal mutex/condvar for parking idle
/// workers. Workers interact through per-worker handles: the handle is the
/// enumerator's TaskSink (offers land in the worker's own deque) and the
/// pool's blocking acquire source. Task hand-off itself is lock-free; the
/// signal mutex is touched only to park, to unpark a parked worker, and to
/// arbitrate termination.
class DequeScheduler final : public core::StopWaker {
 public:
  DequeScheduler(std::size_t workers, std::uint64_t steal_seed)
      : workers_(workers), busy_(workers) {
    handles_.reserve(workers);
    for (std::size_t tid = 0; tid < workers; ++tid) {
      deques_.emplace_back(steal_deque_capacity_for(workers), workers);
      handles_.push_back(
          Handle{this, tid, VictimSelector(steal_seed, tid, workers)});
    }
  }

  /// Per-worker TaskSink: offers go to the worker's own deque. Owned by the
  /// scheduler; each worker uses exactly its own handle.
  class Handle final : public core::TaskSink {
   public:
    Handle(DequeScheduler* sched, std::size_t tid, VictimSelector selector)
        : sched_(sched), tid_(tid), selector_(std::move(selector)) {}

    bool try_push(core::Task& task) override {
      return sched_->push_local(tid_, task);
    }

    /// Adaptive-policy starvation signal: the owner's own deque depth (the
    /// only ring this producer feeds). StealDeque::size() is a lock-free
    /// advisory snapshot, exactly what the policy needs.
    std::size_t backlog() const override {
      return sched_->deques_[tid_].size();
    }

    /// Own ring size: at backlog() >= this, push_local would reject.
    std::size_t backlog_limit() const override {
      return sched_->deques_[tid_].capacity();
    }

    // handoff_penalty() keeps the TaskSink default of 1: deque hand-off has
    // no globally serialized section, so fine granularity stays profitable.

   private:
    friend class DequeScheduler;
    DequeScheduler* sched_;
    std::size_t tid_;
    VictimSelector selector_;  // touched only by the owning worker thread
  };

  core::TaskSink* sink_for(std::size_t tid) {
    GENTRIUS_DCHECK_LT(tid, workers_);
    return &handles_[tid];
  }

  /// Blocking acquire for worker `tid`: own deque LIFO first, then a steal
  /// sweep over the other deques, then park until a push or termination.
  /// Returns false when the pool terminated (all workers idle, no pending
  /// tasks) or a stopping rule fired; `out` is untouched then.
  bool acquire(std::size_t tid, const core::CounterSink& sink, core::Task& out)
      GENTRIUS_EXCLUDES(mutex_) {
    GENTRIUS_DCHECK_LT(tid, workers_);
    for (;;) {
      // order: pairs with the done_ release in the terminating worker /
      // broadcast_stop; seeing true implies termination state is visible
      if (done_.load(std::memory_order_acquire) || sink.stop_requested())
        return false;
      if (deques_[tid].owner_pop(out)) {
        note_taken();
        return true;
      }
      if (try_steal(tid, out)) return true;
      // Nothing anywhere: transition to idle under the signal mutex. The
      // pending_ re-check under the lock closes the race with a push that
      // landed between the failed sweep and the lock acquisition (a steal
      // CAS lost to a racing thief also lands here; the loser re-sweeps or
      // parks, and the pending count keeps termination exact).
      bool i_terminated = false;
      {
        support::MutexLock lock(mutex_);
        if (pending_.load(std::memory_order_seq_cst) > 0)
          continue;  // late push: stay busy, sweep again
        GENTRIUS_DCHECK_GT(busy_, 0u);
        if (--busy_ == 0) {
          // order: release pairs with the done_ acquire loads; readers of
          // done_ == true see the final termination state
          done_.store(true, std::memory_order_release);
          i_terminated = true;
        } else {
          // Dekker pairing with push_local: the sleeper count is raised
          // *before* re-reading pending_ (both seq_cst), the producer
          // raises pending_ *before* reading the sleeper count — at least
          // one side must see the other, so no push can slip between this
          // predicate check and the wait.
          sleepers_.fetch_add(1, std::memory_order_seq_cst);
          // order: done_ acquire pairs with its release sites; wake-up
          // reason must be visible before acting on it
          while (!done_.load(std::memory_order_acquire) &&
                 !sink.stop_requested() &&
                 pending_.load(std::memory_order_seq_cst) == 0) {
            cv_.wait(mutex_);
          }
          sleepers_.fetch_sub(1, std::memory_order_seq_cst);
          // order: same pairing as the wait predicate above
          if (done_.load(std::memory_order_acquire) || sink.stop_requested())
            return false;  // busy_ stays decremented: this worker is leaving
          ++busy_;
        }
      }
      if (i_terminated) {
        cv_.notify_all();
        return false;
      }
    }
  }

  /// Wakes all parked workers (stopping rule / external stop). Subsequent
  /// pushes are rejected so producers keep their branches.
  void broadcast_stop() GENTRIUS_EXCLUDES(mutex_) {
    {
      support::MutexLock lock(mutex_);
      // order: release pairs with the done_ acquire loads in acquire()
      // and push_local()
      done_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

  void wake_all() override { broadcast_stop(); }

  core::SchedulerStats stats() const {
    core::SchedulerStats s;
    // order: monotonic diagnostic counters, read after the pool joins
    s.tasks_stolen = stolen_.load(std::memory_order_relaxed);
    // order: same join-ordered diagnostic read as above
    s.steal_attempts = probes_.load(std::memory_order_relaxed);
    // order: same join-ordered diagnostic read as above
    s.failed_steal_probes = failed_probes_.load(std::memory_order_relaxed);
    for (const StealDeque& d : deques_) {
      s.queue_full_rejections += d.rejections();
      s.max_queue_depth =
          std::max<std::uint64_t>(s.max_queue_depth, d.max_depth());
    }
    return s;
  }

  /// Diagnostics (tests): total tasks currently queued across all deques.
  std::size_t pending() const {
    return pending_.load(std::memory_order_seq_cst);
  }

 private:
  // Ordering matters: pending_ is incremented *before* the task becomes
  // visible in the deque, so a thief's note_taken decrement can never
  // precede the matching increment (pending_ would underflow). The
  // try_reserve precheck is what makes increment-first safe — the push
  // after a successful reservation cannot fail, because only the owner
  // adds tasks to its own deque (and the node pool is sized so a free
  // node is always available when the ring has room).
  bool push_local(std::size_t tid, core::Task& task) {
    // order: pairs with the done_ release sites; a post-stop push must
    // observe the rejection state
    if (done_.load(std::memory_order_acquire)) return false;
    if (!deques_[tid].try_reserve()) return false;
    pending_.fetch_add(1, std::memory_order_seq_cst);
    const bool pushed = deques_[tid].owner_push(task);
    GENTRIUS_DCHECK(pushed);
    static_cast<void>(pushed);
    // Wake a parked worker only when one exists — the common case (all
    // workers busy) never touches the signal mutex. See the Dekker note
    // in acquire() for why this cannot miss a sleeper.
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
      { support::MutexLock lock(mutex_); }
      cv_.notify_one();
    }
    return true;
  }

  bool try_steal(std::size_t tid, core::Task& out) {
    if (workers_ < 2) return false;
    const std::size_t start = handles_[tid].selector_.begin_sweep();
    for (std::size_t k = 0; k < workers_; ++k) {
      const std::size_t victim = (start + k) % workers_;
      if (victim == tid) continue;
      // order: monotonic diagnostic counter, read after the pool joins
      probes_.fetch_add(1, std::memory_order_relaxed);
      if (deques_[victim].steal(out)) {
        // order: monotonic diagnostic counter, read after the pool joins
        stolen_.fetch_add(1, std::memory_order_relaxed);
        note_taken();
        return true;
      }
      // order: monotonic diagnostic counter, read after the pool joins
      failed_probes_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }

  void note_taken() {
    const std::size_t before =
        pending_.fetch_sub(1, std::memory_order_seq_cst);
    GENTRIUS_DCHECK_GT(before, 0u);
    static_cast<void>(before);
  }

  const std::size_t workers_;
  std::deque<StealDeque> deques_;  // StealDeque is pinned: not relocatable
  std::vector<Handle> handles_;

  // Parking + termination arbitration only.
  mutable support::Mutex mutex_{support::Rank::kSchedulerSignal};
  support::CondVar cv_;
  std::atomic<std::size_t> pending_{0};   // queued tasks across all deques
  std::atomic<std::size_t> sleepers_{0};  // workers parked on cv_
  std::size_t busy_ GENTRIUS_GUARDED_BY(mutex_);
  std::atomic<bool> done_{false};

  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> failed_probes_{0};
};

}  // namespace gentrius::parallel
