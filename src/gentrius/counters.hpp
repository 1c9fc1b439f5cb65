// Shared progress counters with batched publication (paper §III-B).
//
// The sequential Gentrius updates three global counters (stand trees,
// intermediate states, dead ends) at every state and checks the stopping
// rules. The parallel version keeps them in std::atomic variables; to avoid
// cache-line ping-pong each thread accumulates locally and publishes every
// 2^10 / 2^13 / 2^10 increments. A consequence the paper documents is that
// parallel runs can overshoot the limits by up to (threads * batch).
//
// Concurrency discipline: CounterSink is deliberately lock-free — every
// member is a std::atomic and there is no mutex to annotate for
// -Wthread-safety. The only cross-thread ordering that matters is the stop
// flag: request_stop publishes with release, stop_requested observes with
// acquire; the counter totals themselves are relaxed (they are monotone sums
// read exactly, after all writers flushed, by the assembling thread).
// LocalCounters is strictly thread-private (one per Enumerator, one
// Enumerator per worker) and must never be shared.
#pragma once

#include <atomic>
#include <cstdint>

#include "gentrius/options.hpp"
#include "support/invariant.hpp"
#include "support/stopwatch.hpp"

namespace gentrius::core {

/// Wakes workers parked in a scheduler's blocking wait. A scheduler
/// registers itself with the CounterSink so that request_stop can unpark
/// blocked consumers immediately — without a waker, a worker sleeping in a
/// condition-variable wait stays parked until some *other* worker observes
/// the stop flag and broadcasts, which can stall termination indefinitely
/// on an otherwise-idle pool. wake_all must be safe to call from any thread
/// and must tolerate repeated calls.
class StopWaker {
 public:
  virtual ~StopWaker() = default;
  virtual void wake_all() = 0;
};

/// Process-wide totals. One instance per run, shared by all threads.
class CounterSink {
 public:
  explicit CounterSink(const StoppingRules& rules) : rules_(rules) {}

  void add_stand_trees(std::uint64_t d) {
    // order: pure tally — fetch_add is atomic on its own; cross-thread
    // publication happens at thread join, and the threshold test below
    // only needs this thread's own returned value
    if (stand_trees_.fetch_add(d, std::memory_order_relaxed) + d >=
        rules_.max_stand_trees)
      request_stop(StopReason::kTreeLimit);
  }

  void add_states(std::uint64_t d) {
    // order: pure tally, same reasoning as add_stand_trees
    if (states_.fetch_add(d, std::memory_order_relaxed) + d >=
        rules_.max_states)
      request_stop(StopReason::kStateLimit);
  }

  void add_dead_ends(std::uint64_t d) {
    // order: pure tally; totals are read after workers join
    dead_ends_.fetch_add(d, std::memory_order_relaxed);
  }

  /// Stopping rule 3. Called by LocalCounters at its configured flush
  /// period; cheap relative to batch work. Wall-clock by definition (the
  /// paper's 168 h limit); equivalence tests disable this rule, so it
  /// cannot perturb serial-vs-parallel comparisons.
  void check_time() {
    // order: pure tally; totals are read after workers join
    time_checks_.fetch_add(1, std::memory_order_relaxed);
    if (clock_.seconds() >= rules_.max_seconds)
      request_stop(StopReason::kTimeLimit);
  }

  /// Registers (or clears, with nullptr) the scheduler to unpark when a
  /// stopping rule fires. Register before workers may block on the
  /// scheduler and clear only after every worker has been joined; the
  /// pointee must stay alive in between.
  void set_stop_waker(StopWaker* waker) {
    // order: release publishes the pointee's construction to the acquire
    // load in request_stop
    waker_.store(waker, std::memory_order_release);
  }

  void request_stop(StopReason why) {
    int expected = -1;
    // order: first-writer-wins tag; readers only consume it after
    // stop_requested() returns true, whose acquire orders this write
    reason_.compare_exchange_strong(expected, static_cast<int>(why),
                                    std::memory_order_relaxed);
    // order: release pairs with stop_requested()'s acquire, making the
    // reason_ write above visible to anyone who observed the stop
    stop_.store(true, std::memory_order_release);
    // order: pairs with set_stop_waker's release so the waker object is
    // fully constructed here; unpark happens *after* the flag store so a
    // woken worker re-checking its predicate observes the stop
    if (StopWaker* w = waker_.load(std::memory_order_acquire)) w->wake_all();
  }

  bool stop_requested() const {
    // order: pairs with request_stop's release; a true read carries the
    // reason_ value with it
    return stop_.load(std::memory_order_acquire);
  }

  /// The rule that fired, or kCompleted when none did.
  StopReason reason() const {
    // order: callers read this after observing stop_ (acquire) or after
    // joining the pool; both order the reason_ write before this load
    const int r = reason_.load(std::memory_order_relaxed);
    return r < 0 ? StopReason::kCompleted : static_cast<StopReason>(r);
  }

  std::uint64_t stand_trees() const {
    // order: pure tally, read after workers join
    return stand_trees_.load(std::memory_order_relaxed);
  }
  std::uint64_t states() const {
    // order: pure tally, read after workers join
    return states_.load(std::memory_order_relaxed);
  }
  std::uint64_t dead_ends() const {
    // order: pure tally, read after workers join
    return dead_ends_.load(std::memory_order_relaxed);
  }

  /// How many times the time rule was evaluated (each one is a clock
  /// syscall — the observable the flush-period throttle reduces).
  std::uint64_t time_checks() const {
    // order: pure tally, read after workers join
    return time_checks_.load(std::memory_order_relaxed);
  }

  double seconds() const { return clock_.seconds(); }

 private:
  StoppingRules rules_;
  std::atomic<std::uint64_t> stand_trees_{0};
  std::atomic<std::uint64_t> states_{0};
  std::atomic<std::uint64_t> dead_ends_{0};
  std::atomic<std::uint64_t> time_checks_{0};
  std::atomic<bool> stop_{false};
  std::atomic<int> reason_{-1};
  std::atomic<StopWaker*> waker_{nullptr};
  support::Stopwatch clock_;  // lint:allow(wall-clock) -- stopping rule 3
};

/// Per-thread accumulator. Publishes to the sink in batches; every
/// `time_check_period`-th flush also evaluates the time rule (period 1
/// checks on every flush; a larger period amortizes the clock syscall over
/// K flushes — the Enumerator picks 256 for exact counting). Not
/// thread-safe by design: each worker owns exactly one instance.
class LocalCounters {
 public:
  LocalCounters(CounterSink& sink, std::uint32_t tree_batch,
                std::uint32_t state_batch, std::uint32_t dead_end_batch,
                std::uint32_t time_check_period = 1)
      : sink_(&sink),
        tree_batch_(tree_batch ? tree_batch : 1),
        state_batch_(state_batch ? state_batch : 1),
        dead_end_batch_(dead_end_batch ? dead_end_batch : 1),
        time_check_period_(time_check_period ? time_check_period : 1) {}

  void count_stand_tree() {
    if (++trees_ >= tree_batch_) flush_trees();
  }

  void count_state() {
    if (++states_ >= state_batch_) flush_states();
  }

  void count_dead_end() {
    if (++dead_ends_ >= dead_end_batch_) flush_dead_ends();
  }

  /// Publish everything accumulated so far (end of a task / of the run).
  void flush_all() {
    if (trees_) flush_trees();
    if (states_) flush_states();
    if (dead_ends_) flush_dead_ends();
  }

  /// Number of sink publications so far (the contention-model input of the
  /// counter-batching ablation).
  std::uint64_t flush_count() const { return flushes_; }

 private:
  // Hot-path invariants: a pending local count never exceeds its batch (the
  // increment paths flush exactly at the threshold), and a flush always
  // publishes a non-zero delta — publishing zero would still pay an atomic
  // RMW and could spuriously trip a stopping-rule comparison.
  void flush_trees() {
    GENTRIUS_DCHECK_GT(trees_, 0u);
    GENTRIUS_DCHECK_LE(trees_, tree_batch_);
    sink_->add_stand_trees(trees_);
    trees_ = 0;
    ++flushes_;
    maybe_check_time();
  }
  void flush_states() {
    GENTRIUS_DCHECK_GT(states_, 0u);
    GENTRIUS_DCHECK_LE(states_, state_batch_);
    sink_->add_states(states_);
    states_ = 0;
    ++flushes_;
    maybe_check_time();
  }
  void flush_dead_ends() {
    GENTRIUS_DCHECK_GT(dead_ends_, 0u);
    GENTRIUS_DCHECK_LE(dead_ends_, dead_end_batch_);
    sink_->add_dead_ends(dead_ends_);
    dead_ends_ = 0;
    ++flushes_;
    maybe_check_time();
  }

  /// Evaluates the time rule on every time_check_period_-th flush. The
  /// three flush sites above used to pay one clock syscall each; with a
  /// period K only every K-th flush does. Counter totals, flush counts,
  /// and the batching ablation are untouched — only the clock-read cadence
  /// (and hence the time rule's granularity) changes.
  void maybe_check_time() {
    if (++flushes_since_time_check_ >= time_check_period_) {
      flushes_since_time_check_ = 0;
      sink_->check_time();
    }
  }

  CounterSink* sink_;
  std::uint32_t tree_batch_, state_batch_, dead_end_batch_;
  std::uint32_t time_check_period_;
  std::uint32_t flushes_since_time_check_ = 0;
  std::uint64_t trees_ = 0, states_ = 0, dead_ends_ = 0;
  std::uint64_t flushes_ = 0;
};

}  // namespace gentrius::core
