#include "parallel/pool.hpp"

#include <thread>
#include <vector>

#include "gentrius/counters.hpp"
#include "gentrius/enumerator.hpp"
#include "parallel/steal_deque.hpp"
#include "parallel/task_queue.hpp"
#include "support/error.hpp"
#include "support/invariant.hpp"
#include "support/stopwatch.hpp"

namespace gentrius::parallel {

using core::CounterSink;
using core::Enumerator;
using core::Options;
using core::Problem;
using core::Result;
using core::StopReason;

namespace {

struct WorkerOutput {
  std::vector<std::string> trees;
  std::uint64_t tasks_offered = 0;
  std::uint64_t tasks_executed = 0;
  core::SchedulerStats offer;  // enumerator-side offer-policy counters
  core::SelectionStats selection;
  Enumerator::Prefix::Outcome prefix_outcome =
      Enumerator::Prefix::Outcome::kEmpty;
  std::size_t prefix_length = 0;
  std::size_t split_branches = 0;
};

/// Steps the enumerator until its current assignment is exhausted or a
/// stopping rule fires. Returns true when stopped.
bool drain(Enumerator& e) {
  for (;;) {
    switch (e.step()) {
      case Enumerator::Step::kWorked:
        continue;
      case Enumerator::Step::kExhausted:
        return false;
      case Enumerator::Step::kStopped:
        return true;
    }
  }
}

// Shared-state discipline (checked by Clang -Wthread-safety where locks are
// involved): the scheduler guards its own members internally (task_queue.hpp
// / steal_deque.hpp), `sink` is lock-free atomics (counters.hpp), and each
// worker writes only its own `out` slot — the pool joins every thread
// before reading them. `Sched` is TaskQueue or DequeScheduler; both expose
// sink_for / acquire / broadcast_stop / stats.
template <class Sched>
void worker_body(std::size_t tid, std::size_t n_threads,
                 const Problem& problem, const Options& options,
                 CounterSink& sink, Sched& sched, WorkerOutput& out) {
  GENTRIUS_DCHECK_LT(tid, n_threads);
  // Each thread builds its private Terrace and re-executes the deterministic
  // prefix (paper: "the first stages of execution are identical across all
  // threads"); only thread 0 counts those states.
  Enumerator e(problem, options, sink);
  e.set_task_sink(sched.sink_for(tid));

  const auto& prefix = e.run_prefix(/*count=*/tid == 0);
  out.prefix_outcome = prefix.outcome;
  out.prefix_length = prefix.length;
  out.split_branches = prefix.branches.size();

  bool stopped = false;
  if (prefix.outcome == Enumerator::Prefix::Outcome::kSplit) {
    const auto [begin, len] =
        slice_for(tid, n_threads, prefix.branches.size());
    if (len > 0) {
      std::vector<core::EdgeId> slice(
          prefix.branches.begin() + static_cast<std::ptrdiff_t>(begin),
          prefix.branches.begin() + static_cast<std::ptrdiff_t>(begin + len));
      e.begin_branches(prefix.split_taxon, std::move(slice));
      stopped = drain(e);
    }
  }

  // Pooled steal target: acquire() swaps a queue/deque slot with this task,
  // so repeated steals recycle the same vector storage.
  core::Task task;
  while (!stopped) {
    if (!sched.acquire(tid, sink, task)) break;
    e.adopt_task(task);
    ++out.tasks_executed;
    stopped = drain(e);
    if (!stopped) e.rewind_to_split();
  }
  if (stopped) sched.broadcast_stop();

  e.counters().flush_all();
  out.trees = std::move(e.collected_trees());
  out.tasks_offered = e.tasks_offered();
  out.offer = e.offer_stats();
  out.selection = e.terrace().selection_stats();
}

Result assemble(const CounterSink& sink, std::vector<WorkerOutput>& outputs,
                const core::SchedulerStats& sched) {
  Result result;
  result.stand_trees = sink.stand_trees();
  result.intermediate_states = sink.states();
  result.dead_ends = sink.dead_ends();
  result.reason = sink.reason();
  const WorkerOutput& first = outputs.front();
  result.prefix_length = first.prefix_length;
  result.initial_split_branches = first.split_branches;
  if (first.prefix_outcome == Enumerator::Prefix::Outcome::kEmpty)
    result.reason = StopReason::kEmptyStand;
  result.sched = sched;
  for (auto& o : outputs) {
    result.tasks_executed += o.tasks_executed;
    result.tasks_offered += o.tasks_offered;
    result.selection.merge(o.selection);
    // Producer/thief-side offer-policy counters join the scheduler-side
    // stats: both pools and both simulators report them uniformly.
    result.sched.merge(o.offer);
    result.trees.insert(result.trees.end(),
                        std::make_move_iterator(o.trees.begin()),
                        std::make_move_iterator(o.trees.end()));
  }
  return result;
}

template <class Sched>
Result run_pool(const Problem& problem, const Options& options,
                std::size_t n_threads, Sched& sched) {
  CounterSink sink(options.stop);
  std::vector<WorkerOutput> outputs(n_threads);
  // Stop-wake hook: request_stop from any thread unparks blocked consumers
  // immediately instead of waiting for a busy worker to notice the flag.
  // Cleared before the scheduler goes out of scope.
  sink.set_stop_waker(&sched);

  if (n_threads == 1) {
    // Degenerate pool: the one worker runs on the calling thread and
    // acquires its own offers back.
    worker_body(0, 1, problem, options, sink, sched, outputs[0]);
  } else {
    std::vector<std::jthread> threads;
    threads.reserve(n_threads);
    for (std::size_t tid = 0; tid < n_threads; ++tid) {
      threads.emplace_back([&, tid] {
        worker_body(tid, n_threads, problem, options, sink, sched,
                    outputs[tid]);
      });
    }
  }  // jthreads join here
  sink.set_stop_waker(nullptr);
  return assemble(sink, outputs, sched.stats());
}

}  // namespace

Result run_parallel(const Problem& problem, const Options& options,
                    std::size_t n_threads) {
  core::validate_options(options, core::OptionsSurface::kSingleInstance);
  // Wall clock for Result::seconds (reported diagnostics, never a
  // scheduling input) and for stopping rule 3, real-time by definition.
  // lint:allow(wall-clock)
  support::Stopwatch clock;
  Result result;
  if (options.scheduler == core::Scheduler::kDistributedDeques) {
    DequeScheduler deques(n_threads, options.steal_seed);
    result = run_pool(problem, options, n_threads, deques);
  } else {
    TaskQueue central(queue_capacity_for(n_threads), n_threads);
    result = run_pool(problem, options, n_threads, central);
  }
  result.seconds = clock.seconds();
  return result;
}

}  // namespace gentrius::parallel
