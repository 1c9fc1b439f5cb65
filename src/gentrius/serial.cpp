#include "gentrius/serial.hpp"

#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace gentrius::core {

Result run_serial(const Problem& problem, const Options& options) {
  validate_options(options, OptionsSurface::kSingleInstance);
  Options opts = options;
  opts.tree_flush_batch = 1;
  opts.state_flush_batch = 1;
  opts.dead_end_flush_batch = 1;

  // Diagnostic wall time for Result::seconds; never feeds the enumeration.
  support::Stopwatch clock;  // lint:allow(wall-clock)
  CounterSink sink(opts.stop);
  Enumerator e(problem, opts, sink);

  Result result;
  const auto& prefix = e.run_prefix(/*count=*/true);
  result.prefix_length = prefix.length;

  switch (prefix.outcome) {
    case Enumerator::Prefix::Outcome::kEmpty:
      result.reason = StopReason::kEmptyStand;
      break;
    case Enumerator::Prefix::Outcome::kComplete:
    case Enumerator::Prefix::Outcome::kDeadEnd:
      result.reason = sink.reason();
      break;
    case Enumerator::Prefix::Outcome::kSplit: {
      result.initial_split_branches = prefix.branches.size();
      e.begin_branches(prefix.split_taxon, prefix.branches);
      for (;;) {
        const auto s = e.step();
        if (s == Enumerator::Step::kWorked) continue;
        break;
      }
      result.reason = sink.reason();
      break;
    }
  }

  e.counters().flush_all();
  result.stand_trees = sink.stand_trees();
  result.intermediate_states = sink.states();
  result.dead_ends = sink.dead_ends();
  result.trees = std::move(e.collected_trees());
  result.selection = e.terrace().selection_stats();
  result.seconds = clock.seconds();
  return result;
}

Result run_serial(const std::vector<phylo::Tree>& constraints,
                  const Options& options) {
  return run_serial(build_problem(constraints, options), options);
}

}  // namespace gentrius::core
