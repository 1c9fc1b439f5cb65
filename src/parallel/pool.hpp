// Parallel Gentrius: thread pool with work stealing (paper §III).
#pragma once

#include <cstddef>

#include "gentrius/options.hpp"
#include "gentrius/problem.hpp"
#include "phylo/tree.hpp"

namespace gentrius::parallel {

/// Runs parallel Gentrius with n_threads std::jthread workers. (The paper
/// launches its workers with OpenMP; that launch measured no faster,
/// docs/PERFORMANCE.md §3.)
///
/// Every worker owns a private Terrace (agile tree + mappings), replays the
/// deterministic forced prefix to the initial split state I0, takes its
/// slice of the I0 branch set, and then participates in work stealing via a
/// bounded task queue. Counters are published in batches (Options); the
/// stopping rules may therefore overshoot slightly, exactly as the paper
/// describes. With stopping rules disabled the result (tree/state/dead-end
/// counts, and the collected stand) is identical to run_serial.
core::Result run_parallel(const core::Problem& problem,
                          const core::Options& options, std::size_t n_threads);

}  // namespace gentrius::parallel
