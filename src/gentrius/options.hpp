// Run configuration and result types for Gentrius.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "phylo/taxon_set.hpp"

namespace gentrius::core {

/// The three stopping rules of the paper (§II-B): the run terminates when
/// the stand-tree count, the intermediate-state count, or the wall-clock
/// time exceeds its limit. Paper defaults: 10^6 trees, 10^7 states, 168 h.
struct StoppingRules {
  std::uint64_t max_stand_trees = 1'000'000;
  std::uint64_t max_states = 10'000'000;
  double max_seconds = 168.0 * 3600.0;
};

/// Which work-distribution scheduler the parallel drivers use (real pool
/// and virtual-time simulator alike; serial runs ignore it).
///
///  * kCentralQueue — the paper's §III design: one bounded mutex/condvar
///    queue shared by all workers, capacity N_t+1 (N_t < 8) or N_t/2.
///    Paper-faithful and the default.
///  * kDistributedDeques — per-worker bounded deques with owner-local LIFO
///    push/pop, FIFO steals under deterministically seeded victim
///    selection, and atomic busy-count termination detection. Removes the
///    central queue's lock serialization and capacity starvation at high
///    thread counts (the scalability extension; see docs/PERFORMANCE.md).
///
/// Both schedulers produce identical tree/state/dead-end counts and the
/// identical stand set when the stopping rules do not fire.
enum class Scheduler : std::uint8_t { kCentralQueue, kDistributedDeques };

inline const char* to_string(Scheduler s) {
  switch (s) {
    case Scheduler::kCentralQueue: return "central-queue";
    case Scheduler::kDistributedDeques: return "distributed-deques";
  }
  return "?";
}

/// Instance decomposition mode (src/decompose, DESIGN.md "Decomposition").
///
///  * kOff — paper-faithful: one branch-and-bound tree over the whole
///    instance. The default; every driver in src/gentrius, src/parallel and
///    src/vthread requires it (they run exactly one instance).
///  * kComponents — split the constraint set into connected components of
///    the taxon-overlap graph and enumerate each component plus a canonical
///    residual shard independently; counts combine by product, stands by
///    cross-product streaming. Honored by decompose::run_sharded and the
///    incremental session only — the single-instance drivers reject it
///    loudly instead of silently ignoring it.
enum class Decompose : std::uint8_t { kOff, kComponents };

inline const char* to_string(Decompose d) {
  switch (d) {
    case Decompose::kOff: return "off";
    case Decompose::kComponents: return "components";
  }
  return "?";
}

/// Task-granularity policy: when does `Enumerator::maybe_offer_task` hand a
/// frame's branches to another worker?
///
///  * kPaperFixed — the paper's §III-A rule, verbatim: offer half the
///    admissible branches (b / 2 of b) whenever at least 3 taxa remain and
///    the frame has >= 2 branches. Both values are constants of the paper.
///    Paper-faithful and the default; produces the byte-identical golden
///    trace.
///  * kAdaptiveGW — model-driven granularity. The enumerator records a
///    per-stratum offspring histogram (admissible-branch count keyed by
///    remaining-taxon count), fits an online Galton–Watson branching-
///    process estimate of expected subtree size from it, and offers only
///    when the predicted delegated work exceeds an adaptive cutoff derived
///    from the hand-off cost (path replay + queue round-trip) and a live
///    starvation signal (TaskSink::backlog). Starved pools accept any
///    offer that repays its hand-off; deep backlogs demand proportionally
///    larger subtrees, so tiny deep tasks stop flooding the queues at high
///    thread counts. The same 3-taxa floor and half split apply; the
///    estimator's prior and refit period (offer_policy.hpp) and the cutoff's
///    hand-off terms (enumerator.cpp) are constants. Counts and the stand
///    set are policy-invariant: offers only redistribute who explores a
///    branch, never whether it is explored.
enum class OfferPolicy : std::uint8_t { kPaperFixed, kAdaptiveGW };

inline const char* to_string(OfferPolicy p) {
  switch (p) {
    case OfferPolicy::kPaperFixed: return "paper-fixed";
    case OfferPolicy::kAdaptiveGW: return "adaptive-gw";
  }
  return "?";
}

struct Options {
  /// Heuristic 1: start from the constraint tree sharing the most taxa with
  /// the others (paper §II-B). Off = start from `initial_constraint`
  /// (default 0).
  bool select_initial_tree = true;

  /// Heuristic 2: dynamic taxon insertion — always insert the remaining
  /// taxon with the fewest admissible branches. Off = static order (the
  /// given `insertion_order`, a shuffle when `shuffle_seed` is set, or
  /// ascending taxon id).
  bool dynamic_taxon_order = true;

  /// Dynamic-order selection rule. The paper's future work proposes
  /// exploring different insertion-order heuristics; besides the published
  /// min-branches rule, this library implements a most-constrained-first
  /// variant (taxon appearing in the most active constraint trees, ties by
  /// fewest branches). See bench_insertion_heuristics.
  enum class DynamicVariant : std::uint8_t { kMinBranches, kMostConstrained };
  DynamicVariant dynamic_variant = DynamicVariant::kMinBranches;

  /// Explicit initial agile tree (index into the constraint list).
  std::optional<std::size_t> initial_constraint;

  /// Explicit static insertion order (must be a permutation of the taxa
  /// missing from the initial agile tree). Implies dynamic order off.
  std::vector<phylo::TaxonId> insertion_order;

  /// Shuffle the static order with this seed (heuristic-ablation mode).
  std::optional<std::uint64_t> shuffle_seed;

  /// Maintain the double-edge mappings incrementally across taxon
  /// insertions/removals (default) instead of recomputing every active
  /// constraint at each state. Results are identical; only the per-state
  /// cost changes (see bench_mapping_update and the paper's §V profiling
  /// remark that mapping updates consume 15-30 % of runtime).
  bool incremental_mappings = true;

  StoppingRules stop;

  /// Collect the stand trees themselves (canonical form), up to
  /// collect_limit per enumerator.
  bool collect_trees = false;
  std::size_t collect_limit = 1'000'000;

  /// When set and collect_trees is on, stand trees are stored as canonical
  /// Newick with these labels; otherwise as the compact id-based canonical
  /// encoding. The pointee must outlive the run (not owned).
  const phylo::TaxonSet* tree_names = nullptr;

  /// Batched global-counter updates (paper §III-B): a thread publishes its
  /// local counts every 2^10 stand trees / 2^13 states / 2^10 dead ends.
  /// Serial runs use batch 1 so the stopping rules are exact. The time
  /// rule is read on every flush of batched counting and on every 256th
  /// flush of exact counting (all three batches 1), where a flush happens
  /// at every state.
  std::uint32_t tree_flush_batch = 1u << 10;
  std::uint32_t state_flush_batch = 1u << 13;
  std::uint32_t dead_end_flush_batch = 1u << 10;

  /// Work-distribution scheduler for the parallel drivers.
  Scheduler scheduler = Scheduler::kCentralQueue;

  /// Seed for the distributed scheduler's randomized victim selection
  /// (per-worker streams are derived as steal_seed ^ worker id). The
  /// virtual-time simulator's schedule is a deterministic function of this
  /// seed; the real pool's task totals are seed-independent.
  std::uint64_t steal_seed = 0x57ea1u;

  /// Instance decomposition (see enum Decompose above).
  Decompose decompose = Decompose::kOff;

  /// Task-granularity policy (see enum OfferPolicy above).
  OfferPolicy offer_policy = OfferPolicy::kPaperFixed;
};

enum class StopReason : std::uint8_t {
  kCompleted,   ///< full stand enumerated
  kTreeLimit,   ///< stopping rule 1
  kStateLimit,  ///< stopping rule 2
  kTimeLimit,   ///< stopping rule 3
  kEmptyStand,  ///< constraints mutually incompatible; stand is empty
};

inline const char* to_string(StopReason r) {
  switch (r) {
    case StopReason::kCompleted: return "completed";
    case StopReason::kTreeLimit: return "tree-limit";
    case StopReason::kStateLimit: return "state-limit";
    case StopReason::kTimeLimit: return "time-limit";
    case StopReason::kEmptyStand: return "empty-stand";
  }
  return "?";
}

/// Scheduler observability, aggregated over all workers of a run. The
/// central queue reports its pops as steals (every hand-off crosses the
/// shared queue); the distributed scheduler counts only cross-worker
/// transfers — owner-local pop-backs appear in tasks_executed alone.
struct SchedulerStats {
  std::uint64_t tasks_stolen = 0;          ///< tasks acquired from the queue/deques
  std::uint64_t steal_attempts = 0;        ///< victim probes (central: pops)
  std::uint64_t failed_steal_probes = 0;   ///< probes that found an empty deque
  std::uint64_t queue_full_rejections = 0; ///< offers bounced off a full ring
  std::uint64_t max_queue_depth = 0;       ///< deepest any ring ever got

  // Offer-policy observability (Options::offer_policy), reported uniformly
  // by both pools and both simulators. Under kPaperFixed every offer site
  // skips the model, so offers_evaluated stays 0; adopted_actual_states is
  // maintained under both policies (mean stolen-task size).
  std::uint64_t offers_evaluated = 0;   ///< adaptive cutoff evaluations
  std::uint64_t offers_suppressed = 0;  ///< offers withheld by the cutoff
  double predicted_task_states = 0.0;   ///< sum of predictions at accepted offers
  double adopted_predicted_states = 0.0; ///< predictions of tasks actually adopted
  std::uint64_t adopted_actual_states = 0; ///< states expanded inside adopted tasks

  void merge(const SchedulerStats& o) {
    tasks_stolen += o.tasks_stolen;
    steal_attempts += o.steal_attempts;
    failed_steal_probes += o.failed_steal_probes;
    queue_full_rejections += o.queue_full_rejections;
    if (o.max_queue_depth > max_queue_depth) max_queue_depth = o.max_queue_depth;
    offers_evaluated += o.offers_evaluated;
    offers_suppressed += o.offers_suppressed;
    predicted_task_states += o.predicted_task_states;
    adopted_predicted_states += o.adopted_predicted_states;
    adopted_actual_states += o.adopted_actual_states;
  }

  /// Relative prediction error over adopted tasks: |Σpredicted - Σactual| /
  /// max(1, Σactual). Meaningful only when predictions were made
  /// (kAdaptiveGW); 0-prediction runs report the trivial error 0.
  double offer_prediction_error() const {
    if (adopted_predicted_states == 0.0) return 0.0;
    const double actual = static_cast<double>(adopted_actual_states);
    const double denom = actual < 1.0 ? 1.0 : actual;
    const double diff = adopted_predicted_states - actual;
    return (diff < 0 ? -diff : diff) / denom;
  }
};

/// Candidate-selection work counters, accumulated by each Terrace and
/// aggregated over all workers of a run (Terrace::SelectionStats is an
/// alias for this type). The four counters partition the selection work a
/// run performed: full recounts vs journal-replay cache refreshes vs
/// zero/nonzero-only probes, plus constraint-mapping rebuild sweeps.
struct SelectionStats {
  std::uint64_t fresh_counts = 0;     ///< full admissible-count recomputations
  std::uint64_t cached_counts = 0;    ///< journal-replay cache refreshes
  std::uint64_t existence_checks = 0; ///< zero/nonzero-only dead-end probes
  std::uint64_t mappings_rebuilt = 0; ///< constraint mapping DFS rebuilds

  void merge(const SelectionStats& o) {
    fresh_counts += o.fresh_counts;
    cached_counts += o.cached_counts;
    existence_checks += o.existence_checks;
    mappings_rebuilt += o.mappings_rebuilt;
  }
};

/// Incremental-session cache observability (src/incremental): how much of a
/// re-enumeration was served from the fingerprint-keyed ResultCache versus
/// recomputed through the engine. `reused_states` counts the intermediate
/// states the cached shard runs had expanded when first computed — work this
/// run did *not* repeat; `recomputed_states` is the work it did.
struct CacheStats {
  std::uint64_t hits = 0;       ///< lookups answered from cache (components + residual)
  std::uint64_t misses = 0;     ///< lookups that fell through to enumeration
  std::uint64_t evictions = 0;  ///< LRU entries dropped to respect capacity
  std::uint64_t reused_components = 0;      ///< component shards served from cache
  std::uint64_t recomputed_components = 0;  ///< component shards re-enumerated
  std::uint64_t reused_states = 0;      ///< states the cached results stand in for
  std::uint64_t recomputed_states = 0;  ///< states actually expanded this run

  void merge(const CacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    reused_components += o.reused_components;
    recomputed_components += o.recomputed_components;
    reused_states += o.reused_states;
    recomputed_states += o.recomputed_states;
  }
};

/// One shard of a decomposed run (Options::decompose = kComponents): either
/// a connected component of the constraint-overlap graph or the canonical
/// residual instance that carries the interleaving count (see
/// src/decompose/sharded.hpp and DESIGN.md "Decomposition").
struct ShardStats {
  enum class Kind : std::uint8_t {
    kComponent,  ///< connected component of the taxon-overlap graph
    kResidual,   ///< canonical residual instance (one representative per component)
  };
  Kind kind = Kind::kComponent;
  std::size_t n_taxa = 0;                ///< shard universe size
  std::size_t n_constraints = 0;         ///< constraints in the shard instance
  std::uint64_t stand_trees = 0;         ///< shard stand count
  std::uint64_t intermediate_states = 0;
  std::uint64_t dead_ends = 0;
  StopReason reason = StopReason::kCompleted;
  SelectionStats selection;              ///< selection work within the shard
  SchedulerStats sched;                  ///< scheduler traffic within the shard
  double virtual_makespan = 0.0;         ///< virtual-backend shard makespan
  /// Incremental sessions only: this shard's result was served from the
  /// ResultCache (the stats describe the run that originally computed it).
  bool reused = false;
};

inline const char* to_string(ShardStats::Kind k) {
  switch (k) {
    case ShardStats::Kind::kComponent: return "component";
    case ShardStats::Kind::kResidual: return "residual";
  }
  return "?";
}

struct Result {
  std::uint64_t stand_trees = 0;
  std::uint64_t intermediate_states = 0;
  std::uint64_t dead_ends = 0;
  StopReason reason = StopReason::kCompleted;
  double seconds = 0.0;

  /// Canonical Newick of each enumerated stand tree (when collected).
  std::vector<std::string> trees;

  // Diagnostics.
  std::size_t initial_split_branches = 0;  ///< fan-out at state I0 (0 = no split)
  std::size_t prefix_length = 0;           ///< forced insertions before I0
  std::uint64_t tasks_executed = 0;        ///< work-stealing tasks run (parallel)
  std::uint64_t tasks_offered = 0;         ///< successful task offers (parallel)
  SchedulerStats sched;                    ///< scheduler observability
  SelectionStats selection;                ///< selection work, all workers
  double virtual_makespan = 0.0;           ///< virtual-time runs only

  // Decomposed runs only (decompose::run_sharded): per-shard rollups in
  // canonical shard order (components by smallest taxon id, residual last),
  // and whether the product of shard counts saturated std::uint64_t.
  std::vector<ShardStats> shards;
  bool count_saturated = false;

  // Incremental runs only (incremental::IncrementalSession): cache traffic
  // of this re-enumeration. All-zero for every other driver.
  CacheStats cache;
};

// ---- option-combination validation -----------------------------------------

/// Where an Options object is about to be consumed. Each surface honors a
/// different subset of the combination space, and validate_options rejects
/// the combinations that surface cannot honor with an InvalidInput that
/// names the option — instead of a silent ignore or a deep-in-the-stack
/// failure.
enum class OptionsSurface : std::uint8_t {
  /// The monolithic drivers (core::run_serial, parallel::run_parallel,
  /// vthread::run_virtual): exactly one instance, no decomposition.
  kSingleInstance,
  /// decompose::run_sharded: every decompose mode is honored here.
  kSharded,
  /// incremental::IncrementalSession: requires component analysis, so
  /// Options::decompose must be kComponents.
  kIncremental,
};

inline const char* to_string(OptionsSurface s) {
  switch (s) {
    case OptionsSurface::kSingleInstance: return "single-instance";
    case OptionsSurface::kSharded: return "sharded";
    case OptionsSurface::kIncremental: return "incremental";
  }
  return "?";
}

/// Validates an Options object for the given surface; throws
/// support::InvalidInput naming the offending option. The single source of
/// truth for combination rules — every driver calls this before running
/// (tests/gentrius/options_validate_test.cpp pins the rejection matrix).
void validate_options(const Options& options, OptionsSurface surface);

}  // namespace gentrius::core
