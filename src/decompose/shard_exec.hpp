// The shard driver: the one plan-run-combine loop behind every sharded run.
//
// decompose::run_sharded and the incremental session (src/incremental) both
// enumerate a decomposed instance through run_shards below. It runs or
// serves each enumerable component, settles emptiness, takes the residual
// from the closed form, a served result or an enumerated run, rolls up the
// Result (shards, counters, scheduler and selection stats, virtual
// makespan), and streams the stands. run_sharded passes no cache; the
// session passes a ShardCache that serves clean components and the residual
// from its ResultCache and stores what the driver computed. A session run
// therefore equals a from-scratch run_sharded by construction: there is one
// combination path, not two kept in step. This is an internal decompose API,
// subject to change with its two callers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "decompose/components.hpp"
#include "decompose/sharded.hpp"
#include "gentrius/options.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"

namespace gentrius::decompose::detail {

/// Closed-form residual interleaving count (ShardRunOptions::
/// residual_closed_form). `applicable` is false when some component is
/// non-enumerable (its pass-through constraints are not representative
/// trees, so the identity does not cover them). `saturated` clamps the
/// count to uint64 max when M overflows; intermediates use 128-bit
/// arithmetic, exact far past the point where M itself overflows.
struct ResidualClosedForm {
  bool applicable = false;
  bool saturated = false;
  std::uint64_t count = 0;
};

ResidualClosedForm closed_form_residual(const ComponentSplit& split);

/// The canonical representative probe of a component: the first stand tree
/// of a default-options serial run collecting one tree — a deterministic
/// function of the component alone.
struct ShardProbe {
  bool empty = false;
  phylo::Tree tree;  ///< over the "x<i>" label ids; meaningless when empty
};

/// One enumerable component as the driver sees it, in canonical order.
struct ShardSlot {
  const Component* comp = nullptr;
  std::size_t index = 0;  ///< position in ComponentSplit::components
  /// Set by ShardCache::serve: `stats` (and `stands`, when stands are
  /// collected) come from a finished run and stand in for this one.
  bool served = false;
  /// The shard's rollup: the served one, or that of the driver's run.
  core::ShardStats stats;
  /// The stand as Newick over the labels, ascending: the served stand, or
  /// the run's collected one.
  std::vector<std::string> stands;
  /// A served slot's residual constraint (ShardCache::serve_residual);
  /// when null the driver probes the component for one.
  const phylo::Tree* representative = nullptr;
  /// Where the probe is memoised: the cache's memo, or own_probe when null.
  std::optional<ShardProbe>* probe = nullptr;
  std::optional<ShardProbe> own_probe;
  std::vector<phylo::Tree> sub;  ///< member constraints, built by members()

  /// The component's member constraints, in input order.
  const std::vector<phylo::Tree>& members(
      const std::vector<phylo::Tree>& constraints) {
    if (sub.empty()) {
      sub.reserve(comp->constraint_indices.size());
      for (const std::size_t c : comp->constraint_indices)
        sub.push_back(constraints[c]);
    }
    return sub;
  }
};

/// A store of finished shard results that run_shards consults. Each hook
/// runs at most once per run, never per component, and in this order:
/// serve, record, serve_residual, record_residual.
class ShardCache {
 public:
  /// Before any shard runs: marks the slots it holds a usable finished
  /// result for (served, stats, and stands when stands are collected).
  virtual void serve(std::vector<ShardSlot>& slots) = 0;
  /// After the component shards: records the slots the driver ran.
  /// `collected`: their stands were collected (up to collect_limit).
  virtual void record(const std::vector<ShardSlot>& slots, bool collected) = 0;
  /// Before an enumerated residual (not closed form, no empty component):
  /// the served residual rollup, or nullopt. On nullopt the residual runs;
  /// the cache points each served slot's representative at the one it
  /// holds, if any.
  virtual std::optional<core::ShardStats> serve_residual(
      std::vector<ShardSlot>& slots,
      const std::vector<phylo::Tree>& passthrough) = 0;
  /// After that residual run: records its rollup.
  virtual void record_residual(const core::ShardStats& stats) = 0;

 protected:
  ~ShardCache() = default;
};

/// Runs the decomposed instance `constraints` (split by analyze_components)
/// as run_sharded documents: component shards, then the residual, combined
/// by saturating product and, when options.collect_trees, cross-product
/// stand streaming. `labels` is the "x<i>" label set; pass it empty or as
/// an earlier call left it (it only grows). `cache` may be null. Throws
/// InvalidInput when no component is enumerable.
core::Result run_shards(const std::vector<phylo::Tree>& constraints,
                        const ComponentSplit& split, phylo::TaxonSet& labels,
                        const core::Options& options,
                        const ShardRunOptions& run, ShardCache* cache);

}  // namespace gentrius::decompose::detail
