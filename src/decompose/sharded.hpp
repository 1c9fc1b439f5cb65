// Sharded enumeration of a decomposed instance (Options::decompose).
//
// The product law (DESIGN.md "Decomposition"): with the constraint set
// split into interaction-graph components C_1..C_k (components.hpp),
//
//   stand(whole) = disjoint union over tuples (t_1..t_k), t_i in
//                  stand(C_i), of stand({t_1..t_k} + vacuous constraints)
//   count(whole) = prod_i count(C_i) * M
//
// where M — the interleaving count, the number of trees on the whole
// universe displaying one fixed tree per component — depends only on the
// component *sizes* (M = (2n-5)!! / prod_i (2n_i-5)!!), never on which
// stand trees were fixed. The sharded driver therefore runs k component
// shards plus one *canonical residual shard* — the instance whose
// constraints are one canonical representative stand tree per component —
// through the existing engine, multiplies the counts (saturating), and,
// when trees are collected, streams the cross product: every tuple of
// component stand trees is itself a tiny Gentrius instance whose stand is
// enumerated and emitted.
//
// The representative of a component is the first stand tree of a canonical
// serial probe run (default Options, collect one tree) — a deterministic
// function of the component alone, so the residual shard, the shard order
// and every trace line derived from them are reproducible byte for byte.
//
// Shards run serially, on the real pool, or on the virtual-time simulator
// (ShardBackend); virtual runs charge CostModel::shard_dispatch_cost /
// shard_merge_cost per shard and combine shard makespans under a
// sequential or concurrent shard schedule.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "decompose/components.hpp"
#include "gentrius/options.hpp"
#include "parallel/pool.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"
#include "vthread/virtual_pool.hpp"

namespace gentrius::decompose {

/// Which engine driver executes each shard.
enum class ShardBackend : std::uint8_t {
  kSerial,   ///< core::run_serial per shard
  kPool,     ///< parallel::run_parallel per shard (real threads)
  kVirtual,  ///< vthread::run_virtual per shard (deterministic simulation)
};

inline const char* to_string(ShardBackend b) {
  switch (b) {
    case ShardBackend::kSerial: return "serial";
    case ShardBackend::kPool: return "pool";
    case ShardBackend::kVirtual: return "virtual";
  }
  return "?";
}

/// How shard makespans combine on the virtual backend. Sequential models
/// one machine running the shards back to back; concurrent models a
/// distributed deployment — one machine per shard — where dispatches leave
/// a single coordinator one after another and merges return to it.
enum class ShardSchedule : std::uint8_t { kSequential, kConcurrent };

inline const char* to_string(ShardSchedule s) {
  switch (s) {
    case ShardSchedule::kSequential: return "sequential";
    case ShardSchedule::kConcurrent: return "concurrent";
  }
  return "?";
}

struct ShardRunOptions {
  ShardBackend backend = ShardBackend::kSerial;
  std::size_t n_threads = 1;  ///< per shard (pool/virtual backends)
  ShardSchedule schedule = ShardSchedule::kSequential;
  vthread::CostModel costs;  ///< virtual backend only
  /// Compute the residual shard's interleaving count in closed form,
  ///   M = (2n-5)!! / prod_i (2n_i-5)!!
  /// (shape independence; DESIGN.md "Decomposition"), instead of
  /// enumerating the residual instance. Exact — the product-law suite
  /// proves the identity against enumeration — but applied only when every
  /// component is enumerable; instances with pass-through constraints fall
  /// back to enumeration. Off by default: the enumerated residual run (and
  /// its golden trace lines) is part of the paper-faithful output. This is
  /// what makes instances with many components tractable at all: M grows
  /// double-factorially with the universe and dwarfs every component shard.
  bool residual_closed_form = false;
};

/// The executable decomposition of an instance: the component split, one
/// canonical representative per enumerable component, and the residual
/// instance (representatives plus the pass-through constraints of
/// non-enumerable components).
struct ShardPlan {
  ComponentSplit split;
  /// Representative stand tree per enumerable component, in canonical
  /// component order. Empty trees never appear: a component whose stand is
  /// empty sets `empty_component` instead.
  std::vector<phylo::Tree> representatives;
  /// Constraints of non-enumerable components, passed through verbatim.
  std::vector<phylo::Tree> passthrough;
  /// representatives + passthrough: the canonical residual instance.
  std::vector<phylo::Tree> residual_constraints;
  /// Some enumerable component has an empty stand (the whole stand is
  /// empty; the residual shard is not runnable and is skipped).
  bool empty_component = false;
  /// Internal id-stable labels ("x<id>") used to round-trip component stand
  /// trees through the engine's Newick collection. Outlives every shard run
  /// started from this plan.
  phylo::TaxonSet labels;
};

/// Canonical one-line rendering of a shard rollup, shared by golden traces,
/// benches and tests so they agree byte for byte:
///   "shard <kind> taxa=N constraints=N trees=N states=N dead_ends=N
///    reason=<reason>"
/// Deliberately integer-only (no makespans) so the line is identical across
/// backends that enumerate the same shard.
std::string shard_trace_line(const core::ShardStats& s);

/// Builds the shard plan: analyzes components and runs one canonical serial
/// probe per enumerable component for its representative. Throws
/// InvalidInput when no component is enumerable (the same inputs
/// build_problem rejects).
ShardPlan plan_shards(const std::vector<phylo::Tree>& constraints);

/// Runs the decomposed instance: component shards plus the residual shard
/// through the chosen backend, combining counts by (saturating) product and
/// — when options.collect_trees — stands by cross-product streaming.
/// Result::shards carries the per-shard rollups in canonical order
/// (components first, residual last); intermediate_states / dead_ends /
/// sched / selection are the sums over shard runs. Shard runs clear
/// Options::initial_constraint and Options::insertion_order (whole-instance
/// indices and orders are meaningless inside a shard); every other option
/// applies per shard. options.decompose is ignored — calling this function
/// *is* the opt-in.
core::Result run_sharded(const std::vector<phylo::Tree>& constraints,
                         const core::Options& options,
                         const ShardRunOptions& run = {});

}  // namespace gentrius::decompose
