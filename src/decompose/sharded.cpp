#include "decompose/sharded.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "decompose/shard_exec.hpp"
#include "gentrius/problem.hpp"
#include "gentrius/serial.hpp"
#include "phylo/newick.hpp"
#include "support/check.hpp"
#include "support/error.hpp"

namespace gentrius::decompose {

namespace detail {

ResidualClosedForm closed_form_residual(const ComponentSplit& split) {
  ResidualClosedForm out;
  std::size_t universe = 0;
  for (const Component& comp : split.components) {
    if (!comp.enumerable) return out;
    universe += comp.taxa.size();
  }
  out.applicable = true;

  __extension__ using u128 = unsigned __int128;
  constexpr u128 kMax128 = ~static_cast<u128>(0);
  constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
  u128 num = 1;
  for (std::size_t k = 4; k <= universe; ++k) {
    const u128 f = 2 * k - 5;
    if (num > kMax128 / f) {
      // Numerator needs > 128 bits (universe > 37); M >= (2n-5)!! / (2n-7)!!
      // per component merge is astronomically past uint64 by then.
      out.saturated = true;
      out.count = kMax64;
      return out;
    }
    num *= f;
  }
  // The denominator divides the numerator exactly (M is a tree count), and
  // it never exceeds it, so a single 128-bit division is exact.
  u128 den = 1;
  for (const Component& comp : split.components)
    for (std::size_t k = 4; k <= comp.taxa.size(); ++k) den *= 2 * k - 5;
  const u128 m = num / den;
  GENTRIUS_DCHECK(m * den == num);
  if (m > kMax64) {
    out.saturated = true;
    out.count = kMax64;
  } else {
    out.count = static_cast<std::uint64_t>(m);
  }
  return out;
}

}  // namespace detail

namespace {

using core::Options;
using core::Result;
using core::ShardStats;
using core::StopReason;
using detail::ShardProbe;
using detail::ShardSlot;

/// a * b clamped to uint64 max; sets `saturated` on clamp.
std::uint64_t saturating_mul(std::uint64_t a, std::uint64_t b,
                             bool& saturated) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<std::uint64_t>::max() / b) {
    saturated = true;
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

void require_enumerable(const ComponentSplit& split) {
  if (split.enumerable_count == 0)
    throw support::InvalidInput(
        "decompose: no component contains a constraint with >= 3 taxa; "
        "nothing is enumerable");
}

/// Extends `labels` to the id-stable labels "x<i>" (label "x<i>" gets id i)
/// for every taxon of the split, used to round-trip component stand trees
/// through the engine's Newick collection. Only Newick written over them is
/// ever parsed against them, so a set that covers more ids serves as well.
void extend_labels(const ComponentSplit& split, phylo::TaxonSet& labels) {
  phylo::TaxonId max_id = 0;
  for (const Component& comp : split.components)
    max_id = std::max(max_id, comp.taxa.back());
  for (auto t = static_cast<phylo::TaxonId>(labels.size()); t <= max_id; ++t)
    labels.add("x" + std::to_string(t));
}

/// The canonical representative probe (ShardProbe), independent of the
/// caller's heuristic configuration.
ShardProbe probe_component(const std::vector<phylo::Tree>& members,
                           phylo::TaxonSet& labels) {
  Options o;
  o.collect_trees = true;
  o.collect_limit = 1;
  o.stop.max_stand_trees = 1;
  o.tree_names = &labels;
  const Result r = core::run_serial(members, o);
  ShardProbe p;
  p.empty = r.trees.empty();
  if (!p.empty) p.tree = phylo::parse_newick(r.trees.front(), labels);
  return p;
}

/// Shard-local option view: whole-instance overrides cannot survive into a
/// shard (initial_constraint indexes the whole constraint list, an
/// insertion_order permutes the whole missing-taxa set), and the shard
/// itself must never recurse into decomposition.
Options shard_options(const Options& options) {
  Options o = options;
  o.decompose = core::Decompose::kOff;
  o.initial_constraint.reset();
  o.insertion_order.clear();
  return o;
}

/// Runs one shard instance through the backend selected by `run`.
Result run_one_shard(const std::vector<phylo::Tree>& constraints,
                     const Options& options, const ShardRunOptions& run) {
  switch (run.backend) {
    case ShardBackend::kSerial:
      return core::run_serial(constraints, options);
    case ShardBackend::kPool:
      return parallel::run_parallel(core::build_problem(constraints, options),
                                    options, run.n_threads);
    case ShardBackend::kVirtual:
      return vthread::run_virtual(core::build_problem(constraints, options),
                                  options, run.n_threads, run.costs);
  }
  GENTRIUS_CHECK(false);
}

ShardStats make_stats(ShardStats::Kind kind, std::size_t n_taxa,
                      std::size_t n_constraints, const Result& r) {
  ShardStats s;
  s.kind = kind;
  s.n_taxa = n_taxa;
  s.n_constraints = n_constraints;
  s.stand_trees = r.stand_trees;
  s.intermediate_states = r.intermediate_states;
  s.dead_ends = r.dead_ends;
  s.reason = r.reason;
  s.selection = r.selection;
  s.sched = r.sched;
  s.virtual_makespan = r.virtual_makespan;
  return s;
}

/// Folds a shard run into the combined result (counters, scheduler and
/// selection stats, first-stopping-rule-wins reason).
void accumulate(Result& out, const Result& r) {
  out.intermediate_states += r.intermediate_states;
  out.dead_ends += r.dead_ends;
  out.tasks_executed += r.tasks_executed;
  out.tasks_offered += r.tasks_offered;
  out.sched.merge(r.sched);
  out.selection.merge(r.selection);
  // The first stopping rule that fired anywhere decides the combined
  // reason; an empty shard stand is a *result* (count 0), not a stop.
  if (out.reason == StopReason::kCompleted &&
      r.reason != StopReason::kCompleted &&
      r.reason != StopReason::kEmptyStand)
    out.reason = r.reason;
}

/// Sharded virtual-time accounting (virtual backend only; see CostModel).
double combine_makespans(const std::vector<double>& makespans,
                         const ShardRunOptions& run) {
  const double dispatch = run.costs.shard_dispatch_cost;
  const double merge = run.costs.shard_merge_cost;
  const auto n = static_cast<double>(makespans.size());
  if (run.schedule == ShardSchedule::kSequential) {
    double total = 0.0;
    for (const double m : makespans) total += dispatch + m + merge;
    return total;
  }
  // Concurrent: one machine per shard. Dispatches leave the coordinator
  // back to back, shards overlap, merges serialize on the coordinator
  // after the last shard finishes.
  double finish = 0.0;
  for (std::size_t s = 0; s < makespans.size(); ++s)
    finish = std::max(
        finish, dispatch * static_cast<double>(s + 1) + makespans[s]);
  return finish + merge * n;
}

/// Cross-product stand streaming: every tuple of component stand trees,
/// plus the vacuous pass-through constraints, is an instance whose stand is
/// a slice of the whole stand; the slices are disjoint and exhaustive. Each
/// slot holds its component's sorted stand. Appends to out.trees up to
/// caller.collect_limit; tuple instances run serially (they are
/// interleaving-only and cheap: no component branching remains inside
/// them). `base` is the shard-local option view; `residual_count` is the
/// interleaving count every tuple instance must reproduce (DCHECKed).
void stream_cross_product(const std::vector<ShardSlot>& slots,
                          const std::vector<phylo::Tree>& passthrough,
                          phylo::TaxonSet& labels, const Options& base,
                          const Options& caller, std::uint64_t residual_count,
                          Result& out) {
  const std::size_t k = slots.size();
  // done: a truncated-to-empty component list (collect_limit == 0), or
  // the odometer wrapped — every tuple has been streamed.
  bool done = false;
  for (const ShardSlot& slot : slots)
    if (slot.stands.empty()) done = true;
  std::vector<std::size_t> index(k, 0);
  Options tuple_opts = base;
  tuple_opts.collect_trees = true;
  tuple_opts.tree_names = caller.tree_names;
  while (!done && out.trees.size() < caller.collect_limit) {
    std::vector<phylo::Tree> tuple = passthrough;
    for (std::size_t i = 0; i < k; ++i)
      tuple.push_back(phylo::parse_newick(slots[i].stands[index[i]], labels));
    tuple_opts.collect_limit = caller.collect_limit - out.trees.size();
    Result r = core::run_serial(tuple, tuple_opts);
    // Shape independence of the interleaving count: every tuple instance
    // has the residual instance's count (the residual *is* the canonical
    // representatives' tuple).
    GENTRIUS_DCHECK(r.reason != StopReason::kCompleted ||
                    out.reason != StopReason::kCompleted ||
                    r.stand_trees == residual_count);
    out.trees.insert(out.trees.end(),
                     std::make_move_iterator(r.trees.begin()),
                     std::make_move_iterator(r.trees.end()));
    // Odometer over the tuple space, last component fastest.
    std::size_t i = k;
    while (i > 0) {
      --i;
      if (++index[i] < slots[i].stands.size()) break;
      index[i] = 0;
      if (i == 0) done = true;  // wrapped: all tuples streamed
    }
  }
}

}  // namespace

namespace detail {

Result run_shards(const std::vector<phylo::Tree>& constraints,
                  const ComponentSplit& split, phylo::TaxonSet& labels,
                  const Options& options, const ShardRunOptions& run,
                  ShardCache* cache) {
  require_enumerable(split);
  extend_labels(split, labels);
  const Options base = shard_options(options);

  std::vector<ShardSlot> slots;
  slots.reserve(split.enumerable_count);
  std::vector<phylo::Tree> passthrough;
  std::size_t universe = 0;
  for (std::size_t i = 0; i < split.components.size(); ++i) {
    const Component& comp = split.components[i];
    universe += comp.taxa.size();
    if (comp.enumerable) {
      slots.emplace_back();
      slots.back().comp = &comp;
      slots.back().index = i;
    } else {
      for (const std::size_t c : comp.constraint_indices)
        passthrough.push_back(constraints[c]);
    }
  }
  if (cache) cache->serve(slots);

  const auto probe = [&](ShardSlot& slot) -> const ShardProbe& {
    std::optional<ShardProbe>& memo = slot.probe ? *slot.probe : slot.own_probe;
    if (!memo) memo = probe_component(slot.members(constraints), labels);
    return *memo;
  };

  // Settle emptiness before anything runs: a served count, else the probe.
  // With the closed-form residual and no stands to collect, nothing
  // consumes a representative (the residual count is a formula of the
  // component sizes) and a completed component run settles emptiness by
  // itself, so the probe waits until something needs it.
  const bool defer_probe = run.residual_closed_form && !options.collect_trees &&
                           split.enumerable_count == split.components.size();
  bool empty_component = false;
  for (ShardSlot& slot : slots) {
    if (slot.served)
      empty_component |= slot.stats.stand_trees == 0;
    else if (!defer_probe)
      empty_component |= probe(slot).empty;
  }
  const bool collect = options.collect_trees && !empty_component;

  Result out;
  out.reason = StopReason::kCompleted;
  std::uint64_t product = 1;
  // Executed shards only: a served shard costs no dispatch, run or merge.
  std::vector<double> makespans;

  for (ShardSlot& slot : slots) {
    if (slot.served) {
      slot.stats.reused = true;
      out.shards.push_back(slot.stats);
      product = saturating_mul(product, slot.stats.stand_trees,
                               out.count_saturated);
      continue;
    }
    Options comp_opts = base;
    comp_opts.collect_trees = collect;
    if (collect) {
      comp_opts.collect_limit = options.collect_limit;
      comp_opts.tree_names = &labels;
    }
    Result r = run_one_shard(slot.members(constraints), comp_opts, run);
    slot.stats = make_stats(ShardStats::Kind::kComponent,
                            slot.comp->taxa.size(),
                            slot.comp->constraint_indices.size(), r);
    out.shards.push_back(slot.stats);
    accumulate(out, r);
    product = saturating_mul(product, r.stand_trees, out.count_saturated);
    makespans.push_back(r.virtual_makespan);
    if (defer_probe) {
      // A completed run settles emptiness; one cut by a stopping rule does
      // not, so that component is probed.
      const bool completed = r.reason == StopReason::kCompleted ||
                             r.reason == StopReason::kEmptyStand;
      empty_component |= completed ? r.stand_trees == 0 : probe(slot).empty;
    }
    if (collect) {
      // Canonical tuple order must not depend on the backend's worker
      // interleaving: sort each component's stand lexicographically.
      std::sort(r.trees.begin(), r.trees.end());
      slot.stands = std::move(r.trees);
    }
  }
  if (cache) cache->record(slots, collect);

  // The residual shard: one representative per enumerable component plus
  // the pass-through constraints, skipped when some stand is empty.
  ShardStats residual;
  if (!empty_component) {
    const ResidualClosedForm closed = run.residual_closed_form
                                          ? closed_form_residual(split)
                                          : ResidualClosedForm{};
    std::optional<ShardStats> served;
    if (!closed.applicable && cache)
      served = cache->serve_residual(slots, passthrough);
    if (closed.applicable) {
      residual.stand_trees = closed.count;
      out.count_saturated |= closed.saturated;
    } else if (served) {
      // The interleaving count depends only on the size signature and the
      // pass-through constraints, so a served residual's count is exact
      // whatever representatives it was computed from.
      residual = *served;
      residual.reused = true;
    } else {
      std::vector<phylo::Tree> residual_constraints;
      for (ShardSlot& slot : slots)
        residual_constraints.push_back(slot.representative
                                           ? *slot.representative
                                           : probe(slot).tree);
      residual_constraints.insert(residual_constraints.end(),
                                  passthrough.begin(), passthrough.end());
      Options res_opts = base;
      res_opts.collect_trees = false;
      const Result r = run_one_shard(residual_constraints, res_opts, run);
      residual = make_stats(ShardStats::Kind::kResidual, universe,
                            residual_constraints.size(), r);
      accumulate(out, r);
      makespans.push_back(r.virtual_makespan);
      if (cache) cache->record_residual(residual);
    }
    residual.kind = ShardStats::Kind::kResidual;
    residual.n_taxa = universe;
    residual.n_constraints = slots.size() + passthrough.size();
    out.shards.push_back(residual);
    out.stand_trees = saturating_mul(product, residual.stand_trees,
                                     out.count_saturated);
  }
  if (run.backend == ShardBackend::kVirtual)
    out.virtual_makespan = combine_makespans(makespans, run);

  if (collect && out.stand_trees > 0)
    stream_cross_product(slots, passthrough, labels, base, options,
                         residual.stand_trees, out);
  return out;
}

}  // namespace detail

std::string shard_trace_line(const core::ShardStats& s) {
  std::string line = "shard ";
  line += core::to_string(s.kind);
  line += " taxa=" + std::to_string(s.n_taxa);
  line += " constraints=" + std::to_string(s.n_constraints);
  line += " trees=" + std::to_string(s.stand_trees);
  line += " states=" + std::to_string(s.intermediate_states);
  line += " dead_ends=" + std::to_string(s.dead_ends);
  line += " reason=";
  line += core::to_string(s.reason);
  return line;
}

ShardPlan plan_shards(const std::vector<phylo::Tree>& constraints) {
  ShardPlan plan;
  plan.split = analyze_components(constraints);
  require_enumerable(plan.split);
  extend_labels(plan.split, plan.labels);
  for (const Component& comp : plan.split.components) {
    std::vector<phylo::Tree> members;
    for (const std::size_t c : comp.constraint_indices)
      members.push_back(constraints[c]);
    if (!comp.enumerable) {
      plan.passthrough.insert(plan.passthrough.end(), members.begin(),
                              members.end());
      continue;
    }
    ShardProbe p = probe_component(members, plan.labels);
    if (p.empty)
      plan.empty_component = true;
    else
      plan.representatives.push_back(std::move(p.tree));
  }
  plan.residual_constraints = plan.representatives;
  plan.residual_constraints.insert(plan.residual_constraints.end(),
                                   plan.passthrough.begin(),
                                   plan.passthrough.end());
  return plan;
}

Result run_sharded(const std::vector<phylo::Tree>& constraints,
                   const Options& options, const ShardRunOptions& run) {
  core::validate_options(options, core::OptionsSurface::kSharded);
  phylo::TaxonSet labels;
  return detail::run_shards(constraints, analyze_components(constraints),
                            labels, options, run, nullptr);
}

}  // namespace gentrius::decompose
