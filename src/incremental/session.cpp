#include "incremental/session.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "decompose/shard_exec.hpp"
#include "gentrius/problem.hpp"
#include "gentrius/serial.hpp"
#include "pam/canonical.hpp"
#include "phylo/newick.hpp"
#include "support/error.hpp"

namespace gentrius::incremental {

namespace {

using core::Options;
using core::Result;
using core::ShardStats;
using core::StopReason;
using decompose::Component;
using support::InvalidInput;

constexpr auto kNoRank = static_cast<std::size_t>(-1);

/// taxon id -> canonical rank of the component instance (kNoRank outside).
std::vector<std::size_t> rank_of_taxon(
    const std::vector<phylo::TaxonId>& order) {
  phylo::TaxonId max_id = 0;
  for (const phylo::TaxonId t : order) max_id = std::max(max_id, t);
  std::vector<std::size_t> rank(max_id + 1, kNoRank);
  for (std::size_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return rank;
}

/// TaxonSet under which parsing rank-label Newick yields session taxon ids:
/// id i carries the rank label of order^-1(i) (ids outside the component
/// get unique pad labels so the dense id assignment lines up).
phylo::TaxonSet rank_parse_labels(const std::vector<phylo::TaxonId>& order) {
  const auto rank = rank_of_taxon(order);
  phylo::TaxonSet ts;
  for (std::size_t id = 0; id < rank.size(); ++id)
    ts.add(rank[id] != kNoRank ? core::canonical_rank_label(rank[id])
                               : "_pad" + std::to_string(id));
  return ts;
}

/// True iff `present` holds exactly the taxa of the ascending list `taxa`.
bool same_taxa(const std::vector<phylo::TaxonId>& taxa,
               const support::Bitset& present) {
  if (taxa.size() != present.count()) return false;
  return std::all_of(taxa.begin(), taxa.end(), [&](phylo::TaxonId t) {
    return t < present.universe_size() && present.test(t);
  });
}

}  // namespace

IncrementalSession::IncrementalSession(phylo::Tree species_tree, pam::Pam pam,
                                       SessionOptions options)
    : species_(std::move(species_tree)),
      pam_(std::move(pam)),
      options_(std::move(options)),
      cache_(options_.cache_capacity) {
  core::validate_options(options_.engine, core::OptionsSurface::kIncremental);
  for (phylo::TaxonId t = 0; t < pam_.taxon_count(); ++t)
    if (!species_.has_taxon(t))
      throw InvalidInput(
          "incremental session: species tree is missing a leaf for taxon " +
          std::to_string(t) +
          " (it must span the session's full taxon universe)");
}

support::Fingerprint IncrementalSession::instance_fingerprint() const {
  // The fingerprint of what the session actually enumerates: the induced
  // constraint instance. Relabel-invariant whenever the canonicalizer's
  // branch budget holds (CanonicalInstance::relabel_invariant).
  const auto constraints =
      pam::induced_subtrees(species_, pam_, options_.min_taxa);
  if (constraints.empty())
    return support::fingerprint_bytes("gentrius-instance-v1 empty\n");
  return core::instance_fingerprint(constraints);
}

Result IncrementalSession::apply(const PamDelta& edit) {
  return apply(EditScript{edit});
}

IncrementalSession::Plan IncrementalSession::analyse(const pam::Pam& pam,
                                                    Plan& previous) const {
  Plan plan;
  constexpr auto kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> previous_constraint(previous.locus_taxa.size(),
                                               kNone);
  for (std::size_t c = 0; c < previous.constraint_locus.size(); ++c)
    previous_constraint[previous.constraint_locus[c]] = c;

  // Induced subtrees, exactly as pam::induced_subtrees: the species tree is
  // fixed, so a locus whose taxon set is unchanged keeps its subtree.
  plan.locus_taxa.reserve(pam.locus_count());
  for (std::size_t l = 0; l < pam.locus_count(); ++l) {
    const bool same = l < previous.locus_taxa.size() &&
                      same_taxa(previous.locus_taxa[l], pam.locus_taxa(l));
    plan.locus_taxa.push_back(same ? std::move(previous.locus_taxa[l])
                                   : pam.locus_taxa_list(l));
    if (plan.locus_taxa.back().size() < options_.min_taxa) continue;
    plan.constraint_locus.push_back(l);
    plan.constraints.push_back(
        same ? std::move(previous.constraints[previous_constraint[l]])
             : pam::induced_subtree(species_, pam, l));
  }
  plan.split = decompose::analyze_components(plan.constraints);

  plan.components.resize(plan.split.components.size());
  for (std::size_t i = 0; i < plan.split.components.size(); ++i) {
    const Component& comp = plan.split.components[i];
    if (!comp.enumerable) continue;
    ComponentMemo& memo = plan.components[i];
    memo.key.reserve(comp.constraint_indices.size());
    for (const std::size_t c : comp.constraint_indices)
      memo.key.push_back(plan.locus_taxa[plan.constraint_locus[c]]);
    for (ComponentMemo& old : previous.components)
      if (!old.key.empty() && old.key == memo.key) {
        memo = std::exchange(old, ComponentMemo{});
        break;
      }
  }

  // Id-stable labels for Newick round-tripping, exactly as plan_shards.
  // Only Newick written over them is ever parsed against them, so no label
  // is ever added: a label set is a function of its size.
  phylo::TaxonId max_id = 0;
  for (const Component& comp : plan.split.components)
    max_id = std::max(max_id, comp.taxa.back());
  if (previous.labels.size() == std::size_t{max_id} + 1) {
    plan.labels = std::move(previous.labels);
  } else {
    for (phylo::TaxonId t = 0; t <= max_id; ++t)
      plan.labels.add("x" + std::to_string(t));
  }
  return plan;
}

IncrementalSession::Plan& IncrementalSession::current_plan() {
  if (!plan_) {
    Plan none;
    plan_ = analyse(pam_, none);
  }
  return *plan_;
}

Result IncrementalSession::apply(const EditScript& script) {
  current_plan();

  // Validate-then-commit: the script lands on a scratch copy, so a
  // mid-script failure (out-of-range index, filling an already-present
  // cell, ...) rethrows with the session matrix untouched — apply() is
  // atomic as documented. Each kAddTaxon's assigned taxon id is recorded
  // here because it is unrecoverable from the post-script matrix alone.
  pam::Pam edited = pam_;
  std::vector<phylo::TaxonId> added_taxon(script.size(), phylo::kNoTaxon);
  for (std::size_t i = 0; i < script.size(); ++i) {
    if (script[i].kind == EditKind::kAddTaxon)
      added_taxon[i] = static_cast<phylo::TaxonId>(edited.taxon_count());
    apply_edit(edited, script[i], species_.leaf_count());
  }
  // The edited matrix's plan takes over every unchanged part of the
  // current one; the memo stays empty until both matrix and plan commit.
  Plan before_plan = std::move(*plan_);
  plan_.reset();
  Plan after_plan = analyse(edited, before_plan);
  const pam::Pam before_pam = std::move(pam_);
  pam_ = std::move(edited);
  plan_ = std::move(after_plan);
  const decompose::ComponentSplit& before = before_plan.split;
  const decompose::ComponentSplit& after = plan_->split;

  // Merged classification across the script: union of touched components,
  // OR of the structure flags (each edit judged against the script-level
  // before/after splits).
  DeltaClass merged;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const PamDelta& edit = script[i];
    const DeltaClass c = classify_delta(edit, before_pam, before, pam_, after,
                                        added_taxon[i]);
    merged.touched_before.insert(merged.touched_before.end(),
                                 c.touched_before.begin(),
                                 c.touched_before.end());
    merged.touched_after.insert(merged.touched_after.end(),
                                c.touched_after.begin(),
                                c.touched_after.end());
    merged.merged |= c.merged;
    merged.split |= c.split;
  }
  const auto dedup = [](std::vector<std::size_t>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  dedup(merged.touched_before);
  dedup(merged.touched_after);
  last_class_ = std::move(merged);

  return enumerate();
}

Result IncrementalSession::enumerate() { return run_cached(); }

Result IncrementalSession::run_cached() {
  namespace detail = decompose::detail;

  Plan& plan = current_plan();
  const auto& constraints = plan.constraints;
  const auto& split = plan.split;
  if (split.enumerable_count == 0)
    throw InvalidInput(
        "decompose: no component contains a constraint with >= 3 taxa; "
        "nothing is enumerable");
  phylo::TaxonSet& labels = plan.labels;

  const Options base = detail::shard_options(options_.engine);
  const std::uint64_t evictions_before = cache_.evictions();

  Result out;
  out.reason = StopReason::kCompleted;

  const bool want_stands = options_.engine.collect_trees;
  // With the closed-form residual and no stands to collect, nothing
  // consumes a representative: the residual count is a formula of the
  // component sizes, and a completed component run settles emptiness by
  // itself. The one-tree probe then waits until something needs it.
  const bool defer_probe = options_.run.residual_closed_form && !want_stands &&
                           split.enumerable_count == split.components.size();

  // ---- plan phase: canonicalize, look up, settle emptiness ----------------
  struct CompWork {
    const Component* comp = nullptr;
    ComponentMemo* memo = nullptr;
    std::vector<phylo::Tree> sub;  ///< member constraints, built on demand
    /// Usable hit (stands included if needed), copied OUT of the cache at
    /// plan time: the run phase inserts recomputed misses, and an insert at
    /// capacity evicts — a pointer into the cache could dangle before its
    /// hit is served.
    std::optional<CacheEntry> hit;
    bool empty = false;
  };
  std::vector<CompWork> work;
  std::vector<phylo::Tree> passthrough;
  bool empty_component = false;

  const auto members = [&](CompWork& w) -> const std::vector<phylo::Tree>& {
    if (w.sub.empty()) w.sub = detail::subset_constraints(constraints, *w.comp);
    return w.sub;
  };
  // Canonical representative probe, byte-identical to plan_shards: a
  // default-options serial run collecting one tree. Probe work is not
  // accumulated into the Result (run_sharded's plan phase is not either);
  // the full shard run recomputes the count.
  const auto probe = [&](CompWork& w) -> const ComponentMemo::Probe& {
    if (!w.memo->probe) {
      Options o;
      o.collect_trees = true;
      o.collect_limit = 1;
      o.stop.max_stand_trees = 1;
      o.tree_names = &labels;
      const Result r = core::run_serial(members(w), o);
      ComponentMemo::Probe p;
      p.empty = r.trees.empty();
      if (!p.empty) p.tree = phylo::parse_newick(r.trees.front(), labels);
      w.memo->probe = std::move(p);
    }
    return *w.memo->probe;
  };
  const auto rank_labels = [](ComponentMemo& m) -> phylo::TaxonSet& {
    if (!m.rank_labels) m.rank_labels = rank_parse_labels(m.canon->order);
    return *m.rank_labels;
  };
  // The residual constraint of a component: a hit's cached representative,
  // translated into session ids; otherwise (a miss, or an entry stored
  // while its probe was deferred) the probe's tree, as plan_shards has it.
  const auto representative = [&](CompWork& w) -> const phylo::Tree& {
    ComponentMemo& m = *w.memo;
    if (w.hit && !w.hit->representative.empty()) {
      if (!m.hit_tree || m.hit_newick != w.hit->representative) {
        m.hit_tree.reset();
        m.hit_newick = w.hit->representative;
        m.hit_tree = phylo::parse_newick(m.hit_newick, rank_labels(m));
      }
      return *m.hit_tree;
    }
    return probe(w).tree;
  };

  for (std::size_t i = 0; i < split.components.size(); ++i) {
    const Component& comp = split.components[i];
    if (!comp.enumerable) {
      for (const std::size_t c : comp.constraint_indices)
        passthrough.push_back(constraints[c]);
      continue;
    }
    CompWork w;
    w.comp = &comp;
    w.memo = &plan.components[i];
    if (!w.memo->canon)
      w.memo->canon = core::canonicalize_instance(members(w));
    const core::CanonicalInstance& canon = *w.memo->canon;
    const CacheEntry* entry = cache_.find(canon.fp, canon.encoding);
    // A hit serves stand streaming only when its stand fits the caller's
    // collect_limit: a from-scratch run truncates each component's
    // collection at the limit, so serving a larger cached stand would break
    // byte-equality with run_sharded in the truncated regime.
    if (entry && (!want_stands || entry->stand_trees == 0 ||
                  (entry->stands_complete &&
                   entry->stands.size() <= options_.engine.collect_limit))) {
      w.hit = *entry;
      w.empty = entry->stand_trees == 0;
    } else if (!defer_probe) {
      w.empty = probe(w).empty;
    }
    if (w.empty) empty_component = true;
    work.push_back(std::move(w));
  }

  // ---- run phase: serve clean components, re-enumerate dirty ones ---------
  std::uint64_t product = 1;
  std::vector<double> makespans;  // executed shards only: a cached shard
                                  // costs no dispatch, run, or merge
  std::vector<std::vector<std::string>> component_stands;
  const bool collect = want_stands && !empty_component;

  for (CompWork& w : work) {
    const Component& comp = *w.comp;
    if (w.hit) {
      ShardStats s = w.hit->stats;
      s.reused = true;
      out.shards.push_back(s);
      product =
          detail::saturating_mul(product, w.hit->stand_trees,
                                 out.count_saturated);
      if (collect) {
        // Cached stands live in rank space; translate into session labels
        // through the engine's canonical Newick so the streamed tuples are
        // byte-identical to a from-scratch run's.
        phylo::TaxonSet& parse_ts = rank_labels(*w.memo);
        std::vector<std::string> stands;
        stands.reserve(w.hit->stands.size());
        for (const std::string& s_rank : w.hit->stands)
          stands.push_back(phylo::canonical_newick(
              phylo::parse_newick(s_rank, parse_ts), labels));
        std::sort(stands.begin(), stands.end());
        component_stands.push_back(std::move(stands));
      }
      out.cache.hits += 1;
      out.cache.reused_components += 1;
      out.cache.reused_states += w.hit->stats.intermediate_states;
      continue;
    }

    Options comp_opts = base;
    if (collect) {
      comp_opts.collect_trees = true;
      comp_opts.collect_limit = options_.engine.collect_limit;
      comp_opts.tree_names = &labels;
    } else {
      comp_opts.collect_trees = false;
    }
    Result r = detail::run_one_shard(members(w), comp_opts, options_.run);
    const ShardStats stats =
        detail::make_stats(ShardStats::Kind::kComponent, comp.taxa.size(),
                           comp.constraint_indices.size(), r);
    out.shards.push_back(stats);
    detail::accumulate(out, r);
    product = detail::saturating_mul(product, r.stand_trees,
                                     out.count_saturated);
    makespans.push_back(r.virtual_makespan);
    out.cache.misses += 1;
    out.cache.recomputed_components += 1;
    out.cache.recomputed_states += r.intermediate_states;

    if (collect) std::sort(r.trees.begin(), r.trees.end());

    const bool completed = r.reason == StopReason::kCompleted ||
                           r.reason == StopReason::kEmptyStand;
    if (defer_probe) {
      // A completed run settles emptiness; one cut by a stopping rule does
      // not, so that component is probed as plan_shards would.
      w.empty = completed ? r.stand_trees == 0 : probe(w).empty;
      if (w.empty) empty_component = true;
    }

    // Only completed runs are cacheable: a truncated count is a property
    // of the stopping rules, not of the instance.
    if (completed) {
      const core::CanonicalInstance& canon = *w.memo->canon;
      CacheEntry entry;
      entry.encoding = canon.encoding;
      entry.stand_trees = r.stand_trees;
      entry.stats = stats;
      const auto rank = rank_of_taxon(canon.order);
      // Without a probe (deferred) the entry carries no representative; a
      // later residual run probes the component instead.
      if (w.memo->probe && !w.memo->probe->empty)
        entry.representative = core::rank_newick(w.memo->probe->tree, rank);
      if (collect && r.trees.size() == r.stand_trees) {
        entry.stands.reserve(r.trees.size());
        for (const std::string& s_x : r.trees)
          entry.stands.push_back(
              core::rank_newick(phylo::parse_newick(s_x, labels), rank));
        std::sort(entry.stands.begin(), entry.stands.end());
        entry.stands_complete = true;
      }
      cache_.insert(canon.fp, std::move(entry));
    }

    if (collect) component_stands.push_back(std::move(r.trees));
  }

  // ---- residual shard: cached by its size signature -----------------------
  std::uint64_t residual_count = 0;
  decompose::detail::ResidualClosedForm closed;
  if (options_.run.residual_closed_form && !empty_component)
    closed = detail::closed_form_residual(split);
  if (closed.applicable) {
    // Closed form costs nothing, so it bypasses the cache entirely (no
    // hit/miss traffic): M is a formula of the size signature, not a run.
    std::size_t universe = 0;
    for (const Component& comp : split.components)
      universe += comp.taxa.size();
    ShardStats s;
    s.kind = ShardStats::Kind::kResidual;
    s.n_taxa = universe;
    s.n_constraints = work.size() + passthrough.size();
    s.stand_trees = closed.count;
    out.shards.push_back(s);
    residual_count = closed.count;
    if (closed.saturated) out.count_saturated = true;
    product = detail::saturating_mul(product, residual_count,
                                     out.count_saturated);
  } else if (!empty_component) {
    std::size_t universe = 0;
    for (const Component& comp : split.components)
      universe += comp.taxa.size();
    std::vector<std::size_t> sizes;
    for (const CompWork& w : work) sizes.push_back(w.comp->taxa.size());
    std::sort(sizes.begin(), sizes.end());
    std::string res_encoding =
        "gentrius-residual-v2 n=" + std::to_string(universe) + " sizes=";
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (i) res_encoding.push_back(',');
      res_encoding += std::to_string(sizes[i]);
    }
    // Pass-through constraints (<= 2 taxa each) are vacuous in theory, but
    // closed_form_residual refuses to count across them — the cache must
    // not assume more shape independence than the closed form proves, so
    // the key carries them byte for byte.
    std::vector<std::string> pass_enc;
    pass_enc.reserve(passthrough.size());
    for (const phylo::Tree& t : passthrough)
      pass_enc.push_back(phylo::canonical_newick(t, labels));
    std::sort(pass_enc.begin(), pass_enc.end());
    res_encoding += " pass=";
    for (std::size_t i = 0; i < pass_enc.size(); ++i) {
      if (i) res_encoding.push_back(';');
      res_encoding += pass_enc[i];
    }
    res_encoding.push_back('\n');
    const support::Fingerprint res_fp =
        support::fingerprint_bytes(res_encoding);
    const std::size_t residual_size = work.size() + passthrough.size();

    if (const CacheEntry* entry = cache_.find(res_fp, res_encoding)) {
      // The interleaving count M depends only on the size signature
      // (DESIGN.md "Decomposition") and the pass-through constraints the
      // key carries verbatim, so any cached completed residual of this
      // encoding carries the exact count — whatever representatives it was
      // computed from.
      ShardStats s = entry->stats;
      s.reused = true;
      s.n_taxa = universe;
      s.n_constraints = residual_size;
      out.shards.push_back(s);
      residual_count = entry->stand_trees;
      product = detail::saturating_mul(product, residual_count,
                                       out.count_saturated);
      out.cache.hits += 1;
      out.cache.reused_states += entry->stats.intermediate_states;
    } else {
      std::vector<phylo::Tree> residual_constraints;
      residual_constraints.reserve(residual_size);
      for (CompWork& w : work)
        residual_constraints.push_back(representative(w));
      residual_constraints.insert(residual_constraints.end(),
                                  passthrough.begin(), passthrough.end());
      Options res_opts = base;
      res_opts.collect_trees = false;
      const Result r =
          detail::run_one_shard(residual_constraints, res_opts, options_.run);
      const ShardStats stats = detail::make_stats(
          ShardStats::Kind::kResidual, universe, residual_size, r);
      out.shards.push_back(stats);
      detail::accumulate(out, r);
      residual_count = r.stand_trees;
      product = detail::saturating_mul(product, residual_count,
                                       out.count_saturated);
      makespans.push_back(r.virtual_makespan);
      out.cache.misses += 1;
      out.cache.recomputed_states += r.intermediate_states;
      if (r.reason == StopReason::kCompleted) {
        CacheEntry residual;
        residual.encoding = res_encoding;
        residual.stand_trees = r.stand_trees;
        residual.stats = stats;
        cache_.insert(res_fp, std::move(residual));
      }
    }
  } else {
    product = 0;
  }

  out.stand_trees = product;
  if (options_.run.backend == decompose::ShardBackend::kVirtual)
    out.virtual_makespan = detail::combine_makespans(makespans, options_.run);

  if (collect && product > 0 && !component_stands.empty())
    detail::stream_cross_product(component_stands, passthrough, labels, base,
                                 options_.engine, residual_count, out);

  out.cache.evictions = cache_.evictions() - evictions_before;
  lifetime_.merge(out.cache);
  return out;
}

}  // namespace gentrius::incremental
