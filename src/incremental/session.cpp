#include "incremental/session.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "decompose/shard_exec.hpp"
#include "gentrius/problem.hpp"
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
using decompose::detail::ShardSlot;
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

  // The "x<i>" labels only grow (the shard driver extends them).
  plan.labels = std::move(previous.labels);
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

/// The session's side of the shard driver (decompose/shard_exec.hpp):
/// canonicalisation, ResultCache lookups and inserts, and the translation
/// between session ids and the cache's canonical rank space.
class IncrementalSession::Hooks final : public decompose::detail::ShardCache {
 public:
  explicit Hooks(IncrementalSession& session)
      : session_(session), plan_(*session.plan_) {}

  void serve(std::vector<ShardSlot>& slots) override {
    const Options& engine = session_.options_.engine;
    for (ShardSlot& slot : slots) {
      ComponentMemo& memo = plan_.components[slot.index];
      slot.probe = &memo.probe;
      if (!memo.canon)
        memo.canon =
            core::canonicalize_instance(slot.members(plan_.constraints));
      const CacheEntry* entry =
          session_.cache_.find(memo.canon->fp, memo.canon->encoding);
      // A hit serves stand streaming only when its stand fits the caller's
      // collect_limit: a from-scratch run truncates each component's
      // collection at the limit, so serving a larger cached stand would
      // break byte-equality with run_sharded in the truncated regime.
      if (!entry ||
          (engine.collect_trees && entry->stand_trees != 0 &&
           !(entry->stands_complete &&
             entry->stands.size() <= engine.collect_limit)))
        continue;
      slot.served = true;
      slot.stats = entry->stats;
      if (memo.hit_newick != entry->representative) {
        memo.hit_newick = entry->representative;
        memo.hit_tree.reset();
      }
      if (engine.collect_trees) {
        // Cached stands live in rank space; translate into session labels
        // through the engine's canonical Newick so the streamed tuples are
        // byte-identical to a from-scratch run's.
        phylo::TaxonSet& parse_ts = rank_labels(memo);
        slot.stands.reserve(entry->stands.size());
        for (const std::string& s_rank : entry->stands)
          slot.stands.push_back(phylo::canonical_newick(
              phylo::parse_newick(s_rank, parse_ts), plan_.labels));
        std::sort(slot.stands.begin(), slot.stands.end());
      }
      stats_.hits += 1;
      stats_.reused_components += 1;
      stats_.reused_states += entry->stats.intermediate_states;
    }
  }

  void record(const std::vector<ShardSlot>& slots, bool collected) override {
    for (const ShardSlot& slot : slots) {
      if (slot.served) continue;
      stats_.misses += 1;
      stats_.recomputed_components += 1;
      stats_.recomputed_states += slot.stats.intermediate_states;
      // Only completed runs are cacheable: a truncated count is a property
      // of the stopping rules, not of the instance.
      if (slot.stats.reason != StopReason::kCompleted &&
          slot.stats.reason != StopReason::kEmptyStand)
        continue;
      const ComponentMemo& memo = plan_.components[slot.index];
      const core::CanonicalInstance& canon = *memo.canon;
      CacheEntry entry;
      entry.encoding = canon.encoding;
      entry.stand_trees = slot.stats.stand_trees;
      entry.stats = slot.stats;
      const auto rank = rank_of_taxon(canon.order);
      // Without a probe (deferred) the entry carries no representative; a
      // later residual run probes the component instead.
      if (memo.probe && !memo.probe->empty)
        entry.representative = core::rank_newick(memo.probe->tree, rank);
      if (collected && slot.stands.size() == slot.stats.stand_trees) {
        entry.stands.reserve(slot.stands.size());
        for (const std::string& s_x : slot.stands)
          entry.stands.push_back(
              core::rank_newick(phylo::parse_newick(s_x, plan_.labels), rank));
        std::sort(entry.stands.begin(), entry.stands.end());
        entry.stands_complete = true;
      }
      session_.cache_.insert(canon.fp, std::move(entry));
    }
  }

  std::optional<ShardStats> serve_residual(
      std::vector<ShardSlot>& slots,
      const std::vector<phylo::Tree>& passthrough) override {
    // The residual is keyed by its size signature (universe size + sorted
    // enumerable component sizes) plus the pass-through constraints.
    std::size_t universe = 0;
    std::vector<std::size_t> sizes;
    for (const Component& comp : plan_.split.components) {
      universe += comp.taxa.size();
      if (comp.enumerable) sizes.push_back(comp.taxa.size());
    }
    std::sort(sizes.begin(), sizes.end());
    residual_encoding_ =
        "gentrius-residual-v2 n=" + std::to_string(universe) + " sizes=";
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (i) residual_encoding_.push_back(',');
      residual_encoding_ += std::to_string(sizes[i]);
    }
    // Pass-through constraints (<= 2 taxa each) are vacuous in theory, but
    // closed_form_residual refuses to count across them — the cache must
    // not assume more shape independence than the closed form proves, so
    // the key carries them byte for byte.
    std::vector<std::string> pass_enc;
    pass_enc.reserve(passthrough.size());
    for (const phylo::Tree& t : passthrough)
      pass_enc.push_back(phylo::canonical_newick(t, plan_.labels));
    std::sort(pass_enc.begin(), pass_enc.end());
    residual_encoding_ += " pass=";
    for (std::size_t i = 0; i < pass_enc.size(); ++i) {
      if (i) residual_encoding_.push_back(';');
      residual_encoding_ += pass_enc[i];
    }
    residual_encoding_.push_back('\n');
    residual_fp_ = support::fingerprint_bytes(residual_encoding_);

    if (const CacheEntry* entry =
            session_.cache_.find(residual_fp_, residual_encoding_)) {
      stats_.hits += 1;
      stats_.reused_states += entry->stats.intermediate_states;
      return entry->stats;
    }
    // The residual runs: a served component contributes its cached
    // representative, translated into session ids.
    for (ShardSlot& slot : slots) {
      ComponentMemo& memo = plan_.components[slot.index];
      if (!slot.served || memo.hit_newick.empty()) continue;
      if (!memo.hit_tree)
        memo.hit_tree = phylo::parse_newick(memo.hit_newick, rank_labels(memo));
      slot.representative = &*memo.hit_tree;
    }
    return std::nullopt;
  }

  void record_residual(const ShardStats& stats) override {
    stats_.misses += 1;
    stats_.recomputed_states += stats.intermediate_states;
    if (stats.reason != StopReason::kCompleted) return;
    CacheEntry residual;
    residual.encoding = std::move(residual_encoding_);
    residual.stand_trees = stats.stand_trees;
    residual.stats = stats;
    session_.cache_.insert(residual_fp_, std::move(residual));
  }

  const core::CacheStats& stats() const noexcept { return stats_; }

 private:
  static phylo::TaxonSet& rank_labels(ComponentMemo& m) {
    if (!m.rank_labels) m.rank_labels = rank_parse_labels(m.canon->order);
    return *m.rank_labels;
  }

  IncrementalSession& session_;
  Plan& plan_;
  core::CacheStats stats_;
  std::string residual_encoding_;
  support::Fingerprint residual_fp_;
};

Result IncrementalSession::enumerate() {
  Plan& plan = current_plan();
  const std::uint64_t evictions_before = cache_.evictions();
  Hooks hooks(*this);
  Result out =
      decompose::detail::run_shards(plan.constraints, plan.split, plan.labels,
                                    options_.engine, options_.run, &hooks);
  out.cache = hooks.stats();
  out.cache.evictions = cache_.evictions() - evictions_before;
  lifetime_.merge(out.cache);
  return out;
}

}  // namespace gentrius::incremental
