// Incremental re-enumeration of a live dataset under PAM edits.
//
// An IncrementalSession owns a species tree, a presence/absence matrix, and
// a fingerprint-keyed ResultCache. Each re-enumeration is a run of the shard
// driver (decompose::detail::run_shards, decompose/shard_exec.hpp) — the
// same loop decompose::run_sharded runs — with the session plugged in as
// its ShardCache. The session canonicalizes every enumerable component and
// serves those whose canonical fingerprint hits the cache without expanding
// a single state; the driver runs the rest (serial / pool / virtual
// backends), settles emptiness, takes the residual, rolls up the Result and
// streams the stands. Counts, stand sets and shard order therefore equal a
// from-scratch run_sharded of the same instance by construction. With the
// cache off the whole Result does, but for seconds and Result::cache; with
// it on, a served shard carries its cached rollup marked ShardStats::reused
// and adds nothing to the sums of executed work.
//
// The residual shard — whose interleaving count M usually dominates a
// from-scratch run — is cached by its size signature (universe size +
// sorted enumerable component sizes) plus the pass-through constraints of
// non-enumerable components byte for byte: M provably depends on nothing
// beyond the signature when every component is enumerable, and the cache
// claims no more shape independence than that (closed_form_residual
// likewise refuses the pass-through case). Any edit that reshapes a
// component without resizing the split or rewriting the pass-throughs
// reuses the residual outright; that reuse, plus per-component reuse, is
// where the >= 5x amortized speedup of BENCH_9 comes from.
//
// The session also keeps the plan of its current matrix (Plan below): the
// induced subtree of every locus, the component split, each enumerable
// component's canonical form and representatives, and the "x<i>" labels.
// Every part memoises a pure function on its exact input, so an edit
// re-induces only the loci whose taxon set changed and re-canonicalises
// only the components whose constraint content changed, and a read of an
// unchanged matrix does nothing but the cache lookups. The memo holds one
// plan — the current matrix's — or none; each run replaces it wholesale.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "decompose/components.hpp"
#include "decompose/shard_exec.hpp"
#include "decompose/sharded.hpp"
#include "gentrius/options.hpp"
#include "gentrius/problem.hpp"
#include "incremental/cache.hpp"
#include "incremental/delta.hpp"
#include "pam/pam.hpp"
#include "phylo/taxon_set.hpp"
#include "phylo/tree.hpp"
#include "support/fingerprint.hpp"

namespace gentrius::incremental {

struct SessionOptions {
  /// Engine options per shard run. decompose must be kComponents
  /// (validate_options(kIncremental) rejects anything else);
  /// collect_trees requires tree_names.
  core::Options engine;
  /// Shard execution backend (serial / pool / virtual), as in run_sharded.
  decompose::ShardRunOptions run;
  /// ResultCache entries (components + residual signatures). 0 disables
  /// caching — every re-enumeration is from scratch.
  std::size_t cache_capacity = 256;
  /// Loci with fewer present taxa induce no constraint (pam::induced_subtrees).
  std::size_t min_taxa = 4;
};

class IncrementalSession {
 public:
  /// The species tree must span the full taxon universe the session will
  /// ever see: add_taxon edits activate one of its leaves. Throws
  /// InvalidInput on rejected option combinations (see validate_options)
  /// or when the initial matrix has more taxa than the species tree.
  IncrementalSession(phylo::Tree species_tree, pam::Pam pam,
                     SessionOptions options);

  const pam::Pam& pam() const noexcept { return pam_; }
  const phylo::Tree& species_tree() const noexcept { return species_; }

  /// Re-enumerates the current matrix, serving clean components from the
  /// cache. Result::cache reports this run's cache traffic;
  /// Result::shards marks reused shards with ShardStats::reused.
  core::Result enumerate();

  /// Applies one edit (or a batched script), then re-enumerates once.
  core::Result apply(const PamDelta& edit);
  core::Result apply(const EditScript& script);

  /// Classification of the most recent apply() against the pre/post
  /// component splits (merged across a script's edits).
  const DeltaClass& last_classification() const noexcept {
    return last_class_;
  }

  /// Cache traffic accumulated over the session's lifetime.
  const core::CacheStats& lifetime_cache_stats() const noexcept {
    return lifetime_;
  }

  /// Canonical whole-instance fingerprint of the current matrix + species
  /// tree (pam::canonical_encode mixed with the species tree's canonical
  /// instance encoding).
  support::Fingerprint instance_fingerprint() const;

 private:
  /// Memo of one enumerable component, keyed by its exact constraint
  /// content: the ascending taxon list of each member locus, in constraint
  /// order. The species tree is fixed, so the key determines the member
  /// constraint trees and every field below is a pure function of it.
  /// Fields fill lazily; a filled field is always exact.
  struct ComponentMemo {
    std::vector<std::vector<phylo::TaxonId>> key;
    std::optional<core::CanonicalInstance> canon;
    /// Rank-label parse set of canon->order (rank_parse_labels).
    std::optional<phylo::TaxonSet> rank_labels;
    /// The representative probe, filled by the shard driver on demand.
    std::optional<decompose::detail::ShardProbe> probe;
    /// The representative of the latest cache hit, rank-label Newick, and
    /// (parsed when a residual run needs it) the same tree in session ids.
    std::string hit_newick;
    std::optional<phylo::Tree> hit_tree;
  };

  /// The analysed plan of one matrix.
  struct Plan {
    /// Per locus: its present taxa, ascending (the key of its subtree).
    std::vector<std::vector<phylo::TaxonId>> locus_taxa;
    /// Induced subtrees of the loci with >= min_taxa present taxa, in
    /// locus order, and the locus each came from.
    std::vector<phylo::Tree> constraints;
    std::vector<std::size_t> constraint_locus;
    decompose::ComponentSplit split;
    /// Parallel to split.components; non-enumerable entries stay empty.
    std::vector<ComponentMemo> components;
    /// Id-stable labels "x<i>" (see decompose::detail::run_shards).
    phylo::TaxonSet labels;
  };

  /// The plan of `pam`, moving every part of `previous` (a plan of an
  /// earlier matrix of this session) whose key is unchanged.
  Plan analyse(const pam::Pam& pam, Plan& previous) const;
  /// plan_, analysed from pam_ first when the memo is empty.
  Plan& current_plan();

  class Hooks;  ///< the session's ShardCache

  phylo::Tree species_;
  pam::Pam pam_;
  SessionOptions options_;
  ResultCache cache_;
  core::CacheStats lifetime_;
  DeltaClass last_class_;
  /// Plan of pam_, or empty. Never describes any other matrix.
  std::optional<Plan> plan_;
};

}  // namespace gentrius::incremental
