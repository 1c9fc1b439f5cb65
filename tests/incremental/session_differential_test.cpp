// Differential harness for the incremental session.
//
// The contract under test: after ANY edit sequence, IncrementalSession's
// Result has the identical stand count and identical stand tree set as a
// from-scratch decompose run of the edited matrix — cache hits, evictions,
// split/merge rewiring, and rank-space translation included. Sweeps
// hundreds of random block-structured instances with random edit streams
// (fills, clears, new loci, new taxa) and checks every prefix.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "benchutil/corpus.hpp"
#include "datagen/dataset.hpp"
#include "datagen/tree_gen.hpp"
#include "decompose/components.hpp"
#include "decompose/sharded.hpp"
#include "decompose/testutil.hpp"
#include "incremental/session.hpp"
#include "pam/pam.hpp"
#include "phylo/newick.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace gentrius {
namespace {

using core::Options;
using core::Result;
using core::StopReason;
using decompose_test::kProductLawSeeds;
using decompose_test::sorted_trees;
using incremental::EditScript;
using incremental::IncrementalSession;
using incremental::PamDelta;
using incremental::SessionOptions;

Options engine_options(const phylo::TaxonSet& taxa) {
  Options o;
  o.decompose = core::Decompose::kComponents;
  o.collect_trees = true;
  o.tree_names = &taxa;
  return o;
}

Result from_scratch(const phylo::Tree& species, const pam::Pam& pam,
                    const Options& options, std::size_t min_taxa = 4) {
  const auto decomp = decompose::analyze_pam(species, pam, min_taxa);
  return decompose::run_sharded(decomp.constraints, options);
}

/// A random applicable edit that keeps every locus enumerable (clears only
/// touch loci with >= 5 present taxa, so no locus drops below the
/// min_taxa = 4 floor and the instance always has work).
std::optional<PamDelta> random_edit(const pam::Pam& pam, support::Rng& rng) {
  if (rng.bernoulli(0.2)) {
    std::vector<phylo::TaxonId> members;
    for (phylo::TaxonId t = 0; t < pam.taxon_count(); ++t) members.push_back(t);
    rng.shuffle(members);
    members.resize(4);
    return PamDelta::add_locus(members);
  }
  std::vector<PamDelta> cands;
  for (std::size_t l = 0; l < pam.locus_count(); ++l) {
    const std::size_t count = pam.locus_taxa_list(l).size();
    for (phylo::TaxonId t = 0; t < pam.taxon_count(); ++t) {
      if (!pam.present(t, l))
        cands.push_back(PamDelta::fill_cell(t, l));
      else if (count >= 5)
        cands.push_back(PamDelta::clear_cell(t, l));
    }
  }
  if (cands.empty()) return std::nullopt;
  return cands[rng.below(cands.size())];
}

benchutil::MultiComponentParams params_for_seed(std::uint64_t seed,
                                                std::size_t n_components) {
  benchutil::MultiComponentParams p;
  p.n_components = n_components;
  p.min_taxa_per_component = 4;
  p.max_taxa_per_component = 4;  // keeps every from-scratch reference cheap
  p.loci_per_component = 2;
  p.seed = seed;
  return p;
}

void expect_same(Result inc, Result ref, const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(ref.reason, StopReason::kCompleted);
  EXPECT_EQ(inc.reason, StopReason::kCompleted);
  EXPECT_EQ(inc.stand_trees, ref.stand_trees);
  EXPECT_EQ(inc.count_saturated, ref.count_saturated);
  EXPECT_EQ(sorted_trees(inc), sorted_trees(ref));
}

std::vector<std::string> trace_lines(const Result& r) {
  std::vector<std::string> lines;
  for (const auto& s : r.shards)
    lines.push_back(decompose::shard_trace_line(s));
  return lines;
}

/// A read right after a write sees the matrix the write planned: it must
/// reproduce the write's result from the cache alone — every component and
/// the residual served, nothing re-enumerated.
void expect_read_served(Result read, Result written,
                        std::uint64_t expected_hits,
                        const std::string& where) {
  SCOPED_TRACE(where + " (read)");
  EXPECT_EQ(read.reason, written.reason);
  EXPECT_EQ(read.stand_trees, written.stand_trees);
  EXPECT_EQ(read.count_saturated, written.count_saturated);
  EXPECT_EQ(trace_lines(read), trace_lines(written));
  EXPECT_EQ(read.cache.recomputed_components, 0u);
  EXPECT_EQ(read.cache.misses, 0u);
  EXPECT_EQ(read.cache.hits, expected_hits);
  EXPECT_EQ(sorted_trees(read), sorted_trees(written));
}

TEST(SessionDifferential, RandomEditStreamsMatchFromScratch) {
  std::uint64_t total_hits = 0;
  for (std::uint64_t seed = 1; seed <= kProductLawSeeds; ++seed) {
    const auto ds =
        benchutil::make_multi_component(params_for_seed(seed, 2));
    SCOPED_TRACE(ds.name);
    const Options opts = engine_options(ds.taxa);

    SessionOptions so;
    so.engine = opts;
    IncrementalSession session(ds.species_tree, ds.pam, so);
    pam::Pam shadow = ds.pam;

    expect_same(session.enumerate(),
                from_scratch(ds.species_tree, shadow, opts), "initial");

    support::Rng rng(seed ^ 0x5e5510u);
    for (int step = 0; step < 4; ++step) {
      const auto edit = random_edit(shadow, rng);
      if (!edit) break;
      Result inc = session.apply(*edit);
      incremental::apply_edit(shadow, *edit);
      total_hits += inc.cache.hits;
      const std::string where = "step " + std::to_string(step) + ": " +
                                incremental::to_string(*edit);
      // Every enumerable component plus the enumerated residual (the
      // closed form is off).
      const auto split = decompose::analyze_pam(ds.species_tree, shadow).split;
      expect_read_served(session.enumerate(), inc,
                         split.enumerable_count + 1, where);
      expect_same(std::move(inc),
                  from_scratch(ds.species_tree, shadow, opts), where);
    }
  }
  // Localized edits must actually reuse work: across the sweep the
  // untouched components (and often the residual) hit the cache on apply.
  EXPECT_GT(total_hits, kProductLawSeeds);
}

TEST(SessionDifferential, ForcedEvictionStaysExact) {
  // capacity 1: every second component lookup misses, entries churn
  // constantly — correctness must not depend on hitting.
  for (std::uint64_t seed = 1; seed <= kProductLawSeeds / 4; ++seed) {
    const auto ds =
        benchutil::make_multi_component(params_for_seed(seed, 2));
    SCOPED_TRACE(ds.name);
    const Options opts = engine_options(ds.taxa);

    SessionOptions so;
    so.engine = opts;
    so.cache_capacity = 1;
    IncrementalSession session(ds.species_tree, ds.pam, so);
    pam::Pam shadow = ds.pam;

    support::Rng rng(seed * 977 + 3);
    for (int step = 0; step < 3; ++step) {
      const auto edit = random_edit(shadow, rng);
      if (!edit) break;
      Result inc = session.apply(*edit);
      incremental::apply_edit(shadow, *edit);
      expect_same(std::move(inc),
                  from_scratch(ds.species_tree, shadow, opts),
                  "step " + std::to_string(step));
    }
    EXPECT_GT(session.lifetime_cache_stats().evictions, 0u);
  }
}

TEST(SessionDifferential, RevertedEditIsServedEntirelyFromCache) {
  const auto ds = benchutil::make_multi_component(params_for_seed(13, 2));
  const Options opts = engine_options(ds.taxa);
  SessionOptions so;
  so.engine = opts;
  IncrementalSession session(ds.species_tree, ds.pam, so);

  Result first = session.enumerate();
  const auto fp_before = session.instance_fingerprint();

  // Find a fillable cell, fill it, then clear it back.
  PamDelta fill = PamDelta::fill_cell(0, 0);
  bool found = false;
  for (std::size_t l = 0; l < ds.pam.locus_count() && !found; ++l)
    for (phylo::TaxonId t = 0; t < ds.pam.taxon_count() && !found; ++t)
      if (!ds.pam.present(t, l)) {
        fill = PamDelta::fill_cell(t, l);
        found = true;
      }
  ASSERT_TRUE(found);
  session.apply(fill);
  Result reverted =
      session.apply(PamDelta::clear_cell(fill.taxon, fill.locus));

  // The reverted matrix is the original instance: every component and the
  // residual are still cached, so nothing recomputes, and the stand set is
  // identical — served through the rank-space round trip.
  EXPECT_EQ(reverted.cache.misses, 0u);
  EXPECT_EQ(reverted.cache.recomputed_components, 0u);
  EXPECT_GT(reverted.cache.hits, 0u);
  EXPECT_EQ(reverted.stand_trees, first.stand_trees);
  EXPECT_EQ(sorted_trees(reverted), sorted_trees(first));
  EXPECT_EQ(session.instance_fingerprint(), fp_before);
  for (const auto& shard : reverted.shards) EXPECT_TRUE(shard.reused);
}

TEST(SessionDifferential, SplitAndMergeEditsStayExact) {
  // Hand-crafted bridge instance: locus 0 over {0..4}, locus 1 over
  // {4..8}, one component via bridge taxon 4. Clearing (4,1) splits it;
  // re-filling merges it back.
  phylo::TaxonSet taxa;
  support::Rng rng(29);
  const auto species =
      datagen::random_tree(datagen::default_taxa(taxa, 9), rng);
  pam::Pam pam(9, 2);
  for (phylo::TaxonId t = 0; t < 5; ++t) pam.set_present(t, 0);
  for (phylo::TaxonId t = 4; t < 9; ++t) pam.set_present(t, 1);

  const Options opts = engine_options(taxa);
  SessionOptions so;
  so.engine = opts;
  IncrementalSession session(species, pam, so);
  pam::Pam shadow = pam;

  expect_same(session.enumerate(), from_scratch(species, shadow, opts),
              "bridged");

  Result split = session.apply(PamDelta::clear_cell(4, 1));
  incremental::apply_edit(shadow, PamDelta::clear_cell(4, 1));
  EXPECT_TRUE(session.last_classification().split);
  expect_same(std::move(split), from_scratch(species, shadow, opts),
              "after split");

  Result merged = session.apply(PamDelta::fill_cell(4, 1));
  incremental::apply_edit(shadow, PamDelta::fill_cell(4, 1));
  EXPECT_TRUE(session.last_classification().merged);
  expect_same(std::move(merged), from_scratch(species, shadow, opts),
              "after merge");
}

TEST(SessionDifferential, AddTaxonActivatesASpeciesTreeLeaf) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto ds =
        benchutil::make_multi_component(params_for_seed(seed * 7 + 1, 2));
    const std::size_t n = ds.taxon_count();
    // Start the session one taxon short; the species tree already spans it.
    pam::Pam initial(n - 1, ds.pam.locus_count());
    for (std::size_t l = 0; l < ds.pam.locus_count(); ++l)
      for (phylo::TaxonId t = 0; t + 1 < n; ++t)
        if (ds.pam.present(t, l)) initial.set_present(t, l);
    const auto split = decompose::analyze_pam(ds.species_tree, initial).split;
    if (split.enumerable_count == 0) continue;  // degenerate after dropping
    SCOPED_TRACE(ds.name);

    const Options opts = engine_options(ds.taxa);
    SessionOptions so;
    so.engine = opts;
    IncrementalSession session(ds.species_tree, initial, so);
    expect_same(session.enumerate(),
                from_scratch(ds.species_tree, initial, opts), "short");

    std::vector<std::size_t> loci;
    for (std::size_t l = 0; l < ds.pam.locus_count(); ++l)
      if (ds.pam.present(static_cast<phylo::TaxonId>(n - 1), l))
        loci.push_back(l);
    Result grown = session.apply(PamDelta::add_taxon(loci));
    EXPECT_EQ(session.pam().taxon_count(), n);
    // The grown matrix is exactly ds.pam.
    expect_same(std::move(grown),
                from_scratch(ds.species_tree, ds.pam, opts), "grown");
  }
}

TEST(SessionDifferential, VirtualBackendMatchesSerialReference) {
  for (std::uint64_t seed = 2; seed <= 6; ++seed) {
    const auto ds =
        benchutil::make_multi_component(params_for_seed(seed, 2));
    SCOPED_TRACE(ds.name);
    const Options opts = engine_options(ds.taxa);
    SessionOptions so;
    so.engine = opts;
    so.run.backend = decompose::ShardBackend::kVirtual;
    so.run.n_threads = 4;
    IncrementalSession session(ds.species_tree, ds.pam, so);
    pam::Pam shadow = ds.pam;

    support::Rng rng(seed);
    for (int step = 0; step < 2; ++step) {
      const auto edit = random_edit(shadow, rng);
      if (!edit) break;
      Result inc = session.apply(*edit);
      incremental::apply_edit(shadow, *edit);
      expect_same(std::move(inc),
                  from_scratch(ds.species_tree, shadow, opts),
                  "step " + std::to_string(step));
    }
  }
}

TEST(SessionDifferential, FailingScriptLeavesSessionUnchanged) {
  // apply(EditScript) is atomic: a script that fails mid-way (the second
  // fill hits the cell the first just filled) must rethrow with the
  // session matrix byte-identical to before the call.
  const auto ds = benchutil::make_multi_component(params_for_seed(3, 2));
  const Options opts = engine_options(ds.taxa);
  SessionOptions so;
  so.engine = opts;
  IncrementalSession session(ds.species_tree, ds.pam, so);

  PamDelta fill = PamDelta::fill_cell(0, 0);
  bool found = false;
  for (std::size_t l = 0; l < ds.pam.locus_count() && !found; ++l)
    for (phylo::TaxonId t = 0; t < ds.pam.taxon_count() && !found; ++t)
      if (!ds.pam.present(t, l)) {
        fill = PamDelta::fill_cell(t, l);
        found = true;
      }
  ASSERT_TRUE(found);

  const std::string before_text = session.pam().to_text(ds.taxa);
  EXPECT_THROW(session.apply(EditScript{fill, fill}), support::InvalidInput);
  EXPECT_EQ(session.pam().to_text(ds.taxa), before_text);
  expect_same(session.enumerate(),
              from_scratch(ds.species_tree, ds.pam, opts), "after rollback");
}

TEST(SessionDifferential, EvictionDuringPendingHitStaysExact) {
  // Regression: the plan phase records cache hits before the run phase
  // inserts recomputed misses, and an insert at capacity evicts. With the
  // closed-form residual (never inserted), warm-up leaves only component 1
  // cached (capacity 1 evicted component 0). The add_locus dirties
  // component 0 only, so the edit run hits component 1 at plan time, then
  // recomputing component 0 evicts that still-pending entry before it is
  // served — served data must not dangle.
  phylo::TaxonSet taxa;
  support::Rng rng(41);
  const auto species =
      datagen::random_tree(datagen::default_taxa(taxa, 8), rng);
  pam::Pam pam(8, 2);
  for (phylo::TaxonId t = 0; t < 4; ++t) pam.set_present(t, 0);
  for (phylo::TaxonId t = 4; t < 8; ++t) pam.set_present(t, 1);

  const Options opts = engine_options(taxa);
  SessionOptions so;
  so.engine = opts;
  so.cache_capacity = 1;
  so.run.residual_closed_form = true;
  IncrementalSession session(species, pam, so);
  session.enumerate();

  const PamDelta edit = PamDelta::add_locus({0, 1, 2, 3});
  Result inc = session.apply(edit);
  pam::Pam shadow = pam;
  incremental::apply_edit(shadow, edit);
  EXPECT_EQ(inc.cache.hits, 1u);
  EXPECT_EQ(inc.cache.misses, 1u);
  EXPECT_EQ(inc.cache.evictions, 1u);
  expect_same(std::move(inc), from_scratch(species, shadow, opts),
              "after eviction of pending hit");
}

TEST(SessionDifferential, ResidualKeyTracksPassThroughStructure) {
  // Two session states with identical universe size and enumerable
  // component sizes but different pass-through constraints must not share
  // a residual cache entry: the closed form refuses the pass-through case,
  // so the cache may not assume shape independence across it either.
  phylo::TaxonSet taxa;
  support::Rng rng(53);
  const auto species =
      datagen::random_tree(datagen::default_taxa(taxa, 10), rng);
  pam::Pam pam(10, 4);
  for (phylo::TaxonId t = 0; t < 4; ++t) pam.set_present(t, 0);
  for (phylo::TaxonId t = 4; t < 8; ++t) pam.set_present(t, 1);
  pam.set_present(8, 2);
  pam.set_present(9, 2);
  pam.set_present(8, 3);
  pam.set_present(9, 3);

  const Options opts = engine_options(taxa);
  SessionOptions so;
  so.engine = opts;
  so.min_taxa = 2;  // 2-taxon loci induce (vacuous) pass-through constraints
  IncrementalSession session(species, pam, so);
  expect_same(session.enumerate(), from_scratch(species, pam, opts, 2),
              "two pass-through constraints");

  // Dropping taxon 9 from locus 3 erases that constraint (below the
  // min_taxa floor) but keeps the universe and the enumerable sizes: only
  // the pass-through structure changes, so the residual must miss and
  // recompute rather than serve the previous signature's entry.
  const PamDelta edit = PamDelta::clear_cell(9, 3);
  Result inc = session.apply(edit);
  pam::Pam shadow = pam;
  incremental::apply_edit(shadow, edit);
  EXPECT_EQ(inc.cache.misses, 1u);
  EXPECT_EQ(inc.cache.recomputed_components, 0u);
  expect_same(std::move(inc), from_scratch(species, shadow, opts, 2),
              "one pass-through constraint");
}

TEST(SessionDifferential, ScriptWithMultipleAddTaxaClassifiesEach) {
  // Each kAddTaxon edit in a script must be classified by the taxon id it
  // actually added, not by the post-script matrix's last taxon: taxon 8
  // joins component 0 and taxon 9 joins component 1, so both components
  // are touched_after.
  phylo::TaxonSet taxa;
  support::Rng rng(67);
  const auto species =
      datagen::random_tree(datagen::default_taxa(taxa, 10), rng);
  pam::Pam pam(8, 2);
  for (phylo::TaxonId t = 0; t < 4; ++t) pam.set_present(t, 0);
  for (phylo::TaxonId t = 4; t < 8; ++t) pam.set_present(t, 1);

  const Options opts = engine_options(taxa);
  SessionOptions so;
  so.engine = opts;
  IncrementalSession session(species, pam, so);
  session.enumerate();

  const EditScript script{PamDelta::add_taxon({0}), PamDelta::add_taxon({1})};
  Result inc = session.apply(script);
  pam::Pam shadow = pam;
  for (const PamDelta& edit : script) incremental::apply_edit(shadow, edit);
  EXPECT_EQ(session.last_classification().touched_after,
            (std::vector<std::size_t>{0, 1}));
  expect_same(std::move(inc), from_scratch(species, shadow, opts),
              "after two add_taxon edits");
}

TEST(SessionDifferential, SwapScriptsReinduceTheLocus) {
  // A script that fills one taxon into a locus and clears another from it
  // keeps the locus's size but changes its taxon set: its induced subtree
  // (and its component's canonical form) must be rebuilt, not reused.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto ds =
        benchutil::make_multi_component(params_for_seed(seed, 2));
    SCOPED_TRACE(ds.name);
    const Options opts = engine_options(ds.taxa);
    SessionOptions so;
    so.engine = opts;
    IncrementalSession session(ds.species_tree, ds.pam, so);
    pam::Pam shadow = ds.pam;
    session.enumerate();

    support::Rng rng(seed * 13 + 5);
    for (int step = 0; step < 3; ++step) {
      const std::size_t l = rng.below(shadow.locus_count());
      std::vector<phylo::TaxonId> in, out;
      for (phylo::TaxonId t = 0; t < shadow.taxon_count(); ++t)
        (shadow.present(t, l) ? in : out).push_back(t);
      if (in.empty() || out.empty()) continue;
      const EditScript swap{PamDelta::fill_cell(out[rng.below(out.size())], l),
                            PamDelta::clear_cell(in[rng.below(in.size())], l)};
      Result inc = session.apply(swap);
      for (const PamDelta& edit : swap) incremental::apply_edit(shadow, edit);
      expect_same(std::move(inc),
                  from_scratch(ds.species_tree, shadow, opts),
                  "swap step " + std::to_string(step));
    }
  }
}

TEST(SessionDifferential, RolledBackScriptKeepsThePlanExact) {
  // A script that fails part-way must leave the session's plan describing
  // the untouched matrix: the next read and the next successful apply both
  // equal from-scratch runs.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto ds =
        benchutil::make_multi_component(params_for_seed(seed, 2));
    SCOPED_TRACE(ds.name);
    const Options opts = engine_options(ds.taxa);
    SessionOptions so;
    so.engine = opts;
    IncrementalSession session(ds.species_tree, ds.pam, so);
    pam::Pam shadow = ds.pam;
    const Result first = session.enumerate();

    support::Rng rng(seed * 31 + 7);
    const auto edit = random_edit(shadow, rng);
    ASSERT_TRUE(edit.has_value());
    // The first edit applies; the out-of-range fill after it fails.
    const PamDelta bad = PamDelta::fill_cell(0, shadow.locus_count() + 5);
    EXPECT_THROW(session.apply(EditScript{*edit, bad}), support::InvalidInput);

    expect_read_served(session.enumerate(), first, first.shards.size(),
                       "read after rollback");
    expect_same(session.enumerate(),
                from_scratch(ds.species_tree, shadow, opts),
                "read after rollback");

    Result inc = session.apply(*edit);
    incremental::apply_edit(shadow, *edit);
    expect_same(std::move(inc), from_scratch(ds.species_tree, shadow, opts),
                "apply after rollback");
    expect_same(session.enumerate(),
                from_scratch(ds.species_tree, shadow, opts),
                "read after apply");
  }
}

TEST(SessionDifferential, AddTaxonGrowsLabelsAndRankMaps) {
  // A session whose plan is warm absorbs a new taxon: the universe grows,
  // so the "x<i>" labels and the rank maps of the component the taxon
  // joins must be rebuilt, while untouched components keep theirs. Stand
  // sets are collected, so a stale label set could not round-trip them.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto ds =
        benchutil::make_multi_component(params_for_seed(seed * 5 + 2, 2));
    const std::size_t n = ds.taxon_count();
    pam::Pam initial(n - 1, ds.pam.locus_count());
    for (std::size_t l = 0; l < ds.pam.locus_count(); ++l)
      for (phylo::TaxonId t = 0; t + 1 < n; ++t)
        if (ds.pam.present(t, l)) initial.set_present(t, l);
    const auto split = decompose::analyze_pam(ds.species_tree, initial).split;
    if (split.enumerable_count == 0) continue;
    SCOPED_TRACE(ds.name);

    const Options opts = engine_options(ds.taxa);
    SessionOptions so;
    so.engine = opts;
    IncrementalSession session(ds.species_tree, initial, so);
    session.enumerate();
    session.enumerate();  // a read of the warm plan

    std::vector<std::size_t> loci;
    for (std::size_t l = 0; l < ds.pam.locus_count(); ++l)
      if (ds.pam.present(static_cast<phylo::TaxonId>(n - 1), l))
        loci.push_back(l);
    Result grown = session.apply(PamDelta::add_taxon(loci));
    expect_same(session.enumerate(),
                from_scratch(ds.species_tree, ds.pam, opts), "grown read");
    expect_same(std::move(grown),
                from_scratch(ds.species_tree, ds.pam, opts), "grown");

    // One more edit on the new taxon: a fill into a locus it lacks.
    pam::Pam shadow = ds.pam;
    const auto t_new = static_cast<phylo::TaxonId>(n - 1);
    for (std::size_t l = 0; l < shadow.locus_count(); ++l) {
      if (shadow.present(t_new, l)) continue;
      const PamDelta fill = PamDelta::fill_cell(t_new, l);
      Result inc = session.apply(fill);
      incremental::apply_edit(shadow, fill);
      expect_same(std::move(inc),
                  from_scratch(ds.species_tree, shadow, opts),
                  "after " + incremental::to_string(fill));
      break;
    }
  }
}

TEST(SessionDifferential, DeferredProbeServesALaterResidualRun) {
  // With the closed-form residual and no stands collected, component
  // entries are stored without a representative (nothing consumes one).
  // A later edit adds a 2-taxon locus — a pass-through constraint at
  // min_taxa = 2 — so the closed form no longer applies and the residual
  // must be enumerated from representatives of components that are cache
  // hits without one. The session probes them as plan_shards does.
  phylo::TaxonSet taxa;
  support::Rng rng(71);
  const auto species =
      datagen::random_tree(datagen::default_taxa(taxa, 9), rng);
  pam::Pam pam(9, 2);
  for (phylo::TaxonId t = 0; t < 4; ++t) pam.set_present(t, 0);
  for (phylo::TaxonId t = 4; t < 7; ++t) pam.set_present(t, 1);

  Options opts;
  opts.decompose = core::Decompose::kComponents;
  SessionOptions so;
  so.engine = opts;
  so.min_taxa = 2;
  so.run.residual_closed_form = true;
  IncrementalSession session(species, pam, so);

  const auto reference = [&](const pam::Pam& m) {
    const auto decomp = decompose::analyze_pam(species, m, so.min_taxa);
    return decompose::run_sharded(decomp.constraints, opts, so.run);
  };
  const auto expect_exact = [&](const Result& got, const Result& ref,
                                const std::string& where) {
    SCOPED_TRACE(where);
    ASSERT_EQ(ref.reason, StopReason::kCompleted);
    EXPECT_EQ(got.reason, ref.reason);
    EXPECT_EQ(got.stand_trees, ref.stand_trees);
    EXPECT_EQ(got.count_saturated, ref.count_saturated);
    EXPECT_EQ(trace_lines(got), trace_lines(ref));
  };

  const Result cold = session.enumerate();
  expect_exact(cold, reference(pam), "closed form");
  EXPECT_EQ(cold.cache.misses, 2u);

  const PamDelta edit = PamDelta::add_locus({7, 8});
  const Result inc = session.apply(edit);
  pam::Pam shadow = pam;
  incremental::apply_edit(shadow, edit);
  EXPECT_EQ(inc.cache.hits, 2u);    // both components
  EXPECT_EQ(inc.cache.misses, 1u);  // the residual, now enumerated
  EXPECT_EQ(inc.cache.recomputed_components, 0u);
  expect_exact(inc, reference(shadow), "pass-through residual");
  expect_exact(session.enumerate(), reference(shadow), "read");

  // The same with stands collected: the stand set equals from scratch.
  Options collecting = opts;
  collecting.collect_trees = true;
  collecting.tree_names = &taxa;
  SessionOptions so_collect = so;
  so_collect.engine = collecting;
  IncrementalSession stands(species, pam, so_collect);
  stands.enumerate();
  expect_same(stands.apply(edit), from_scratch(species, shadow, collecting, 2),
              "collected");
}

void expect_same_sched(const core::SchedulerStats& a,
                       const core::SchedulerStats& b) {
  EXPECT_EQ(a.tasks_stolen, b.tasks_stolen);
  EXPECT_EQ(a.steal_attempts, b.steal_attempts);
  EXPECT_EQ(a.failed_steal_probes, b.failed_steal_probes);
  EXPECT_EQ(a.queue_full_rejections, b.queue_full_rejections);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.offers_evaluated, b.offers_evaluated);
  EXPECT_EQ(a.offers_suppressed, b.offers_suppressed);
  EXPECT_EQ(a.predicted_task_states, b.predicted_task_states);
  EXPECT_EQ(a.adopted_predicted_states, b.adopted_predicted_states);
  EXPECT_EQ(a.adopted_actual_states, b.adopted_actual_states);
}

void expect_same_selection(const core::SelectionStats& a,
                           const core::SelectionStats& b) {
  EXPECT_EQ(a.fresh_counts, b.fresh_counts);
  EXPECT_EQ(a.cached_counts, b.cached_counts);
  EXPECT_EQ(a.existence_checks, b.existence_checks);
  EXPECT_EQ(a.mappings_rebuilt, b.mappings_rebuilt);
}

/// Every Result field but `seconds` and `cache`, stands sorted.
void expect_same_fields(Result got, Result ref, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.stand_trees, ref.stand_trees);
  EXPECT_EQ(got.intermediate_states, ref.intermediate_states);
  EXPECT_EQ(got.dead_ends, ref.dead_ends);
  EXPECT_EQ(got.reason, ref.reason);
  EXPECT_EQ(got.initial_split_branches, ref.initial_split_branches);
  EXPECT_EQ(got.prefix_length, ref.prefix_length);
  EXPECT_EQ(got.tasks_executed, ref.tasks_executed);
  EXPECT_EQ(got.tasks_offered, ref.tasks_offered);
  expect_same_sched(got.sched, ref.sched);
  expect_same_selection(got.selection, ref.selection);
  EXPECT_EQ(got.virtual_makespan, ref.virtual_makespan);
  EXPECT_EQ(got.count_saturated, ref.count_saturated);
  ASSERT_EQ(got.shards.size(), ref.shards.size());
  for (std::size_t i = 0; i < ref.shards.size(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    const core::ShardStats& a = got.shards[i];
    const core::ShardStats& b = ref.shards[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.n_taxa, b.n_taxa);
    EXPECT_EQ(a.n_constraints, b.n_constraints);
    EXPECT_EQ(a.stand_trees, b.stand_trees);
    EXPECT_EQ(a.intermediate_states, b.intermediate_states);
    EXPECT_EQ(a.dead_ends, b.dead_ends);
    EXPECT_EQ(a.reason, b.reason);
    expect_same_selection(a.selection, b.selection);
    expect_same_sched(a.sched, b.sched);
    EXPECT_EQ(a.virtual_makespan, b.virtual_makespan);
    EXPECT_EQ(a.reused, b.reused);
  }
  EXPECT_EQ(sorted_trees(got), sorted_trees(ref));
}

TEST(SessionDifferential, UncachedSessionEqualsRunShardedFieldForField) {
  // With caching off the session serves nothing, so every run goes through
  // the shard driver exactly as run_sharded does: the whole Result must
  // match, not just counts and stands — per-shard rollups with their
  // scheduler and selection stats, sums, tasks and virtual makespans.
  for (const auto backend :
       {decompose::ShardBackend::kSerial, decompose::ShardBackend::kVirtual})
    for (const bool closed_form : {false, true})
      for (const bool collect : {false, true})
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
          const auto ds =
              benchutil::make_multi_component(params_for_seed(seed, 2));
          Options opts = engine_options(ds.taxa);
          opts.collect_trees = collect;
          SessionOptions so;
          so.engine = opts;
          so.cache_capacity = 0;
          so.run.backend = backend;
          so.run.n_threads = 4;
          so.run.residual_closed_form = closed_form;
          SCOPED_TRACE(ds.name + " backend=" + decompose::to_string(backend) +
                       " closed_form=" + std::to_string(closed_form) +
                       " collect=" + std::to_string(collect));
          IncrementalSession session(ds.species_tree, ds.pam, so);
          pam::Pam shadow = ds.pam;
          const auto reference = [&] {
            const auto decomp = decompose::analyze_pam(ds.species_tree, shadow);
            return decompose::run_sharded(decomp.constraints, opts, so.run);
          };

          expect_same_fields(session.enumerate(), reference(), "initial");
          support::Rng rng(seed * 101 + 9);
          for (int step = 0; step < 3; ++step) {
            const auto edit = random_edit(shadow, rng);
            if (!edit) break;
            Result inc = session.apply(*edit);
            incremental::apply_edit(shadow, *edit);
            EXPECT_EQ(inc.cache.hits, 0u);
            expect_same_fields(std::move(inc), reference(),
                               "step " + std::to_string(step));
          }
          expect_same_fields(session.enumerate(), reference(), "read");
        }
}

TEST(SessionDifferential, RejectsUnusableConfigurations) {
  const auto ds = benchutil::make_multi_component(params_for_seed(1, 2));
  SessionOptions so;
  so.engine = engine_options(ds.taxa);

  {
    SessionOptions bad = so;
    bad.engine.decompose = core::Decompose::kOff;
    EXPECT_THROW(IncrementalSession(ds.species_tree, ds.pam, bad),
                 support::InvalidInput);
  }
  {
    SessionOptions bad = so;
    bad.engine.tree_names = nullptr;  // collect_trees without labels
    EXPECT_THROW(IncrementalSession(ds.species_tree, ds.pam, bad),
                 support::InvalidInput);
  }
  {
    // Species tree smaller than the matrix's taxon universe.
    phylo::TaxonSet small;
    support::Rng rng(5);
    const auto tiny =
        datagen::random_tree(datagen::default_taxa(small, 4), rng);
    EXPECT_THROW(IncrementalSession(tiny, ds.pam, so),
                 support::InvalidInput);
  }
  {
    // Nothing enumerable: a matrix whose only locus is below the floor.
    phylo::TaxonSet taxa;
    support::Rng rng(6);
    const auto species =
        datagen::random_tree(datagen::default_taxa(taxa, 6), rng);
    pam::Pam sparse(6, 1);
    sparse.set_present(0, 0);
    sparse.set_present(1, 0);
    sparse.set_present(2, 0);
    SessionOptions s2 = so;
    s2.engine.tree_names = &taxa;
    IncrementalSession session(species, sparse, s2);
    EXPECT_THROW(session.enumerate(), support::InvalidInput);
  }
}

}  // namespace
}  // namespace gentrius
