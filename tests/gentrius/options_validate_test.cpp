// Rejection matrix of the centralized Options validator: every driver
// surface funnels through core::validate_options, so the accepted/rejected
// combinations are pinned here once instead of per driver.
#include <gtest/gtest.h>

#include "gentrius/options.hpp"
#include "support/error.hpp"

namespace gentrius::core {
namespace {

constexpr OptionsSurface kSurfaces[] = {OptionsSurface::kSingleInstance,
                                        OptionsSurface::kSharded,
                                        OptionsSurface::kIncremental};

Options valid_for(OptionsSurface surface) {
  Options o;
  if (surface == OptionsSurface::kIncremental)
    o.decompose = Decompose::kComponents;
  return o;
}

TEST(ValidateOptions, DefaultsPassTheirSurfaces) {
  for (const auto surface : kSurfaces)
    EXPECT_NO_THROW(validate_options(valid_for(surface), surface))
        << to_string(surface);
}

TEST(ValidateOptions, ZeroFlushBatchRejectedEverywhere) {
  for (const auto surface : kSurfaces) {
    SCOPED_TRACE(to_string(surface));
    Options o = valid_for(surface);
    o.tree_flush_batch = 0;
    EXPECT_THROW(validate_options(o, surface), support::InvalidInput);
    o = valid_for(surface);
    o.state_flush_batch = 0;
    EXPECT_THROW(validate_options(o, surface), support::InvalidInput);
    o = valid_for(surface);
    o.dead_end_flush_batch = 0;
    EXPECT_THROW(validate_options(o, surface), support::InvalidInput);
  }
}

TEST(ValidateOptions, ExplicitOrderAndShuffleAreExclusive) {
  for (const auto surface :
       {OptionsSurface::kSingleInstance, OptionsSurface::kSharded}) {
    SCOPED_TRACE(to_string(surface));
    Options o = valid_for(surface);
    o.insertion_order = {2, 1, 0};
    EXPECT_NO_THROW(validate_options(o, surface));
    o.shuffle_seed = 7;
    EXPECT_THROW(validate_options(o, surface), support::InvalidInput);
    o.insertion_order.clear();
    EXPECT_NO_THROW(validate_options(o, surface));
  }
}

TEST(ValidateOptions, SingleInstanceRejectsDecompose) {
  Options o;
  o.decompose = Decompose::kComponents;
  EXPECT_THROW(validate_options(o, OptionsSurface::kSingleInstance),
               support::InvalidInput);
  // The sharded surface honors both modes.
  EXPECT_NO_THROW(validate_options(o, OptionsSurface::kSharded));
  o.decompose = Decompose::kOff;
  EXPECT_NO_THROW(validate_options(o, OptionsSurface::kSharded));
}

TEST(ValidateOptions, IncrementalRequiresDecomposition) {
  Options o;  // decompose defaults to kOff
  EXPECT_THROW(validate_options(o, OptionsSurface::kIncremental),
               support::InvalidInput);
}

TEST(ValidateOptions, IncrementalRejectsWholeInstanceOverrides) {
  Options o = valid_for(OptionsSurface::kIncremental);
  o.initial_constraint = 0;
  EXPECT_THROW(validate_options(o, OptionsSurface::kIncremental),
               support::InvalidInput);

  o = valid_for(OptionsSurface::kIncremental);
  o.insertion_order = {0, 1, 2};
  EXPECT_THROW(validate_options(o, OptionsSurface::kIncremental),
               support::InvalidInput);

  // The same overrides stay legal on the other surfaces (run_sharded
  // clears them per shard; the single-instance drivers honor them).
  o = valid_for(OptionsSurface::kSingleInstance);
  o.initial_constraint = 0;
  o.insertion_order = {0, 1, 2};
  EXPECT_NO_THROW(validate_options(o, OptionsSurface::kSingleInstance));
  EXPECT_NO_THROW(validate_options(o, OptionsSurface::kSharded));
}

TEST(ValidateOptions, IncrementalCollectNeedsLabels) {
  Options o = valid_for(OptionsSurface::kIncremental);
  o.collect_trees = true;
  EXPECT_THROW(validate_options(o, OptionsSurface::kIncremental),
               support::InvalidInput);
  // Counting-only sessions need no labels.
  o.collect_trees = false;
  EXPECT_NO_THROW(validate_options(o, OptionsSurface::kIncremental));
  // Other surfaces fall back to the compact id-based encoding instead.
  Options s;
  s.collect_trees = true;
  EXPECT_NO_THROW(validate_options(s, OptionsSurface::kSingleInstance));
  EXPECT_NO_THROW(validate_options(s, OptionsSurface::kSharded));
}

TEST(CacheStats, MergeAccumulates) {
  CacheStats a;
  a.hits = 2;
  a.misses = 1;
  a.reused_states = 100;
  CacheStats b;
  b.hits = 3;
  b.evictions = 4;
  b.recomputed_components = 5;
  a.merge(b);
  EXPECT_EQ(a.hits, 5u);
  EXPECT_EQ(a.misses, 1u);
  EXPECT_EQ(a.evictions, 4u);
  EXPECT_EQ(a.recomputed_components, 5u);
  EXPECT_EQ(a.reused_states, 100u);
}

}  // namespace
}  // namespace gentrius::core
