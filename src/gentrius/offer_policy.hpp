// Online Galton–Watson subtree-size model (Options::OfferPolicy::kAdaptiveGW).
//
// The branch-and-bound tree is a branching process: the state reached after
// inserting all but r taxa "reproduces" by inserting the next chosen taxon
// into each of its admissible branches, so the offspring count of a stratum-r
// state is exactly the admissible-branch count the enumerator already
// computes there (0 at a dead end). Keying the offspring distribution by the
// remaining-taxon count r — the natural stratification of this process,
// since every child of a stratum-r state sits at stratum r-1 — gives the
// classic Galton–Watson recurrence for expected subtree work in states:
//
//     W(0) = 0,      W(r) = m(r) * (1 + W(r-1))
//
// where m(r) is the mean offspring count observed at stratum r. A frame at
// stratum r delegating k of its branches therefore hands the thief
// k * (1 + W(r-1)) expected states. `maybe_offer_task` compares that
// prediction against an adaptive cutoff (hand-off cost scaled by the live
// sink backlog) to decide offer vs expand locally — see options.hpp and
// Enumerator::maybe_offer_task.
//
// Everything here is per-enumerator (no sharing, no locks) and a pure
// function of the states that worker visited, so the virtual-time simulator
// remains bit-identical across replays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/invariant.hpp"

namespace gentrius::core {

class GwOfferModel {
 public:
  /// Smoothing prior for the per-stratum offspring mean: each stratum
  /// behaves as if it had already seen kPriorWeight samples with mean
  /// kPriorOffspring. The optimistic prior (> 1) keeps early offers flowing
  /// before the histogram has data.
  static constexpr double kPriorOffspring = 2.0;
  static constexpr double kPriorWeight = 4.0;
  /// The W(r) table is refitted after this many new offspring samples
  /// (lazily, at the next offer evaluation).
  static constexpr std::uint32_t kRefitPeriod = 64;

  GwOfferModel() = default;

  /// `max_remaining` = the instance's missing-taxon count: strata run
  /// 0..max_remaining inclusive.
  explicit GwOfferModel(std::size_t max_remaining) { reset(max_remaining); }

  void reset(std::size_t max_remaining) {
    offspring_sum_.assign(max_remaining + 1, 0.0);
    samples_.assign(max_remaining + 1, 0);
    expected_.assign(max_remaining + 1, 0.0);
    since_refit_ = kRefitPeriod;  // first prediction fits from the prior
  }

  /// Records one observation: the taxon chosen at a state with `remaining`
  /// taxa left had `offspring` admissible branches (0 at a dead end).
  void record(std::size_t remaining, std::size_t offspring) {
    GENTRIUS_DCHECK_LT(remaining, offspring_sum_.size());
    offspring_sum_[remaining] += static_cast<double>(offspring);
    ++samples_[remaining];
    ++since_refit_;
  }

  /// Expected states a thief expands per delegated branch of a frame whose
  /// state has `remaining` taxa left: the branch insertion itself plus the
  /// expected subtree below it, 1 + W(remaining - 1). Lazily refits the
  /// W table when enough new samples accumulated.
  double expected_branch_states(std::size_t remaining) {
    if (since_refit_ >= kRefitPeriod) refit();
    GENTRIUS_DCHECK_GT(remaining, 0u);
    GENTRIUS_DCHECK_LT(remaining, expected_.size());
    return 1.0 + expected_[remaining - 1];
  }

  /// Smoothed offspring mean at a stratum (exposed for tests/diagnostics).
  double offspring_mean(std::size_t remaining) const {
    GENTRIUS_DCHECK_LT(remaining, offspring_sum_.size());
    return (offspring_sum_[remaining] + kPriorOffspring * kPriorWeight) /
           (static_cast<double>(samples_[remaining]) + kPriorWeight);
  }

  std::uint64_t samples(std::size_t remaining) const {
    GENTRIUS_DCHECK_LT(remaining, samples_.size());
    return samples_[remaining];
  }

 private:
  void refit() {
    since_refit_ = 0;
    // Supercritical strata (m > 1) grow W geometrically; cap it so the
    // product never overflows — beyond the cap every cutoff passes anyway.
    constexpr double kMaxExpected = 1e15;
    double below = 0.0;  // W(r-1)
    for (std::size_t r = 0; r < expected_.size(); ++r) {
      double w = r == 0 ? 0.0 : offspring_mean(r) * (1.0 + below);
      if (w > kMaxExpected) w = kMaxExpected;
      expected_[r] = w;
      below = w;
    }
  }

  std::uint32_t since_refit_ = 0;
  std::vector<double> offspring_sum_;  // indexed by remaining-taxon count
  std::vector<std::uint64_t> samples_;
  std::vector<double> expected_;       // W(r), refreshed by refit()
};

}  // namespace gentrius::core
