#include "gentrius/enumerator.hpp"

#include <algorithm>

#include "phylo/newick.hpp"
#include "phylo/topology.hpp"
#include "support/check.hpp"
#include "support/error.hpp"
#include "support/invariant.hpp"
#include "support/rng.hpp"

namespace gentrius::core {

namespace {

/// Clock-read cadence of stopping rule 3, in counter flushes. Exact counting
/// (every batch 1, as run_serial and the one-worker simulation use) flushes
/// at every state, so reading the clock each time would put a syscall in
/// the hot loop; one read per 256 flushes keeps the time rule's granularity
/// well under a millisecond at serial state rates. Batched counting reads
/// it on every flush.
std::uint32_t time_check_period(const Options& options) {
  const bool exact = options.tree_flush_batch == 1 &&
                     options.state_flush_batch == 1 &&
                     options.dead_end_flush_batch == 1;
  return exact ? 256 : 1;
}

// Paper §III-A: no task submission with fewer than 3 remaining taxa —
// finishing that subtree is cheaper than the stealing round-trip.
constexpr std::size_t kOfferMinRemaining = 3;

// kAdaptiveGW cutoff terms, in state units. The uncontended hand-off costs
// a flat queue/deque round trip plus the thief's replay per path entry
// (mirroring vthread::CostModel's queue_cost + replay_cost); with the sink
// full, the predicted delegated work must exceed kWorkMultiple times that,
// scaled by the sink's contention penalty.
constexpr double kHandoffStates = 2.0;
constexpr double kHandoffPerPath = 0.3;
constexpr double kWorkMultiple = 4.0;

}  // namespace

Enumerator::Enumerator(const Problem& problem, const Options& options,
                       CounterSink& sink)
    : problem_(&problem),
      options_(&options),
      terrace_(problem, options.incremental_mappings),
      counters_(sink, options.tree_flush_batch, options.state_flush_batch,
                options.dead_end_flush_batch, time_check_period(options)),
      sink_(&sink),
      adaptive_(options.offer_policy == OfferPolicy::kAdaptiveGW) {
  if (adaptive_) gw_model_.reset(problem.missing_count());
  if (!options.dynamic_taxon_order || !options.insertion_order.empty()) {
    if (!options.insertion_order.empty()) {
      static_order_ = options.insertion_order;
      auto sorted = static_order_;
      std::sort(sorted.begin(), sorted.end());
      if (sorted != problem.missing_taxa)
        throw support::InvalidInput(
            "insertion_order must be a permutation of the missing taxa");
    } else {
      static_order_ = problem.missing_taxa;
      if (options.shuffle_seed) {
        support::Rng rng(*options.shuffle_seed);
        rng.shuffle(static_order_);
      }
    }
  }
}

Terrace::Choice Enumerator::choose(std::vector<EdgeId>& branches) {
  if (static_order_.empty())
    return terrace_.choose_dynamic(branches, options_->dynamic_variant);
  if (terrace_.remaining_count() == 0) {
    branches.clear();
    Terrace::Choice c;
    c.complete = true;
    return c;
  }
  const std::size_t index =
      problem_->missing_count() - terrace_.remaining_count();
  return terrace_.choose_static(static_order_[index], branches);
}

const Enumerator::Prefix& Enumerator::run_prefix(bool count) {
  if (prefix_done_) return prefix_;
  prefix_done_ = true;

  if (!terrace_.initial_state_consistent()) {
    prefix_.outcome = Prefix::Outcome::kEmpty;
    return prefix_;
  }
  for (;;) {
    const auto choice = choose(branch_scratch_);
    record_offspring(choice);
    if (choice.complete) {
      if (count) record_stand_tree();
      prefix_.outcome = Prefix::Outcome::kComplete;
      return prefix_;
    }
    if (choice.dead_end) {
      if (count) counters_.count_dead_end();
      prefix_.outcome = Prefix::Outcome::kDeadEnd;
      return prefix_;
    }
    if (branch_scratch_.size() >= 2) {
      prefix_.outcome = Prefix::Outcome::kSplit;
      prefix_.split_taxon = choice.taxon;
      prefix_.branches = branch_scratch_;
      return prefix_;
    }
    // Exactly one admissible branch: a forced, permanent insertion. This is
    // a regular intermediate state of the search.
    terrace_.insert(choice.taxon, branch_scratch_[0]);
    if (count) counters_.count_state();
    ++prefix_.length;
  }
}

void Enumerator::begin_branches(TaxonId taxon, std::vector<EdgeId> branches) {
  GENTRIUS_CHECK(prefix_done_);
  if (depth_ == frames_.size()) frames_.emplace_back();
  Frame& f = frames_[depth_++];
  f.taxon = taxon;
  f.branches = std::move(branches);
  f.next = 0;
  f.applied = false;
  mode_ = Mode::kBacktrack;  // the first step() applies branch 0
}

std::size_t Enumerator::adopt_task(const Task& task) {
  GENTRIUS_DCHECK(depth_ == 0 && replay_records_.empty());
  for (const auto& [taxon, edge] : task.path) {
    replay_records_.push_back(terrace_.insert(taxon, edge));
    path_.emplace_back(taxon, edge);
  }
  begin_branches(task.next_taxon, task.branches);
  // Prediction-error accounting: remember what the producer's model claimed
  // and how many states we had expanded; the delta is settled when this
  // task's rewind returns to I0.
  adopted_active_ = true;
  adopted_predicted_ = task.predicted_states;
  adopt_snapshot_ = states_applied_;
  return task.path.size();
}

std::size_t Enumerator::rewind_to_split() {
  std::size_t removals = 0;
  while (depth_ > 0) {
    Frame& f = frames_[depth_ - 1];
    if (f.applied) {
      terrace_.remove(f.rec);
      f.applied = false;
      path_.pop_back();
      ++removals;
    }
    --depth_;
  }
  for (auto it = replay_records_.rbegin(); it != replay_records_.rend(); ++it) {
    terrace_.remove(*it);
    path_.pop_back();
    ++removals;
  }
  replay_records_.clear();
  GENTRIUS_DCHECK(path_.empty());  // back at I0: no residual insertions
  mode_ = Mode::kDone;
  if (adopted_active_) {
    adopted_active_ = false;
    offer_stats_.adopted_predicted_states += adopted_predicted_;
    offer_stats_.adopted_actual_states += states_applied_ - adopt_snapshot_;
  }
  return removals;
}

void Enumerator::record_stand_tree() {
  counters_.count_stand_tree();
  if (options_->collect_trees && collected_.size() < options_->collect_limit) {
    if (options_->tree_names) {
      collected_.push_back(
          phylo::canonical_newick(terrace_.agile(), *options_->tree_names));
    } else {
      collected_.push_back(phylo::canonical_encoding(terrace_.agile()));
    }
  }
}

void Enumerator::record_offspring(const Terrace::Choice& choice) {
  // kAdaptiveGW only: feed the per-stratum offspring histogram. A complete
  // state has no offspring observation (remaining == 0); a dead end is the
  // offspring-0 event of its stratum. choose() has not inserted anything,
  // so remaining_count() is still this state's stratum.
  if (!adaptive_ || choice.complete) return;
  gw_model_.record(terrace_.remaining_count(),
                   choice.dead_end ? 0 : branch_scratch_.size());
}

void Enumerator::maybe_offer_task(Frame& f) {
  if (task_sink_ == nullptr) return;
  if (terrace_.remaining_count() < kOfferMinRemaining) return;
  if (f.branches.size() < 2) return;
  GENTRIUS_DCHECK(f.next == 0);  // frame freshly set up, nothing consumed yet
  // The paper delegates half of the branch set; with >= 2 branches both
  // sides keep at least one.
  const std::size_t half = f.branches.size() / 2;
  double predicted = 0.0;
  if (adaptive_) {
    ++offer_stats_.offers_evaluated;
    const std::size_t backlog = task_sink_->backlog();
    const std::size_t limit = task_sink_->backlog_limit();
    // Saturated sink: the push would be rejected anyway, so don't bounce
    // the hand-off mutex to learn that. The lock-free backlog probe makes
    // this bail strictly cheaper than kPaperFixed's full-queue rejection.
    if (limit > 0 && backlog >= limit) {
      ++offer_stats_.offers_suppressed;
      return;
    }
    predicted = static_cast<double>(half) *
                gw_model_.expected_branch_states(terrace_.remaining_count());
    // The bar a delegated subtree must clear. The base is the uncontended
    // round trip: the transfer itself plus the thief's replay of the
    // producer's path — when the sink is empty the pool looks starved and
    // any subtree repaying that much is worth handing off. As the sink
    // fills, thieves are evidently already fed and every transfer competes
    // for the serialized hand-off section, so the bar rises with the fill
    // fraction, scaled by the sink's contention penalty (N_t for the
    // central queue, whose one mutex is the whole pool's hand-off pipe; 1
    // for per-worker deques): under pressure only kWorkMultiple×penalty×
    // coarser subtrees are worth queueing ahead of the backlog.
    const double base =
        kHandoffStates + kHandoffPerPath * static_cast<double>(path_.size());
    const double fill =
        limit > 0 ? static_cast<double>(backlog) / static_cast<double>(limit)
                  : (backlog > 0 ? 1.0 : 0.0);
    // Quadratic in fill: one queued task in a wide ring barely raises the
    // bar (small instances need every offer to feed the pool), while a ring
    // approaching capacity pushes it toward the full penalty.
    const double cutoff =
        base *
        (1.0 + kWorkMultiple * task_sink_->handoff_penalty() * fill * fill);
    if (predicted < cutoff) {
      ++offer_stats_.offers_suppressed;
      return;
    }
  }
  // Stage the offer in the pooled task outside any lock; an accepting sink
  // swaps the vectors for its slot's, so capacity keeps circulating between
  // the pool and the queue and steady-state offers never reallocate.
  offer_task_.path = path_;
  offer_task_.next_taxon = f.taxon;
  offer_task_.predicted_states = predicted;
  offer_task_.branches.assign(
      f.branches.begin(),
      f.branches.begin() + static_cast<std::ptrdiff_t>(half));
  if (task_sink_->try_push(offer_task_)) {
    // The delegated first half is skipped by advancing the cursor — no
    // erase(), the vector is left untouched.
    f.next = half;
    ++tasks_offered_;
    offer_stats_.predicted_task_states += predicted;
  }
}

void Enumerator::apply_branch(Frame& f, bool count) {
  GENTRIUS_DCHECK_LT(f.next, f.branches.size());
  const EdgeId e = f.branches[f.next++];
  f.rec = terrace_.insert(f.taxon, e);
  f.applied = true;
  path_.emplace_back(f.taxon, e);
  if (count) {
    counters_.count_state();
    ++states_applied_;
  }
  mode_ = Mode::kChoose;
}

Enumerator::Step Enumerator::step() {
  GENTRIUS_DCHECK_LE(depth_, frames_.size());
  if (mode_ == Mode::kDone) return Step::kExhausted;
  if (sink_->stop_requested()) return Step::kStopped;

  if (mode_ == Mode::kChoose) {
    const auto choice = choose(branch_scratch_);
    record_offspring(choice);
    if (choice.complete) {
      record_stand_tree();
      mode_ = Mode::kBacktrack;
      return Step::kWorked;
    }
    if (choice.dead_end) {
      counters_.count_dead_end();
      mode_ = Mode::kBacktrack;
      return Step::kWorked;
    }
    if (depth_ == frames_.size()) frames_.emplace_back();
    Frame& f = frames_[depth_++];
    f.taxon = choice.taxon;
    f.branches.swap(branch_scratch_);
    f.next = 0;
    f.applied = false;
    if (f.branches.size() >= 2) maybe_offer_task(f);
    apply_branch(f, /*count=*/true);
    return Step::kWorked;
  }

  // Backtrack: undo the top insertion, then either try its next sibling
  // branch or pop the frame and continue upward.
  while (depth_ > 0) {
    Frame& f = frames_[depth_ - 1];
    if (f.applied) {
      terrace_.remove(f.rec);
      f.applied = false;
      path_.pop_back();
    }
    if (f.next < f.branches.size()) {
      apply_branch(f, /*count=*/true);
      return Step::kWorked;
    }
    --depth_;
  }
  mode_ = Mode::kDone;
  return Step::kExhausted;
}

}  // namespace gentrius::core
