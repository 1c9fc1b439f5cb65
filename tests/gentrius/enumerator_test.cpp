// Direct tests of the Enumerator state machine: prefix semantics, the
// task-offer rules, adopt/rewind round trips, and counting discipline.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "datagen/dataset.hpp"
#include "gentrius/enumerator.hpp"
#include "gentrius/serial.hpp"
#include "phylo/newick.hpp"
#include "phylo/topology.hpp"

namespace gentrius::core {
namespace {

/// Test sink that records every offered task and accepts the first `cap`.
class RecordingSink final : public TaskSink {
 public:
  explicit RecordingSink(std::size_t cap) : cap_(cap) {}
  bool try_push(Task& task) override {
    if (tasks.size() >= cap_) return false;
    tasks.push_back(task);  // copy: the recording must outlive the pool
    return true;
  }
  std::vector<Task> tasks;

 private:
  std::size_t cap_;
};

datagen::Dataset hard_dataset(std::uint64_t seed = 2023) {
  datagen::SimulatedParams sp;
  sp.n_taxa = 28;
  sp.n_loci = 5;
  sp.missing_fraction = 0.5;
  sp.seed = seed;
  return datagen::make_simulated(sp);
}

TEST(Enumerator, PrefixIsDeterministicAcrossInstances) {
  const auto ds = hard_dataset();
  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  CounterSink sink(opts.stop);
  Enumerator a(problem, opts, sink), b(problem, opts, sink);
  const auto& pa = a.run_prefix(true);
  const auto& pb = b.run_prefix(false);
  EXPECT_EQ(pa.outcome, pb.outcome);
  EXPECT_EQ(pa.split_taxon, pb.split_taxon);
  EXPECT_EQ(pa.branches, pb.branches);
  EXPECT_EQ(pa.length, pb.length);
  // Only the counting enumerator advanced the shared states counter.
  a.counters().flush_all();
  b.counters().flush_all();
  EXPECT_EQ(sink.states(), pa.length);
}

TEST(Enumerator, UncountedPrefixKeepsTotalsSerial) {
  const auto ds = hard_dataset();
  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  const auto serial = run_serial(problem, opts);

  // Simulate two "threads" sharing the initial branches; neither prefix is
  // double counted, replays are free: totals must equal the serial run.
  CounterSink sink(opts.stop);
  Enumerator a(problem, opts, sink), b(problem, opts, sink);
  const auto& prefix = a.run_prefix(true);
  b.run_prefix(false);
  ASSERT_EQ(prefix.outcome, Enumerator::Prefix::Outcome::kSplit);
  const std::size_t half = prefix.branches.size() / 2;
  std::vector<EdgeId> first(prefix.branches.begin(),
                            prefix.branches.begin() + half);
  std::vector<EdgeId> second(prefix.branches.begin() + half,
                             prefix.branches.end());
  a.begin_branches(prefix.split_taxon, first);
  b.begin_branches(prefix.split_taxon, second);
  while (a.step() == Enumerator::Step::kWorked) {}
  while (b.step() == Enumerator::Step::kWorked) {}
  a.counters().flush_all();
  b.counters().flush_all();
  EXPECT_EQ(sink.stand_trees(), serial.stand_trees);
  EXPECT_EQ(sink.states(), serial.intermediate_states);
  EXPECT_EQ(sink.dead_ends(), serial.dead_ends);
}

TEST(Enumerator, AdoptRewindRoundTripsExactly) {
  const auto ds = hard_dataset(77);
  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  CounterSink sink(opts.stop);

  // A producer generates tasks; a thief replays one and hands its agile
  // tree back to I0 unchanged.
  Enumerator producer(problem, opts, sink);
  RecordingSink tasks(4);
  producer.set_task_sink(&tasks);
  const auto& prefix = producer.run_prefix(true);
  ASSERT_EQ(prefix.outcome, Enumerator::Prefix::Outcome::kSplit);
  producer.begin_branches(prefix.split_taxon, prefix.branches);
  while (tasks.tasks.empty() &&
         producer.step() == Enumerator::Step::kWorked) {}
  ASSERT_FALSE(tasks.tasks.empty()) << "instance never offered a task";

  Enumerator thief(problem, opts, sink);
  thief.run_prefix(false);
  const std::string at_i0 = phylo::canonical_encoding(thief.terrace().agile());
  const auto& task = tasks.tasks.front();
  const std::size_t replayed = thief.adopt_task(task);
  EXPECT_EQ(replayed, task.path.size());
  EXPECT_NE(phylo::canonical_encoding(thief.terrace().agile()), at_i0);
  const std::size_t removed = thief.rewind_to_split();
  EXPECT_EQ(removed, task.path.size());
  EXPECT_EQ(phylo::canonical_encoding(thief.terrace().agile()), at_i0);

  // And the thief can actually *work* a task to completion.
  thief.adopt_task(task);
  while (thief.step() == Enumerator::Step::kWorked) {}
  thief.rewind_to_split();
  EXPECT_EQ(phylo::canonical_encoding(thief.terrace().agile()), at_i0);
}

TEST(Enumerator, NoTaskOfferedBelowThreeRemainingTaxa) {
  // An instance whose exploration runs with <= 2 remaining taxa after the
  // split: the enumerator must never offer tasks.
  phylo::TaxonSet taxa;
  std::vector<phylo::Tree> cs;
  cs.push_back(phylo::parse_newick("((a,b),c,(d,e));", taxa));
  cs.push_back(phylo::parse_newick("(w,a,b);", taxa));  // 1 free taxon
  Options opts;
  const auto problem = build_problem(cs, opts);
  CounterSink sink(opts.stop);
  Enumerator e(problem, opts, sink);
  RecordingSink tasks(100);
  e.set_task_sink(&tasks);
  const auto& prefix = e.run_prefix(true);
  ASSERT_EQ(prefix.outcome, Enumerator::Prefix::Outcome::kSplit);
  e.begin_branches(prefix.split_taxon, prefix.branches);
  while (e.step() == Enumerator::Step::kWorked) {}
  EXPECT_TRUE(tasks.tasks.empty());
  e.counters().flush_all();
  EXPECT_EQ(sink.stand_trees(), 7u);
}

TEST(Enumerator, OfferedTaskHalvesTheBranchSet) {
  const auto ds = hard_dataset(11);
  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  CounterSink sink(opts.stop);
  Enumerator e(problem, opts, sink);
  RecordingSink tasks(1);
  e.set_task_sink(&tasks);
  const auto& prefix = e.run_prefix(true);
  ASSERT_EQ(prefix.outcome, Enumerator::Prefix::Outcome::kSplit);
  e.begin_branches(prefix.split_taxon, prefix.branches);
  while (tasks.tasks.empty() && e.step() == Enumerator::Step::kWorked) {}
  ASSERT_EQ(tasks.tasks.size(), 1u);
  EXPECT_GE(tasks.tasks[0].branches.size(), 1u);
  EXPECT_EQ(e.tasks_offered(), 1u);
}

TEST(Enumerator, OffersFollowThePaperSplittingRule) {
  // Paper §III-A: a task is offered only with at least 3 taxa remaining and
  // carries the first b / 2 of its frame's b admissible branches. Each
  // recorded task is checked against an independent Terrace replayed to
  // the offering state.
  const auto ds = hard_dataset(77);
  for (const OfferPolicy policy :
       {OfferPolicy::kPaperFixed, OfferPolicy::kAdaptiveGW}) {
    SCOPED_TRACE(to_string(policy));
    Options opts;
    opts.offer_policy = policy;
    const auto problem = build_problem(ds.constraints, opts);
    CounterSink sink(opts.stop);
    Enumerator e(problem, opts, sink);
    RecordingSink tasks(5'000);
    e.set_task_sink(&tasks);
    const auto& prefix = e.run_prefix(true);
    ASSERT_EQ(prefix.outcome, Enumerator::Prefix::Outcome::kSplit);
    e.begin_branches(prefix.split_taxon, prefix.branches);
    while (e.step() == Enumerator::Step::kWorked) {}
    ASSERT_FALSE(tasks.tasks.empty());

    // Replay the forced prefix to I0 on a fresh Terrace.
    Terrace t(problem);
    std::vector<EdgeId> branches;
    for (;;) {
      const auto c = t.choose_dynamic(branches);
      ASSERT_FALSE(c.complete || c.dead_end);
      if (branches.size() >= 2) break;
      t.insert(c.taxon, branches[0]);
    }
    std::size_t min_remaining = problem.missing_count();
    for (const Task& task : tasks.tasks) {
      std::vector<InsertRecord> records;
      for (const auto& [taxon, edge] : task.path)
        records.push_back(t.insert(taxon, edge));
      min_remaining = std::min(min_remaining, t.remaining_count());
      EXPECT_GE(t.remaining_count(), 3u);
      t.choose_static(task.next_taxon, branches);
      ASSERT_GE(branches.size(), 2u);
      const std::vector<EdgeId> first_half(
          branches.begin(),
          branches.begin() + static_cast<std::ptrdiff_t>(branches.size() / 2));
      EXPECT_EQ(task.branches, first_half);
      for (auto it = records.rbegin(); it != records.rend(); ++it)
        t.remove(*it);
    }
    // Under the fixed rule the floor is reached, not just respected.
    if (policy == OfferPolicy::kPaperFixed) {
      EXPECT_EQ(min_remaining, 3u);
    }
  }
}

/// Drives one enumerator over the whole instance and returns its flush
/// count and the clock reads of the time rule.
std::pair<std::uint64_t, std::uint64_t> flushes_and_clock_reads(
    const Problem& problem, const Options& opts) {
  CounterSink sink(opts.stop);
  Enumerator e(problem, opts, sink);
  const auto& prefix = e.run_prefix(true);
  if (prefix.outcome == Enumerator::Prefix::Outcome::kSplit) {
    e.begin_branches(prefix.split_taxon, prefix.branches);
    while (e.step() == Enumerator::Step::kWorked) {}
  }
  e.counters().flush_all();
  return {e.counters().flush_count(), sink.time_checks()};
}

TEST(TimeCheckCadence, ExactCountingReadsTheClockEvery256thFlush) {
  // run_serial's counting: every batch 1, so a flush happens at every
  // state and the clock is read on every 256th.
  const auto ds = hard_dataset();
  Options opts;
  opts.tree_flush_batch = 1;
  opts.state_flush_batch = 1;
  opts.dead_end_flush_batch = 1;
  const auto [flushes, reads] =
      flushes_and_clock_reads(build_problem(ds.constraints, opts), opts);
  ASSERT_GT(flushes, 4u * 256u);
  EXPECT_EQ(reads, flushes / 256);
}

TEST(TimeCheckCadence, BatchedCountingReadsTheClockEveryFlush) {
  // run_parallel's counting (the default batches) and any other batched
  // setting read the clock on every flush.
  const auto ds = hard_dataset();
  Options small_batches;
  small_batches.state_flush_batch = 8;
  for (const Options& opts : {Options{}, small_batches}) {
    const auto [flushes, reads] =
        flushes_and_clock_reads(build_problem(ds.constraints, opts), opts);
    ASSERT_GT(flushes, 0u);
    EXPECT_EQ(reads, flushes);
  }
}

TEST(Enumerator, StopFlagHaltsStepping) {
  const auto ds = hard_dataset(5);
  Options opts;
  const auto problem = build_problem(ds.constraints, opts);
  CounterSink sink(opts.stop);
  Enumerator e(problem, opts, sink);
  const auto& prefix = e.run_prefix(true);
  ASSERT_EQ(prefix.outcome, Enumerator::Prefix::Outcome::kSplit);
  e.begin_branches(prefix.split_taxon, prefix.branches);
  for (int i = 0; i < 10; ++i) ASSERT_EQ(e.step(), Enumerator::Step::kWorked);
  sink.request_stop(StopReason::kTreeLimit);
  EXPECT_EQ(e.step(), Enumerator::Step::kStopped);
}

}  // namespace
}  // namespace gentrius::core
