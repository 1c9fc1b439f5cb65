#include "engine.hpp"

#include <string>
#include <utility>

#include "datagen/dataset.hpp"
#include "gentrius/enumerator.hpp"
#include "gentrius/problem.hpp"
#include "gentrius/serial.hpp"
#include "gentrius/terrace.hpp"
#include "parallel/pool.hpp"
#include "support/rng.hpp"
#include "vthread/virtual_pool.hpp"

namespace perfbench {

namespace core = gentrius::core;
namespace datagen = gentrius::datagen;

namespace {

bool same_counts(const core::Result& a, const core::Result& b) {
  return a.stand_trees == b.stand_trees &&
         a.intermediate_states == b.intermediate_states &&
         a.dead_ends == b.dead_ends && a.reason == b.reason;
}

std::string describe(const core::Result& r) {
  return "trees=" + std::to_string(r.stand_trees) +
         " states=" + std::to_string(r.intermediate_states) +
         " dead_ends=" + std::to_string(r.dead_ends) +
         " reason=" + core::to_string(r.reason);
}

/// Span tag of one instance's call in a configuration: "<config>#<index>".
std::string instance_tag(const std::string& config, std::size_t i) {
  return config + "#" + std::to_string(i);
}

/// One solve configuration of the timed pass.
struct SolveConfig {
  const char* sample;  ///< Record sample name (seconds per instance)
  const char* tag;     ///< span tag
  std::size_t threads;  ///< 0 = core::run_serial
  core::Options options;
};

std::vector<SolveConfig> solve_configs() {
  core::Options deques_gw = engine_options();
  deques_gw.scheduler = core::Scheduler::kDistributedDeques;
  deques_gw.offer_policy = core::OfferPolicy::kAdaptiveGW;
  return {
      {"solve_serial_s", "serial", 0, engine_options()},
      {"solve_2t_s", "2t", 2, engine_options()},
      {"solve_4t_s", "4t", 4, engine_options()},
      {"solve_4t_deques_gw_s", "4t-deques-gw", 4, deques_gw},
  };
}

/// Records offered tasks up to a limit, then bounces every further offer
/// (the enumerator keeps those branches, as with a full queue).
class TaskRecorder final : public core::TaskSink {
 public:
  explicit TaskRecorder(std::size_t limit) : limit_(limit) {}
  bool try_push(core::Task& task) override {
    if (tasks_.size() >= limit_) return false;
    tasks_.push_back(task);
    return true;
  }
  bool full() const noexcept { return tasks_.size() >= limit_; }
  const std::vector<core::Task>& tasks() const noexcept { return tasks_; }

 private:
  std::size_t limit_;
  std::vector<core::Task> tasks_;
};

}  // namespace

std::vector<EngineInstance> simulated_instances(
    const std::vector<std::uint64_t>& generator_seeds) {
  std::vector<EngineInstance> out;
  for (const std::uint64_t g : generator_seeds) {
    datagen::SimulatedParams sp;
    sp.n_taxa = 100;
    sp.n_loci = 16;
    sp.missing_fraction = 0.6;
    sp.seed = g;
    auto ds = datagen::make_simulated(sp);
    auto ref = core::run_serial(ds.constraints, engine_options());
    out.push_back({ds.name, std::move(ds.constraints), std::move(ref)});
  }
  return out;
}

EngineInstance flood_instance(std::size_t depth, std::uint64_t seed) {
  auto ds = datagen::make_flood_instance(depth, seed);
  auto ref = core::run_serial(ds.constraints, engine_options());
  return {ds.name, std::move(ds.constraints), std::move(ref)};
}

EnginePart::EnginePart(std::vector<EngineInstance> instances, Tracer& tracer,
                       Record& record)
    : instances_(std::move(instances)), tracer_(&tracer), record_(&record) {
  for (const auto& inst : instances_)
    problems_.push_back(
        core::build_problem(inst.constraints, engine_options()));

  // Exact, schedule-invariant counts of the reference runs.
  double states = 0, dead_ends = 0, fresh = 0, cached = 0, existence = 0,
         rebuilt = 0;
  for (const auto& inst : instances_) {
    const auto& r = inst.reference;
    states += static_cast<double>(r.intermediate_states);
    dead_ends += static_cast<double>(r.dead_ends);
    fresh += static_cast<double>(r.selection.fresh_counts);
    cached += static_cast<double>(r.selection.cached_counts);
    existence += static_cast<double>(r.selection.existence_checks);
    rebuilt += static_cast<double>(r.selection.mappings_rebuilt);
  }
  auto& v = record_->values;
  v["gentrius.states"] = states;
  v["gentrius.dead_ends"] = dead_ends;
  v["gentrius.selection.fresh"] = fresh;
  v["gentrius.selection.cached"] = cached;
  v["gentrius.selection.existence"] = existence;
  v["gentrius.selection.rebuilt"] = rebuilt;
}

void EnginePart::setup_rep(std::size_t times) {
  for (std::size_t t = 0; t < times; ++t) {
    // The caller hands build_problem its own copy of the constraints; the
    // copy is made before the clock starts.
    std::vector<std::vector<gentrius::phylo::Tree>> inputs;
    for (const auto& inst : instances_) inputs.push_back(inst.constraints);
    tracer_->begin_op();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const auto span =
          tracer_->open("gentrius.build_problem", instance_tag("", i));
      const auto p =
          core::build_problem(std::move(inputs[i]), engine_options());
      tracer_->close(span);
      record_->check(
          p.n_taxa == problems_[i].n_taxa &&
              p.initial_constraint == problems_[i].initial_constraint,
          "build_problem differs on " + instances_[i].name);
    }
    record_->add("setup_engine_s", seconds_since(t0));
  }
}

void EnginePart::solve_rep() {
  for (const auto& cfg : solve_configs()) {
    core::SchedulerStats sched;
    double executed = 0, offered = 0;
    for (std::size_t i = 0; i < problems_.size(); ++i) {
      tracer_->begin_op();
      const auto t0 = Clock::now();
      const auto span = tracer_->open(
          cfg.threads == 0 ? "gentrius.run_serial" : "parallel.run_parallel",
          instance_tag(cfg.tag, i));
      const core::Result r =
          cfg.threads == 0
              ? core::run_serial(problems_[i], cfg.options)
              : gentrius::parallel::run_parallel(problems_[i], cfg.options,
                                                 cfg.threads);
      tracer_->close(span, r.intermediate_states);
      record_->add(instance_tag(cfg.sample, i), seconds_since(t0));
      record_->check(same_counts(r, instances_[i].reference),
                     std::string(cfg.sample) + " on " + instances_[i].name +
                         ": " + describe(r) + " vs reference " +
                         describe(instances_[i].reference));
      sched.merge(r.sched);
      executed += static_cast<double>(r.tasks_executed);
      offered += static_cast<double>(r.tasks_offered);
    }
    if (std::string(cfg.tag) == "4t") {
      record_->add("parallel.tasks_executed", executed);
      record_->add("parallel.tasks_offered", offered);
      record_->add("parallel.tasks_stolen",
                   static_cast<double>(sched.tasks_stolen));
      record_->add("parallel.steal_attempts",
                   static_cast<double>(sched.steal_attempts));
      record_->add("parallel.failed_probes",
                   static_cast<double>(sched.failed_steal_probes));
      record_->add("parallel.queue_full_rejections",
                   static_cast<double>(sched.queue_full_rejections));
      record_->add("parallel.max_queue_depth",
                   static_cast<double>(sched.max_queue_depth));
      record_->add("parallel.adopted_actual_states",
                   static_cast<double>(sched.adopted_actual_states));
    }
  }
}

void EnginePart::layer_probes(std::uint64_t seed, bool first) {
  // Pool overhead: the real pool with one worker against run_serial.
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    tracer_->begin_op();
    const auto span = tracer_->open("parallel.run_parallel",
                                    instance_tag("1t", i));
    const auto r = gentrius::parallel::run_parallel(problems_[i],
                                                    engine_options(), 1);
    tracer_->close(span, r.intermediate_states);
    record_->check(same_counts(r, instances_[i].reference),
                   "run_parallel N_t=1 on " + instances_[i].name);
  }

  // The simulator is deterministic: one prediction per run suffices.
  if (first) {
    double makespan1 = 0, makespan4 = 0;
    for (std::size_t i = 0; i < problems_.size(); ++i) {
      for (const std::size_t nt : {std::size_t{1}, std::size_t{4}}) {
        tracer_->begin_op();
        const auto span = tracer_->open(
            "vthread.run_virtual", instance_tag(std::to_string(nt) + "t", i));
        const auto r = gentrius::vthread::run_virtual(problems_[i],
                                                      engine_options(), nt);
        tracer_->close(span, r.intermediate_states);
        record_->check(same_counts(r, instances_[i].reference),
                       "run_virtual N_t=" + std::to_string(nt) + " on " +
                           instances_[i].name);
        (nt == 1 ? makespan1 : makespan4) += r.virtual_makespan;
      }
    }
    record_->values["vthread.makespan_1t"] = makespan1;
    record_->values["vthread.makespan_4t"] = makespan4;
  }

  // The kernel and replay probes use the set's largest instance.
  std::size_t largest = 0;
  for (std::size_t i = 1; i < instances_.size(); ++i)
    if (instances_[i].reference.intermediate_states >
        instances_[largest].reference.intermediate_states)
      largest = i;
  const core::Problem& problem = problems_[largest];

  // Terrace kernel: a seeded walk that descends by random admissible
  // branches and backtracks a random depth at every stand tree or dead end.
  {
    tracer_->begin_op();
    gentrius::support::Rng rng(seed ^ 0x7e77ace5ULL);
    core::Terrace terrace(problem);
    std::vector<core::EdgeId> branches;
    std::vector<gentrius::phylo::InsertRecord> inserted;
    for (int step = 0; step < 400; ++step) {
      auto span = tracer_->open("gentrius.terrace.choose_dynamic");
      const auto choice = terrace.choose_dynamic(branches);
      tracer_->close(span);
      if (choice.complete || choice.dead_end || branches.empty()) {
        if (inserted.empty()) break;
        const std::size_t back = 1 + rng.below(inserted.size());
        for (std::size_t k = 0; k < back; ++k) {
          span = tracer_->open("gentrius.terrace.remove");
          terrace.remove(inserted.back());
          tracer_->close(span);
          inserted.pop_back();
        }
        continue;
      }
      const auto edge = branches[rng.below(branches.size())];
      span = tracer_->open("gentrius.terrace.insert");
      inserted.push_back(terrace.insert(choice.taxon, edge));
      tracer_->close(span);
    }
  }

  // Task replay: capture real offers from a producer, then adopt and
  // rewind each on a consumer positioned at the initial split state.
  {
    const core::Options opts = engine_options();
    core::CounterSink producer_sink(opts.stop);
    core::Enumerator producer(problem, opts, producer_sink);
    const auto& prefix = producer.run_prefix(true);
    if (prefix.outcome != core::Enumerator::Prefix::Outcome::kSplit) return;
    TaskRecorder recorder(64);
    producer.set_task_sink(&recorder);
    producer.begin_branches(prefix.split_taxon, prefix.branches);
    while (!recorder.full() &&
           producer.step() == core::Enumerator::Step::kWorked) {
    }
    core::CounterSink consumer_sink(opts.stop);
    core::Enumerator consumer(problem, opts, consumer_sink);
    consumer.run_prefix(false);
    tracer_->begin_op();
    for (const auto& task : recorder.tasks()) {
      auto span = tracer_->open("gentrius.enumerator.adopt_task");
      const auto replayed = consumer.adopt_task(task);
      tracer_->close(span, replayed);
      span = tracer_->open("gentrius.enumerator.rewind_to_split");
      const auto removed = consumer.rewind_to_split();
      tracer_->close(span, removed);
    }
  }
}

}  // namespace perfbench
