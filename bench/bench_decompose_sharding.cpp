// Decomposition ablation: sharded enumeration vs the monolithic engine on a
// multi-component instance, under the virtual-time simulator.
//
// The product law makes decomposition a work-count optimization, not just a
// parallelism one: the monolithic engine enumerates all
// prod_i c_i * M stand trees one by one, while the sharded driver
// enumerates c_1 + ... + c_k component trees plus the M interleavings of
// the residual shard — the products are never materialized unless the
// caller asks for the stand itself. On the default instance (two blocks,
// component counts 3 x 3, M = 21879) that is 196,911 monolithic
// enumerations against ~21,885 sharded ones: an ~9x reduction in virtual
// makespan before any threads are added.
//
// The run is fully deterministic (virtual time), so the emitted "SHARD ..."
// lines are machine-parsable and stable across machines;
// tools/run_benchmarks.py --decompose turns them into BENCH_7.json and the
// CI gate requiring sharded throughput >= monolithic on a >= 2-component
// instance.
#include <cstdio>
#include <cstdlib>

#include "benchutil/corpus.hpp"
#include "decompose/components.hpp"
#include "decompose/sharded.hpp"
#include "gentrius/problem.hpp"
#include "vthread/virtual_pool.hpp"

int main() {
  using namespace gentrius;

  // Seed 4 of the block-structured generator: two components (5 + 6 taxa)
  // with per-component counts 3 and 3, residual M = 21879, whole stand
  // 196,911 trees, completing without stopping rules. Component counts > 1
  // matter: with counts of 1 the residual does all the work and sharding
  // can only add dispatch overhead. GENTRIUS_DECOMPOSE_SEED overrides for
  // exploration; BENCH_7.json is generated from the default.
  benchutil::MultiComponentParams params;
  params.n_components = 2;
  params.min_taxa_per_component = 5;
  params.max_taxa_per_component = 6;
  params.loci_per_component = 3;
  params.missing_fraction = 0.35;
  params.seed = 4;
  if (const char* e = std::getenv("GENTRIUS_DECOMPOSE_SEED"))
    params.seed = std::strtoull(e, nullptr, 10);
  const auto dataset = benchutil::make_multi_component(params);

  core::Options options;
  options.stop.max_stand_trees = 2'000'000;
  options.stop.max_states = 30'000'000;

  const auto split = decompose::analyze_components(dataset.constraints);
  std::printf("instance %s\n", dataset.name.c_str());
  std::printf("SHARD instance=%s components=%zu enumerable=%zu\n",
              dataset.name.c_str(), split.components.size(),
              split.enumerable_count);

  const auto problem = core::build_problem(dataset.constraints, options);

  for (const std::size_t nt : {1UL, 2UL, 4UL, 8UL}) {
    const auto mono = vthread::run_virtual(problem, options, nt);
    decompose::ShardRunOptions run;
    run.backend = decompose::ShardBackend::kVirtual;
    run.n_threads = nt;
    const auto seq = decompose::run_sharded(dataset.constraints, options, run);
    run.schedule = decompose::ShardSchedule::kConcurrent;
    const auto conc = decompose::run_sharded(dataset.constraints, options, run);
    std::printf(
        "SHARD nt=%zu mono_makespan=%.1f sharded_seq_makespan=%.1f "
        "sharded_conc_makespan=%.1f speedup_seq=%.3f speedup_conc=%.3f "
        "mono_trees=%llu sharded_trees=%llu reason=%s\n",
        nt, mono.virtual_makespan, seq.virtual_makespan,
        conc.virtual_makespan,
        mono.virtual_makespan / seq.virtual_makespan,
        mono.virtual_makespan / conc.virtual_makespan,
        static_cast<unsigned long long>(mono.stand_trees),
        static_cast<unsigned long long>(seq.stand_trees),
        core::to_string(mono.reason));
    if (nt == 1) {
      for (const auto& s : seq.shards)
        std::printf("SHARDDETAIL %s makespan=%.1f\n",
                    decompose::shard_trace_line(s).c_str(),
                    s.virtual_makespan);
    }
  }
  return 0;
}
