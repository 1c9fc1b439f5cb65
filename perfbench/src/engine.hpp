// The engine half of a workload: one instance set solved from scratch by
// core::run_serial and parallel::run_parallel, plus (traced runs) the
// per-layer probes of gentrius, parallel and vthread.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gentrius/options.hpp"
#include "gentrius/problem.hpp"
#include "phylo/tree.hpp"
#include "record.hpp"

namespace perfbench {

struct EngineInstance {
  std::string name;
  std::vector<gentrius::phylo::Tree> constraints;
  gentrius::core::Result reference;  ///< run_serial, the correctness oracle
};

/// Simulated instances (100 taxa, 16 loci, 60 % missing) of the given
/// generator seeds, each solved once by run_serial for its reference.
std::vector<EngineInstance> simulated_instances(
    const std::vector<std::uint64_t>& generator_seeds);

/// The flood instance of the given depth and generator seed.
EngineInstance flood_instance(std::size_t depth, std::uint64_t seed);

class EnginePart {
 public:
  EnginePart(std::vector<EngineInstance> instances, Tracer& tracer,
             Record& record);

  /// Where the next passes record to.
  void bind(Tracer& tracer, Record& record) {
    tracer_ = &tracer;
    record_ = &record;
  }

  /// build_problem over the whole set, `times` times: setup samples.
  void setup_rep(std::size_t times);

  /// One pass of every solve configuration over the set. Each call is one
  /// sample, "<configuration>#<instance>"; every result is checked against
  /// the instance's reference.
  void solve_rep();

  /// Traced runs only: the single-layer probes (Terrace kernel walk, task
  /// replay, N_t=1 pool, virtual-time prediction).
  void layer_probes(std::uint64_t seed, bool first);

  const std::vector<EngineInstance>& instances() const noexcept {
    return instances_;
  }

 private:
  std::vector<EngineInstance> instances_;
  std::vector<gentrius::core::Problem> problems_;
  Tracer* tracer_;
  Record* record_;
};

}  // namespace perfbench
