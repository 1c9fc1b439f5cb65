#include "session.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "benchutil/corpus.hpp"
#include "benchutil/edit_stream.hpp"
#include "decompose/components.hpp"
#include "decompose/sharded.hpp"
#include "gentrius/problem.hpp"
#include "gentrius/serial.hpp"
#include "pam/canonical.hpp"
#include "phylo/taxon_set.hpp"

namespace perfbench {

namespace core = gentrius::core;
namespace decompose = gentrius::decompose;

namespace {

std::vector<gentrius::phylo::Tree> subset(
    const std::vector<gentrius::phylo::Tree>& constraints,
    const decompose::Component& comp) {
  std::vector<gentrius::phylo::Tree> out;
  for (const std::size_t c : comp.constraint_indices)
    out.push_back(constraints[c]);
  return out;
}

std::vector<std::string> trace_lines(const core::Result& r) {
  std::vector<std::string> lines;
  for (const auto& s : r.shards)
    lines.push_back(decompose::shard_trace_line(s));
  return lines;
}

}  // namespace

SessionPart::SessionPart(std::uint64_t seed, Tracer& tracer, Record& record)
    : seed_(seed), tracer_(&tracer), record_(&record) {
  gentrius::benchutil::MultiComponentParams mp;
  mp.n_components = 3;
  mp.min_taxa_per_component = 16;
  mp.max_taxa_per_component = 18;
  mp.loci_per_component = 6;
  mp.missing_fraction = 0.6;
  mp.min_taxa_per_locus = 4;
  mp.seed = 5;
  ds_ = gentrius::benchutil::make_multi_component(mp);

  options_.engine = engine_options();
  options_.engine.decompose = core::Decompose::kComponents;
  options_.run.residual_closed_form = true;
  options_.min_taxa = 4;
  initial_reference_ = from_scratch(ds_.pam, true);
}

std::vector<EngineInstance> SessionPart::component_instances() const {
  const auto dec =
      decompose::analyze_pam(ds_.species_tree, ds_.pam, options_.min_taxa);
  std::vector<EngineInstance> out;
  for (std::size_t c = 0; c < dec.split.components.size(); ++c) {
    const auto& comp = dec.split.components[c];
    if (!comp.enumerable) continue;
    auto sub = subset(dec.constraints, comp);
    auto ref = core::run_serial(sub, engine_options());
    out.push_back({ds_.name + "/component" + std::to_string(c),
                   std::move(sub), std::move(ref)});
  }
  return out;
}

core::Result SessionPart::from_scratch(const gentrius::pam::Pam& pam,
                                       bool reference) {
  const auto dec =
      decompose::analyze_pam(ds_.species_tree, pam, options_.min_taxa);
  if (!reference)
    return decompose::run_sharded(dec.constraints, options_.engine,
                                  options_.run);
  // Shard counts and stats do not depend on the backend, so the reference
  // runs each shard on the 4-thread pool; the stopping rule only bounds
  // the work of a stream that is cut anyway (a shard past 4x the cap).
  core::Options capped = options_.engine;
  capped.stop.max_states = 4 * kShardStateCap;
  decompose::ShardRunOptions pool = options_.run;
  pool.backend = decompose::ShardBackend::kPool;
  pool.n_threads = 4;
  return decompose::run_sharded(dec.constraints, capped, pool);
}

bool SessionPart::within_cap(const core::Result& ref) {
  if (ref.reason != core::StopReason::kCompleted) return false;
  for (const auto& s : ref.shards)
    if (s.intermediate_states > kShardStateCap) return false;
  return true;
}

void SessionPart::check(const core::Result& got, const core::Result& ref,
                        const char* what) {
  const bool ok = got.stand_trees == ref.stand_trees &&
                  got.count_saturated == ref.count_saturated &&
                  got.reason == ref.reason &&
                  trace_lines(got) == trace_lines(ref);
  record_->check(ok, std::string(what) + ": trees " +
                         std::to_string(got.stand_trees) +
                         " vs run_sharded " + std::to_string(ref.stand_trees));
}

const SessionPart::Stream& SessionPart::stream(std::size_t k) {
  while (streams_.size() <= k) {
    gentrius::benchutil::EditStreamParams ep;
    ep.seed = seed_ * 1'000'003 + candidates_++;
    ep.n_edits = kEditsPerStream;
    ep.min_taxa = options_.min_taxa;
    Stream s;
    s.edits = gentrius::benchutil::make_edit_stream(ds_.species_tree,
                                                    ds_.pam, ep);
    // A stream is kept when its largest re-enumeration lands in
    // [kMinHeavyStates, kShardStateCap]: a shard whose trace line the
    // stream has not produced before is one the session must enumerate.
    // Every kept stream then carries one comparable slow edit or more.
    gentrius::pam::Pam pam = ds_.pam;
    auto seen = trace_lines(initial_reference_);
    std::uint64_t heaviest = 0;
    for (const auto& edit : s.edits) {
      gentrius::incremental::apply_edit(pam, edit,
                                        ds_.species_tree.leaf_count());
      core::Result ref = from_scratch(pam, true);
      if (!within_cap(ref)) break;
      for (const auto& shard : ref.shards) {
        auto line = decompose::shard_trace_line(shard);
        if (std::find(seen.begin(), seen.end(), line) != seen.end()) continue;
        heaviest = std::max(heaviest, shard.intermediate_states);
        seen.push_back(std::move(line));
      }
      s.refs.push_back(std::move(ref));
    }
    if (s.refs.size() == s.edits.size() && heaviest >= kMinHeavyStates)
      streams_.push_back(std::move(s));
  }
  return streams_[k];
}

void SessionPart::stream_rep(std::size_t k) {
  const auto& [stream, refs] = this->stream(k);
  tracer_->begin_op();
  const auto t0 = Clock::now();
  auto span = tracer_->open("incremental.IncrementalSession");
  gentrius::incremental::IncrementalSession session(ds_.species_tree, ds_.pam,
                                                    options_);
  tracer_->close(span);
  span = tracer_->open("incremental.enumerate", "cold");
  const core::Result cold = session.enumerate();
  tracer_->close(span, cold.intermediate_states);
  record_->add("setup_session_s", seconds_since(t0));
  check(cold, initial_reference_, "cold enumerate");

  for (std::size_t i = 0; i < stream.size(); ++i) {
    gentrius::pam::Pam before;
    if (tracer_->enabled()) before = session.pam();

    tracer_->begin_op();
    auto t = Clock::now();
    span = tracer_->open("incremental.apply");
    const core::Result written = session.apply(stream[i]);
    tracer_->close(span, written.intermediate_states);
    record_->add("edit_ms", seconds_since(t) * 1e3);
    record_->add("edit_id", static_cast<double>(k * kEditsPerStream + i));
    record_->add("incremental.recomputed_states",
                 static_cast<double>(written.cache.recomputed_states));
    record_->add("incremental.recomputed_components",
                 static_cast<double>(written.cache.recomputed_components));
    record_->add("incremental.hits", static_cast<double>(written.cache.hits));
    record_->add("incremental.misses",
                 static_cast<double>(written.cache.misses));
    check(written, refs[i], "apply");
    if (tracer_->enabled()) {
      // What the edit would cost without the session: from scratch with
      // the session's own (serial) shard backend.
      const auto scratch = tracer_->open("decompose.run_sharded", "scratch");
      from_scratch(session.pam(), false);
      tracer_->close(scratch);
      replay_apply(span, before, session.pam(), written);
    }

    tracer_->begin_op();
    t = Clock::now();
    span = tracer_->open("incremental.enumerate", "read");
    const core::Result read = session.enumerate();
    tracer_->close(span, read.intermediate_states);
    record_->add("read_ms", seconds_since(t) * 1e3);
    check(read, refs[i], "read");
  }
  record_->add("incremental.evictions",
               static_cast<double>(session.lifetime_cache_stats().evictions));
}

void SessionPart::replay_apply(std::int64_t apply_span,
                               const gentrius::pam::Pam& before,
                               const gentrius::pam::Pam& after,
                               const core::Result& result) {
  const auto replay = [&](const char* name, std::string tag, auto&& call) {
    const auto id = tracer_->open_replayed(name, std::move(tag), apply_span);
    call();
    tracer_->close(id);
  };
  // The calls apply() makes: component analysis of the matrix before and
  // after the edit and once more when it enumerates, one canonical
  // fingerprint per enumerable component, and for each component it could
  // not serve from cache a one-tree representative probe plus the full
  // shard run.
  const std::size_t min_taxa = options_.min_taxa;
  replay("decompose.analyze_pam", "before", [&] {
    decompose::analyze_pam(ds_.species_tree, before, min_taxa);
  });
  decompose::PamDecomposition dec;
  replay("decompose.analyze_pam", "after", [&] {
    dec = decompose::analyze_pam(ds_.species_tree, after, min_taxa);
  });
  replay("decompose.analyze_pam", "enumerate", [&] {
    decompose::analyze_pam(ds_.species_tree, after, min_taxa);
  });

  gentrius::phylo::TaxonSet labels;
  for (std::size_t t = 0; t < after.taxon_count(); ++t)
    labels.add("x" + std::to_string(t));
  std::size_t shard = 0;
  for (const auto& comp : dec.split.components) {
    if (!comp.enumerable) continue;
    const auto sub = subset(dec.constraints, comp);
    replay("gentrius.canonicalize_instance", {},
           [&] { core::canonicalize_instance(sub); });
    const bool reused = shard < result.shards.size() &&
                        result.shards[shard].reused;
    ++shard;
    if (reused) continue;
    core::Options probe = engine_options();
    probe.collect_trees = true;
    probe.collect_limit = 1;
    probe.stop.max_stand_trees = 1;
    probe.tree_names = &labels;
    replay("gentrius.run_serial", "probe",
           [&] { core::run_serial(sub, probe); });
    replay("gentrius.run_serial", "shard",
           [&] { core::run_serial(sub, engine_options()); });
  }

  // Public calls apply() does not make, measured on the same post-edit
  // matrix under their own operation: shard planning as run_sharded does
  // it, and the matrix fingerprint.
  tracer_->begin_op();
  const auto root = tracer_->open("perfbench.replay");
  tracer_->close(root);
  const auto plan = tracer_->open_replayed("decompose.plan_shards", {}, root);
  decompose::plan_shards(dec.constraints);
  tracer_->close(plan);
  const auto fp = tracer_->open_replayed("pam.fingerprint", {}, root);
  gentrius::pam::fingerprint(after);
  tracer_->close(fp);
}

}  // namespace perfbench
