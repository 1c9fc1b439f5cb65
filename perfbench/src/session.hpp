// The session half of a workload: an IncrementalSession absorbing seeded
// PAM edit streams, each write (apply) followed by one read (enumerate),
// every result checked against a from-scratch decompose::run_sharded.
#pragma once

#include <cstdint>
#include <vector>

#include "datagen/dataset.hpp"
#include "engine.hpp"
#include "incremental/session.hpp"
#include "record.hpp"

namespace perfbench {

/// The band, in intermediate states, of the largest shard a kept edit
/// stream makes the session re-enumerate (see SessionPart::stream).
inline constexpr std::uint64_t kMinHeavyStates = 20'000;
inline constexpr std::uint64_t kShardStateCap = 100'000;

/// Edits per stream; each stream starts from a fresh session.
inline constexpr std::size_t kEditsPerStream = 4;

class SessionPart {
 public:
  /// The matrix: benchutil::make_multi_component with 3 components of
  /// 16-18 taxa, 6 loci each, 60 % missing, seed 5.
  SessionPart(std::uint64_t seed, Tracer& tracer, Record& record);

  /// Where the next streams record to.
  void bind(Tracer& tracer, Record& record) {
    tracer_ = &tracer;
    record_ = &record;
  }

  /// The matrix's enumerable components as stand-alone engine instances
  /// (the from-scratch engine work the session's cache stands in for).
  std::vector<EngineInstance> component_instances() const;

  /// The k-th kept edit stream of this seed, with a from-scratch reference
  /// result per edit. Computed on first use, then kept.
  struct Stream {
    std::vector<gentrius::incremental::PamDelta> edits;
    std::vector<gentrius::core::Result> refs;
  };
  const Stream& stream(std::size_t k);

  /// Plays the k-th stream into a fresh session: construction plus the
  /// cold first enumerate() is one setup sample; each apply and each
  /// following read is one latency sample, checked against the stream's
  /// reference. Edit i of stream k is recorded as edit_id
  /// k * kEditsPerStream + i.
  void stream_rep(std::size_t k);

 private:
  /// analyze_pam + run_sharded of `pam`: the session's own configuration,
  /// or (reference) the faster pool-backed run the checks compare against.
  gentrius::core::Result from_scratch(const gentrius::pam::Pam& pam,
                                      bool reference);
  static bool within_cap(const gentrius::core::Result& ref);
  void check(const gentrius::core::Result& got,
             const gentrius::core::Result& ref, const char* what);
  void replay_apply(std::int64_t apply_span, const gentrius::pam::Pam& before,
                    const gentrius::pam::Pam& after,
                    const gentrius::core::Result& result);

  std::uint64_t seed_;
  std::uint64_t candidates_ = 0;  ///< streams generated, kept or not
  std::vector<Stream> streams_;   ///< streams_[k]: the k-th kept stream
  gentrius::datagen::Dataset ds_;
  gentrius::incremental::SessionOptions options_;
  gentrius::core::Result initial_reference_;
  Tracer* tracer_;
  Record* record_;
};

}  // namespace perfbench
