// What one perfbench run measures: raw timing samples, exact counts, the
// correctness tally and (traced runs only) in-memory spans. perfbench
// writes it as JSON at exit; perfbench/metrics.py turns it into metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "gentrius/options.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One traced call into the library. `parent` indexes the span that caused
/// it (-1 for an operation root); spans of one user operation share `op`.
/// A replayed span did not run inside its parent: the benchmark called the
/// same public function on the same input afterwards, because the parent's
/// own internal call cannot be observed from outside the library.
struct Span {
  std::string name;
  std::string tag;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
  bool replayed = false;
  std::uint64_t work = 0;  ///< states, insertions, ... the call performed
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  /// Starts a new user operation; subsequent root spans belong to it.
  void begin_op() { ++op_; }

  /// Opens a span under the innermost open one. Returns its id, or -1 when
  /// tracing is off.
  std::int64_t open(const char* name, std::string tag = {}) {
    return push(name, std::move(tag),
                stack_.empty() ? -1 : stack_.back(), false);
  }

  /// Opens a replayed span as a child of `parent` (see Span).
  std::int64_t open_replayed(const char* name, std::string tag,
                             std::int64_t parent) {
    return push(name, std::move(tag), parent, true);
  }

  void close(std::int64_t id, std::uint64_t work = 0) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    spans_[static_cast<std::size_t>(id)].work = work;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::int64_t push(const char* name, std::string tag, std::int64_t parent,
                    bool replayed) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.tag = std::move(tag);
    s.parent = parent;
    s.op = op_;
    s.replayed = replayed;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    const auto id = static_cast<std::int64_t>(spans_.size() - 1);
    stack_.push_back(id);
    return id;
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

struct Record {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few mismatch descriptions

  void add(const std::string& name, double v) { samples[name].push_back(v); }

  /// Tallies one checked operation; a mismatch is described and counted.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

/// Engine options every workload runs with: the paper's defaults with the
/// stopping rules lifted, so each run completes and its counts are the
/// schedule-invariant reference values.
inline gentrius::core::Options engine_options() {
  gentrius::core::Options o;
  o.stop.max_stand_trees = ~std::uint64_t{0};
  o.stop.max_states = ~std::uint64_t{0};
  o.stop.max_seconds = 1e9;
  return o;
}

}  // namespace perfbench
