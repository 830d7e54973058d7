// In-memory span recorder for the traced run (--trace 1). Spans are opened
// only in the benchmark's own files, around calls into the library's public
// API, so the library runs the same code traced and untraced. Spans stay in
// memory until the run ends and are then written as Chrome trace_event
// JSON (chrome://tracing, Perfetto).

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

class Tracer {
 public:
  /// A disabled tracer records nothing; a span site then costs one branch.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Whether spans opened from now on are recorded. The traced run
  /// alternates traced and untraced operations, which is how it measures
  /// its own overhead (bench.trace_overhead_frac).
  void set_active(bool active) { active_ = enabled_ && active; }
  /// Starts a new operation: spans opened until the next call share its
  /// id. Half the operations are traced, picked by a hash of the id rather
  /// than by parity, so that a workload with an even number of operations
  /// per round still traces every kind of operation. Returns whether this
  /// one is traced.
  bool NextOp() {
    uint64_t mixed = ++op_ * 0x9E3779B97F4A7C15ULL;
    mixed ^= mixed >> 31;
    active_ = enabled_ && (mixed & 1) != 0;
    return active_;
  }

  /// RAII span; records nothing when the tracer is inactive.
  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span() { End(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Renames the span, also after it ended (e.g. once a query is known
    /// to have been a cache hit). \p name must be a string literal.
    void set_name(const char* name);
    /// Ends the span early (idempotent).
    void End();

   private:
    Tracer* tracer_;
    int index_ = -1;  ///< -1 when not recorded
    bool open_ = false;
  };

  /// Durations in microseconds of the spans named \p name.
  Samples Durations(const std::string& name) const;
  /// Self times in microseconds of the spans named \p name: each span's
  /// duration minus the time its child spans cover.
  Samples SelfTimes(const std::string& name) const;

  /// Writes every span as a Chrome trace_event complete ("X") event.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t child_ns = 0;  ///< time covered by child spans
    int parent = -1;
    uint64_t op = 0;
  };

  int64_t NowNs() const;
  int Begin(const char* name);
  void Finish(int index);

  bool enabled_;
  bool active_ = false;
  uint64_t op_ = 0;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> open_;  ///< indexes of the open spans, innermost last
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
