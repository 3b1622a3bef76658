// Span recorder for the traced run. Spans are taken in the benchmark's own
// files around calls into each layer's public functions; nothing inside
// the program is instrumented. Spans nest on one thread (the replay
// thread), are kept in memory and written out when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< "<layer>.<operation>", static storage
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    double work = 0.0;  ///< optional per-span amount (samples, trips, ...)
  };

  /// RAII span; a disabled tracer (null) records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, double work = 0.0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Sets the span's work amount after the call returns.
    void set_work(double work);
    /// Renames the span after the call returns (e.g. an append that synced).
    void rename(const char* name);

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double work = 0.0;
    std::vector<double> durations_s;
  };
  /// Per span name: count, total and self time (duration minus the part
  /// its children cover), work, and every duration.
  std::map<std::string, Totals> by_name() const;
  /// Self time per layer (the name up to the first '.').
  std::map<std::string, double> self_by_layer() const;

  /// Writes every span as JSON lines: name, start, end, parent (ns).
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

}  // namespace perfbench
