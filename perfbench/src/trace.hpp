#pragma once

/// \file trace.hpp
/// In-memory span recorder for the traced benchmark run.
///
/// Spans are recorded from the benchmark's own code around calls into each
/// layer's public functions (the library itself is not instrumented). A span
/// name is "<layer>.<what>"; the layer is the part before the first dot and
/// matches a module under src/ (nn, hls, shard, ...) or "bench" for the
/// harness itself. Spans nest through a stack, so the benchmark must open and
/// close them on one thread. Everything stays in memory until the run ends
/// and is then written as Chrome trace-event JSON (opens in Perfetto or
/// chrome://tracing).

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    int name = 0;     ///< interned name id
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Per-name aggregate: call count, inclusive time, and self time (the
  /// span's duration minus the part its child spans cover).
  struct Row {
    std::string name;
    std::int64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, int name) : tracer_(tracer), index_(tracer.open(name)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  /// A disabled tracer records nothing: open() and close() cost a branch,
  /// so the same code runs traced and untraced for the overhead figure.
  explicit Tracer(bool enabled = true);

  /// Id of \p name, registering it on first use. Intern names before a hot
  /// loop so that opening a span costs two clock reads and a push.
  int intern(const std::string& name);
  const std::string& name_of(int id) const { return names_[static_cast<std::size_t>(id)]; }

  /// Starts a span and returns its record index (kNoSpan when disabled).
  std::size_t open(int name);
  void close(std::size_t index);
  static constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

  /// Adds a finished span directly (tests build span trees with it).
  void add(int name, int parent, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Record>& records() const { return records_; }

  /// Duration of record \p index in seconds.
  double seconds(std::size_t index) const {
    return static_cast<double>(records_[index].end_ns - records_[index].start_ns) * 1e-9;
  }

  /// Self time of each recorded span, in record order.
  std::vector<double> self_seconds() const;

  /// Aggregates by span name, sorted by name.
  std::vector<Row> by_name() const;

  /// Self time summed per layer (name prefix before the first dot).
  std::map<std::string, double> self_by_layer() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  std::string chrome_json() const;

  /// Nanoseconds on the steady clock since this tracer was created.
  std::int64_t now_ns() const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;
};

/// The layer a span name belongs to: the text before its first dot.
std::string layer_of(const std::string& span_name);

}  // namespace perfbench
