#pragma once
/// \file probe.hpp
/// \brief What the benchmark measures from outside the library: process
///        clocks and memory, sample statistics, and the in-memory span log
///        of the traced run.
///
/// Spans are recorded only here, around the benchmark's own calls into
/// the library (set-up, session calls and their completions, run slices,
/// checkpoint passes, crash/restart, membership changes).  Nothing inside
/// src/ is timed.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace repobench {

// ---------------------------------------------------------------------
// Clocks and memory
// ---------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s();

/// Peak resident set of the process so far, in MB.
double peak_rss_mb();

/// Heap bytes currently allocated (in use, not merely retained by the
/// allocator) — the set-up memory probe, independent of earlier reps.
double heap_in_use_bytes();

// ---------------------------------------------------------------------
// Sample statistics
// ---------------------------------------------------------------------

/// Order statistic at quantile q (nearest rank, ceil(q*n)-1) of a sorted
/// sample.  Callers check the sample is large enough first.
template <typename T>
T quantile_sorted(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return T{};
  const double pos = q * static_cast<double>(sorted.size());
  std::size_t idx = static_cast<std::size_t>(pos);
  if (static_cast<double>(idx) < pos) ++idx;
  if (idx > 0) --idx;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Median of a copy (mean of the middle pair for even sizes).
double median(std::vector<double> v);

// ---------------------------------------------------------------------
// Span log
// ---------------------------------------------------------------------

/// One timed call at a layer boundary.  `name` is a string literal whose
/// prefix up to the first '.' names the layer; `op` ties the issue span
/// of a client operation to its completion span (0 for other spans).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;
};

/// Spans of one thread of execution (the driving thread, or one fleet
/// segment's epoch task).  A null SpanLog* means tracing is off; the
/// Scope below then costs one branch.
class SpanLog {
 public:
  explicit SpanLog(std::uint32_t tid) : tid_(tid) {}

  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::uint64_t op = 0) {
    spans_.push_back({name, start_ns, end_ns, op});
  }

  [[nodiscard]] std::uint32_t tid() const { return tid_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t tid_;
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) into `log` when tracing.
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::uint64_t op = 0)
      : log_(log), name_(name), op_(op), start_(log ? now_ns() : 0) {}
  ~Scope() {
    if (log_ != nullptr) log_->add(name_, start_, now_ns(), op_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t op_;
  std::int64_t start_;
};

/// Per-name totals after nesting: `self_ns` is each span's duration minus
/// the part of it covered by same-thread child spans.
struct SpanTotals {
  std::string name;
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::vector<double> durations_ns;  ///< Sorted.
};

/// Aggregate the logs by span name (sorted by name).
std::vector<SpanTotals> aggregate(const std::vector<const SpanLog*>& logs);

/// Write the logs as a Chrome trace-event file (the format obs::Tracer
/// exports), one row per log.  Returns false if the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanLog*>& logs);

}  // namespace repobench
