// In-memory span recorder for the traced run. The benchmark opens a span
// around each call it makes into a layer's public functions; nothing
// inside the program is instrumented. Spans are appended to a
// preallocated buffer on the tracing thread and written out when the run
// ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Span {
  const char* name = nullptr;
  int64_t start_ns = 0;  ///< since the tracer was created
  int64_t end_ns = 0;
  uint32_t id = 0;      ///< 1-based index into the span buffer
  uint32_t parent = 0;  ///< 0 = no parent
  uint64_t query = 0;   ///< spans of one request share this id
};

/// Single-threaded span recorder: spans nest by call order on the thread
/// that owns the tracer.
class Tracer {
 public:
  explicit Tracer(size_t capacity);

  /// Opens a span; returns its id (0 when the buffer is full).
  uint32_t Begin(const char* name, uint64_t query);
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  /// Durations (us) of every closed span with this name.
  Samples DurationsUs(const char* name) const;
  /// Per-name count, total and self time (duration minus the part its
  /// child spans cover), as printable lines.
  std::vector<std::string> SelfTimeTable() const;

  /// Writes one CSV line per span: id,parent,query,name,start_ns,end_ns.
  bool WriteCsv(const std::string& path) const;

 private:
  /// Sum of a span's children's durations, per span id (index id-1).
  std::vector<int64_t> ChildTimeNs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  size_t capacity_;
  uint64_t dropped_ = 0;
};

/// Times `fn` under a span when tracing, else not at all.
template <typename Fn>
auto Timed(Tracer* tr, const char* name, uint64_t query, Fn&& fn) {
  const uint32_t id = tr ? tr->Begin(name, query) : 0;
  auto result = fn();
  if (tr) tr->End(id);
  return result;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
