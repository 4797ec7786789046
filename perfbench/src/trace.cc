#include "trace.h"

#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {

namespace {

int64_t NsSince(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

}  // namespace

Tracer::Tracer(size_t capacity) : origin_(Clock::now()), capacity_(capacity) {
  spans_.reserve(capacity);
  open_.reserve(64);
}

uint32_t Tracer::Begin(const char* name, uint64_t query) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  Span s;
  s.name = name;
  s.id = static_cast<uint32_t>(spans_.size() + 1);
  s.parent = open_.empty() ? 0 : open_.back();
  s.query = query;
  spans_.push_back(s);
  open_.push_back(s.id);
  spans_.back().start_ns = NsSince(origin_);  // last, to exclude bookkeeping
  return s.id;
}

void Tracer::End(uint32_t id) {
  const int64_t now = NsSince(origin_);
  if (id == 0) return;
  spans_[id - 1].end_ns = now;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

Samples Tracer::DurationsUs(const char* name) const {
  Samples out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.Add(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

std::vector<int64_t> Tracer::ChildTimeNs() const {
  std::vector<int64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child[s.parent - 1] += s.end_ns - s.start_ns;
  }
  return child;
}

std::vector<std::string> Tracer::SelfTimeTable() const {
  struct Agg {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  const std::vector<int64_t> child = ChildTimeNs();
  std::map<std::string, Agg> by_name;
  for (const Span& s : spans_) {
    Agg& a = by_name[s.name];
    ++a.count;
    a.total_ns += s.end_ns - s.start_ns;
    a.self_ns += s.end_ns - s.start_ns - child[s.id - 1];
  }
  std::vector<std::string> lines;
  lines.push_back(Fmt("%-28s %10s %14s %14s %12s", "span", "count",
                      "total_ms", "self_ms", "self_us/call"));
  for (const auto& [name, a] : by_name) {
    lines.push_back(Fmt("%-28s %10llu %14.3f %14.3f %12.3f", name.c_str(),
                        static_cast<unsigned long long>(a.count),
                        static_cast<double>(a.total_ns) / 1e6,
                        static_cast<double>(a.self_ns) / 1e6,
                        static_cast<double>(a.self_ns) / 1e3 /
                            static_cast<double>(a.count)));
  }
  return lines;
}

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,query,name,start_ns,end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%u,%u,%llu,%s,%lld,%lld\n", s.id, s.parent,
                 static_cast<unsigned long long>(s.query), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
