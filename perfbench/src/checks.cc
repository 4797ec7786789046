#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

std::atomic<bool> g_count_allocs{false};
std::atomic<uint64_t> g_allocs{0};

}  // namespace

Clock::time_point ProcessStart() { return g_process_start; }

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a ^ (b * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t SeedStream::Next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  return Mix(state_, 0);
}

// --- Samples / Report --------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::Quantile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  // Nearest-rank on the sorted samples.
  const size_t rank = std::min(
      v.size() - 1,
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size()))) -
          (p > 0.0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

double Samples::Max() const {
  return values_.empty() ? 0.0
                         : *std::max_element(values_.begin(), values_.end());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const std::string& d : details_) std::printf("%s\n", d.c_str());
  for (const Entry& e : metrics_) {
    std::printf("  %-30s %16.6f %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  std::string json = Fmt("{\"correct\": %s, \"attempted\": %llu, "
                         "\"failed\": %llu, \"metrics\": {",
                         correct ? "true" : "false",
                         static_cast<unsigned long long>(attempted),
                         static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    const double v = std::isfinite(e.value) ? e.value : -1.0;
    json += Fmt("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", e.name.c_str(), v, e.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string Fmt(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[1024];
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n < static_cast<int>(sizeof(buf))) return std::string(buf);
  std::string out(static_cast<size_t>(n) + 1, '\0');
  va_start(ap, fmt);
  std::vsnprintf(out.data(), out.size(), fmt, ap);
  va_end(ap);
  out.resize(static_cast<size_t>(n));
  return out;
}

// --- Checks -------------------------------------------------------------------

void CheckLog::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failures_ < 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  ++failures_;
}

bool CheckLog::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_ == 0;
}

std::string CheckCdfShape(const ringdde::PiecewiseLinearCdf& cdf) {
  const auto& k = cdf.knots();
  if (k.size() < 2) return "fewer than two knots";
  if (k.front().x < 0.0 || k.back().x > 1.0) return "knots leave [0,1]";
  for (size_t i = 0; i < k.size(); ++i) {
    if (!(k[i].f >= 0.0 && k[i].f <= 1.0)) return "value outside [0,1]";
    if (i > 0 && (k[i].x < k[i - 1].x || k[i].f < k[i - 1].f)) {
      return Fmt("not monotone at knot %zu", i);
    }
  }
  if (std::abs(k.back().f - 1.0) > 1e-12) return "F(1) != 1";
  if (std::abs(cdf.Evaluate(1.0) - 1.0) > 1e-12) return "Evaluate(1) != 1";
  return "";
}

namespace {

/// Monotone evaluator of the knot polyline, written here rather than
/// borrowed from PiecewiseLinearCdf so the KS check does not share code
/// with what it checks. Below the first knot F̂ is 0, from the last on 1.
class PolylineCursor {
 public:
  explicit PolylineCursor(const std::vector<ringdde::PiecewiseLinearCdf::Knot>&
                              knots)
      : k_(knots) {}
  double At(double x) {
    if (x < k_.front().x) return 0.0;
    if (x >= k_.back().x) return k_.back().f;
    while (seg_ + 1 < k_.size() && k_[seg_ + 1].x <= x) ++seg_;
    const auto& a = k_[seg_];
    const auto& b = k_[seg_ + 1];
    if (b.x <= a.x) return b.f;
    return a.f + (b.f - a.f) * (x - a.x) / (b.x - a.x);
  }

 private:
  const std::vector<ringdde::PiecewiseLinearCdf::Knot>& k_;
  size_t seg_ = 0;
};

}  // namespace

double ExactKs(const ringdde::PiecewiseLinearCdf& cdf,
               const std::vector<double>& sorted,
               const std::vector<double>& extra) {
  const size_t n = sorted.size() + extra.size();
  if (n == 0) return 0.0;
  const double inv_n = 1.0 / static_cast<double>(n);
  PolylineCursor cursor(cdf.knots());
  size_t i = 0, j = 0, below = 0;
  double worst = 0.0;
  while (i < sorted.size() || j < extra.size()) {
    // Next distinct key value across both arrays and its multiplicity.
    double v;
    if (j >= extra.size() || (i < sorted.size() && sorted[i] <= extra[j])) {
      v = sorted[i];
    } else {
      v = extra[j];
    }
    size_t at = 0;
    while (i < sorted.size() && sorted[i] == v) ++i, ++at;
    while (j < extra.size() && extra[j] == v) ++j, ++at;
    const double f = cursor.At(v);
    // The ECDF jumps from below/n to (below+at)/n at v; F̂ is continuous.
    worst = std::max(worst, std::abs(f - static_cast<double>(below) * inv_n));
    below += at;
    worst = std::max(worst, std::abs(f - static_cast<double>(below) * inv_n));
  }
  return worst;
}

double DkwThreshold(size_t m, double delta) {
  if (m == 0) return 1.0;
  return std::sqrt(std::log(2.0 / delta) / (2.0 * static_cast<double>(m)));
}

uint64_t AllowedExceedances(uint64_t n, double delta) {
  const double mean = static_cast<double>(n) * delta;
  const double sd = std::sqrt(mean * (1.0 - delta));
  return static_cast<uint64_t>(std::floor(mean + 5.0 * sd)) + 1;
}

void KsTally::Add(double ks_value, size_t m_succeeded) {
  ks.Add(ks_value);
  if (ks_value > DkwThreshold(m_succeeded, kDkwDelta)) ++exceed;
}

std::string KsTally::Violation() const {
  if (ks.size() == 0) return "no estimate was KS-checked";
  const uint64_t allowed = AllowedExceedances(ks.size(), kDkwDelta);
  if (exceed <= allowed) return "";
  return Fmt("%llu of %zu estimates exceed the DKW bound (allowed %llu at "
             "delta=%.2f)",
             static_cast<unsigned long long>(exceed), ks.size(),
             static_cast<unsigned long long>(allowed), kDkwDelta);
}

void TotalTally::Add(double estimated, double known) {
  const double rel = std::abs(estimated / known - 1.0);
  rel_.Add(std::isfinite(rel) ? rel : 1e300);
  if (!(rel <= kTotalRelBound)) ++far_;
}

void TotalTally::Append(const TotalTally& other) {
  rel_.Append(other.rel_);
  far_ += other.far_;
}

std::string TotalTally::Violation() const {
  if (rel_.size() == 0) return "no estimate to check";
  if (rel_.Max() > kTotalRelHard) {
    return Fmt("an N-hat is off the known N by %.3f (hard bound %.2f)",
               rel_.Max(), kTotalRelHard);
  }
  if (static_cast<double>(far_) >
      kTotalFarShare * static_cast<double>(rel_.size())) {
    return Fmt("%llu of %zu estimates have |N-hat/N - 1| > %.2f (allowed "
               "share %.2f)",
               static_cast<unsigned long long>(far_), rel_.size(),
               kTotalRelBound, kTotalFarShare);
  }
  return "";
}

std::string TotalTally::Describe() const {
  return Fmt("|N-hat/N - 1| over %zu estimates: p50 %.4f, p99.9 %.4f, "
             "max %.4f; %.4f%% beyond %.2f",
             rel_.size(), rel_.Median(), rel_.Quantile(0.999), rel_.Max(),
             100.0 * static_cast<double>(far_) /
                 static_cast<double>(std::max<size_t>(1, rel_.size())),
             kTotalRelBound);
}

std::string PoolAccuracyViolation(const KsTally& ks,
                                  const TotalTally& totals) {
  std::string out = ks.Violation();
  const std::string n_hat = totals.Violation();
  if (!n_hat.empty()) out += (out.empty() ? "" : "; ") + n_hat;
  return out;
}

uint64_t HashBytes(const std::vector<uint8_t>& bytes) {
  // One multiply per 8-byte word keeps this to a few µs per reply.
  uint64_t h = 0xCBF29CE484222325ULL ^ bytes.size();
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t w;
    std::memcpy(&w, bytes.data() + i, 8);
    h = (h ^ w) * 0x100000001B3ULL;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  return Mix(h, tail);
}

QueryPool MakeQueryPool(const Membership& members, size_t size,
                        uint64_t pool_seed, uint64_t run_seed) {
  QueryPool pool;
  SeedStream s(pool_seed);
  for (size_t i = 0; i < size; ++i) {
    pool.queriers.push_back(members.addrs[s.Below(members.addrs.size())]);
    pool.seeds.push_back(s.Next());
    pool.order.push_back(static_cast<uint32_t>(i));
  }
  SeedStream shuffle(run_seed);
  for (size_t i = size; i > 1; --i) {
    std::swap(pool.order[i - 1], pool.order[shuffle.Below(i)]);
  }
  return pool;
}

bool RoundDispenser::Take(uint64_t* slot) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return false;
  if (next_ % per_round_ == 0 && Clock::now() >= deadline_) {
    closed_ = true;
    return false;
  }
  *slot = next_++;
  return true;
}

uint64_t RoundDispenser::rounds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return (next_ + per_round_ - 1) / per_round_;
}

size_t SuccessorRank(const std::vector<uint64_t>& sorted_ids,
                     uint64_t target) {
  const auto it =
      std::lower_bound(sorted_ids.begin(), sorted_ids.end(), target);
  return it == sorted_ids.end() ? 0
                                : static_cast<size_t>(it - sorted_ids.begin());
}

uint64_t CountKeysInArc(const std::vector<uint64_t>& ids, uint64_t lo,
                        uint64_t hi) {
  // Keys with lo < id <= hi, wrapping past 2^64 when hi <= lo.
  const auto upto = [&](uint64_t x) {  // # ids <= x
    return static_cast<uint64_t>(
        std::upper_bound(ids.begin(), ids.end(), x) - ids.begin());
  };
  if (lo < hi) return upto(hi) - upto(lo);
  return static_cast<uint64_t>(ids.size()) - upto(lo) + upto(hi);
}

// --- Process measurements -------------------------------------------------------

double SelfPeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double ProcessPeakRssMb(pid_t pid) {
  std::ifstream in(Fmt("/proc/%d/status", static_cast<int>(pid)));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return -1.0;
}

void SetAllocCounting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}
uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

unsigned WorkerThreads(unsigned cap) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max(1u, std::min(cap, hw));
}

}  // namespace perfbench

// Allocation hook for rpc.allocs_per_rpc: a relaxed flag load on every
// allocation, and a shared counter bump only while the traced RPC phase
// has counting switched on.
void* operator new(std::size_t size) {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
