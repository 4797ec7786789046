// Shared pieces of the end-to-end benchmark driver: workload sizes, seed
// derivation, latency sample sets, the result report, and the output checks
// that the benchmark computes from its own copy of the inputs (independent
// of the program under test).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/density_estimator.h"
#include "core/ring_service.h"
#include "sim/transport.h"
#include "data/distribution.h"
#include "ring/chord_ring.h"
#include "sim/network.h"
#include "stats/piecewise_cdf.h"

namespace perfbench {

// --- Workload make-up (README "Inputs") -----------------------------------

/// Peers of the in-process ring (local-estimate, live-churn).
inline constexpr size_t kRingPeers = 16384;
/// Peers of the forked ringdde_node (wire-serve).
inline constexpr size_t kNodePeers = 1024;
/// Stored keys in every workload.
inline constexpr size_t kKeys = size_t{1} << 20;
/// Zipf-like key skew: ZipfDistribution(kZipfValues, kZipfTheta).
inline constexpr size_t kZipfValues = 1000;
inline constexpr double kZipfTheta = 1.0;
/// Seed of every deployment (peer ids, stored keys). It is fixed so that
/// accuracy, cost and memory compare like with like across runs; --seed
/// draws everything else (queriers, query seeds, the RPC stream, churn
/// choices and inserted keys).
inline constexpr uint64_t kDeploySeed = 0x52494E47;
/// Estimator settings: m probes, refinement rounds, knots per summary.
inline constexpr size_t kProbes = 256;
inline constexpr int kRounds = 2;
inline constexpr int kQuantiles = 8;
/// kSketchEstimate grid resolution.
inline constexpr uint32_t kSketchLevels = 64;
/// DKW confidence: the share of estimates whose KS exceeds
/// sqrt(ln(2/delta) / (2 m')) must stay within delta plus binomial slack.
inline constexpr double kDkwDelta = 0.05;
/// Stated bound on the estimated item count N̂: |N̂ / N - 1| <= kTotalRelBound
/// for all but kTotalFarShare of the estimates, and <= kTotalRelHard for
/// every one. (The error has a heavy tail on skewed keys: p50 ~1.3%,
/// p99.9 ~16%, max ~36% over 260k estimates on local-estimate.)
inline constexpr double kTotalRelBound = 0.1;
inline constexpr double kTotalFarShare = 0.02;
inline constexpr double kTotalRelHard = 1.0;

/// live-churn's open-loop schedule: one batch every kBatchIntervalS
/// seconds, each joining and gracefully removing kChurnPerBatch peers,
/// inserting kInsertsPerBatch keys and re-stabilizing the next
/// kStabilizePerBatch peers of a rank sweep (periodic maintenance: a full
/// pass over 16k peers every ~10 s, so stale fingers do not pile up over
/// the run), then publishing an epoch. The traced run's churn phase applies
/// the same batches.
inline constexpr double kBatchIntervalS = 0.01;
inline constexpr int kChurnPerBatch = 1;
inline constexpr int kInsertsPerBatch = 32;
inline constexpr int kStabilizePerBatch = 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Path of the ringdde_node binary (wire-serve, traced run unused).
  std::string node_bin;
};

// --- Time and seeds --------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// steady_clock reading taken during static initialisation, i.e. as close
/// to the process's start as the driver can observe.
Clock::time_point ProcessStart();

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}

/// SplitMix64-style mixer for deriving independent seeds from the run seed.
uint64_t Mix(uint64_t a, uint64_t b);

/// Benchmark-side random stream (a SplitMix64 sequence), kept
/// apart from the program's own Rng so inputs do not depend on its code.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

// --- Samples and report ----------------------------------------------------

class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  /// Reserving up front keeps sample storage from reallocating mid-run,
  /// which would make the peak resident set jump by whole buffer copies.
  void Reserve(size_t n) { values_.reserve(n); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Mean() const;
  double Median() const { return Quantile(0.5); }
  /// p99 — the estimate tail the report names. Callers size their runs so
  /// at least 10 samples lie beyond it; TailOk() says whether they did.
  double P99() const { return Quantile(0.99); }
  bool TailOk() const { return values_.size() >= 1000; }
  double Quantile(double p) const;
  double Max() const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Human-readable line printed before the JSON result.
  void Detail(const std::string& line) { details_.push_back(line); }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> details_;
};

/// printf into a std::string.
std::string Fmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// --- Output checks ---------------------------------------------------------

/// Collects check failures (thread-safe); the first few go to stderr.
class CheckLog {
 public:
  void Fail(const std::string& what);
  bool ok() const;

 private:
  mutable std::mutex mu_;
  uint64_t failures_ = 0;
};

/// F̂ is non-decreasing with values in [0,1] on its knots, spans [0,1]
/// and F̂(1) = 1. Returns "" when valid, else the reason.
std::string CheckCdfShape(const ringdde::PiecewiseLinearCdf& cdf);

/// Exact Kolmogorov–Smirnov distance between the estimate and the ECDF of
/// the union of two sorted key arrays (`extra` may be empty). Evaluates F̂
/// at every key with the benchmark's own linear interpolation over the
/// knots.
double ExactKs(const ringdde::PiecewiseLinearCdf& cdf,
               const std::vector<double>& sorted,
               const std::vector<double>& extra);

/// sqrt(ln(2/delta) / (2 m)).
double DkwThreshold(size_t m, double delta);

/// Largest number of exceedances of a per-estimate probability-`delta`
/// event among `n` estimates that is still consistent with `delta`: the
/// binomial mean plus five standard deviations, plus one.
uint64_t AllowedExceedances(uint64_t n, double delta);

/// KS accounting for the sampled estimates of one run: mean KS and the
/// DKW exceedance check.
struct KsTally {
  Samples ks;
  uint64_t exceed = 0;
  void Add(double ks_value, size_t m_succeeded);
  /// Empty when the exceedances are consistent with delta, else why not.
  std::string Violation() const;
};

/// N̂ accounting: the hard bound on every estimate and the share beyond
/// kTotalRelBound, checked at the end.
class TotalTally {
 public:
  void Add(double estimated, double known);
  void Append(const TotalTally& other);
  /// Empty when the bounds hold, else what broke them.
  std::string Violation() const;
  std::string Describe() const;

 private:
  Samples rel_;
  uint64_t far_ = 0;
};

/// The accuracy checks of one query pool (see QueryPool): DKW exceedances
/// and N̂ bounds over the pool's estimates. Empty when both hold.
std::string PoolAccuracyViolation(const KsTally& ks, const TotalTally& totals);

/// 64-bit digest of a byte string, for checking that a repeated query got
/// the same reply bits in every round without keeping every reply.
uint64_t HashBytes(const std::vector<uint8_t>& bytes);

/// Successor of `target` among sorted alive ids: the first id >= target,
/// wrapping to the smallest.
size_t SuccessorRank(const std::vector<uint64_t>& sorted_ids, uint64_t target);

/// Number of keys whose ring position lies in the arc (lo, hi], over the
/// sorted ring positions of all keys; lo == hi is the whole ring.
uint64_t CountKeysInArc(const std::vector<uint64_t>& sorted_key_ids,
                        uint64_t lo, uint64_t hi);

// --- Process measurements ---------------------------------------------------

/// This process's peak resident set (getrusage), in MB.
double SelfPeakRssMb();
/// High-water resident set of another process (VmHWM), in MB; -1 if
/// unreadable.
double ProcessPeakRssMb(pid_t pid);

/// Process-wide operator new counter, counting only while enabled.
void SetAllocCounting(bool on);
uint64_t AllocCount();

/// Worker threads for closed-loop clients: min(cap, hardware threads).
unsigned WorkerThreads(unsigned cap);

// --- In-process deployment ---------------------------------------------------

class Tracer;

/// A quiescent ring of `peers` peers holding kKeys Zipf-like keys, built
/// from kDeploySeed: CreateNetwork (which stabilizes), then one bulk load.
struct InProcessRing {
  std::unique_ptr<ringdde::Network> net;
  std::unique_ptr<ringdde::ChordRing> ring;
  std::vector<double> keys;  ///< the stored keys, in generation order
};
/// With a tracer, the set-up steps are recorded as spans.
InProcessRing BuildRing(size_t peers, Tracer* tracer);

std::unique_ptr<ringdde::Distribution> KeyDistribution();

/// The mutator's side of one live-churn batch (everything but the
/// publish), drawing its choices and keys from its own seeds.
class ChurnBatcher {
 public:
  ChurnBatcher(ringdde::ChordRing* ring, uint64_t pick_seed,
               uint64_t key_seed);
  /// Applies one batch, appending the inserted keys to `inserted`; returns
  /// the number of failed operations. With a tracer, each ring call is a
  /// span tagged `query`.
  uint64_t Apply(CheckLog& log, std::vector<double>* inserted,
                 Tracer* tracer, uint64_t query);

 private:
  ringdde::ChordRing* ring_;
  SeedStream picks_;
  std::unique_ptr<ringdde::Distribution> dist_;
  ringdde::Rng key_rng_;
  size_t sweep_ = 0;
};

/// Estimator options of every workload, with the given query seed.
ringdde::DdeOptions EstimatorOptions(uint64_t query_seed);

/// Alive peers as (id, addr), ascending by id — the benchmark's own view
/// of ring membership for successor checks.
struct Membership {
  std::vector<uint64_t> ids;
  std::vector<ringdde::NodeAddr> addrs;
  ringdde::NodeAddr OwnerOf(uint64_t target) const {
    return addrs[SuccessorRank(ids, target)];
  }
};
Membership MembershipOf(const ringdde::ChordRing& ring);

/// The estimate queries of local-estimate and wire-serve: a fixed pool of
/// (querier, query seed) pairs drawn from kDeploySeed, visited in whole
/// rounds in an order drawn from --seed. The estimator is deterministic on
/// a quiescent deployment, so every round repeats the same estimates and
/// their accuracy checks (DKW share, N̂ bounds) give the same verdict in
/// every round of every run, whatever the seed or the run's length.
struct QueryPool {
  std::vector<ringdde::NodeAddr> queriers;
  std::vector<uint64_t> seeds;
  std::vector<uint32_t> order;  ///< visit order within a round
  size_t size() const { return order.size(); }
  /// Pool entry of the slot-th query of the run.
  size_t EntryOf(uint64_t slot) const { return order[slot % order.size()]; }
};
QueryPool MakeQueryPool(const Membership& members, size_t size,
                        uint64_t pool_seed, uint64_t run_seed);

/// Hands out the query slots of a run in whole rounds of `per_round`
/// slots: once the deadline has passed no new round begins, and every
/// slot of a round already begun is still handed out.
class RoundDispenser {
 public:
  RoundDispenser(uint64_t per_round, Clock::time_point deadline)
      : per_round_(per_round), deadline_(deadline) {}
  /// Next slot, or false when the run is over.
  bool Take(uint64_t* slot);
  /// Rounds handed out (complete once every taker has finished).
  uint64_t rounds() const;

 private:
  const uint64_t per_round_;
  const Clock::time_point deadline_;
  mutable std::mutex mu_;
  uint64_t next_ = 0;
  bool closed_ = false;
};

/// Ring positions of keys, ascending (for per-arc key counts).
std::vector<uint64_t> SortedKeyIds(const std::vector<double>& keys);

/// Encoded kEstimate reply payload, for byte sizes and bit-identity.
std::vector<uint8_t> EncodeReply(const ringdde::DensityEstimate& estimate);

/// The wire-serve node's deployment (kNodePeers peers, estimator settings
/// as in EstimatorOptions) and its kInsert dataset, both from kDeploySeed.
ringdde::DeploymentSpec NodeSpec();
ringdde::InsertSpec NodeInsert();

/// Request frames, encoded as RingClient encodes them.
ringdde::Frame QueryFrame(ringdde::RpcType type, ringdde::NodeAddr querier,
                          uint64_t seed);  // kEstimate / kSketchEstimate
ringdde::Frame ProbeFrame(ringdde::NodeAddr querier, uint64_t target,
                          uint64_t ctx_seed);

// --- Workloads ----------------------------------------------------------------

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Report report;
};

Outcome RunLocalEstimate(const Args& args);
Outcome RunWireServe(const Args& args);
Outcome RunLiveChurn(const Args& args);
Outcome RunTraced(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
