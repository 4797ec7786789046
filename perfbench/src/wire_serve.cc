// wire-serve: one forked ringdde_node (kNodePeers peers, kKeys keys loaded
// through kInsert) serving a few closed-loop client connections. The
// connections share whole rounds of slots; a slot is one kEstimate of the
// query pool followed by kProbe RPCs, with a kSketchEstimate every few
// slots. kProbe is the side operation.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "bench.h"
#include "common/codec.h"
#include "core/local_summary.h"
#include "core/ring_service.h"
#include "core/sketch_aggregation.h"
#include "core/wire.h"
#include "data/dataset.h"
#include "sim/socket_transport.h"

namespace perfbench {

using ringdde::DensityEstimate;
using ringdde::Frame;
using ringdde::NodeAddr;
using ringdde::RpcType;

namespace {

/// Estimate queries per round (the query pool). Slot k of a run is one
/// kEstimate of the pool followed by kProbesPerEstimate kProbe; every
/// kEstimatesPerSketch-th slot adds one kSketchEstimate.
constexpr size_t kPoolSize = 512;
constexpr int kProbesPerEstimate = 25;
constexpr int kEstimatesPerSketch = 4;
/// kSketchEstimate replies kept for the post-run checks.
constexpr uint64_t kSketchesChecked = 32;

/// A forked ringdde_node; stopped (SIGTERM, then SIGKILL) and reaped on
/// destruction.
class NodeProcess {
 public:
  NodeProcess() = default;
  ~NodeProcess() { Stop(); }
  NodeProcess(const NodeProcess&) = delete;
  NodeProcess& operator=(const NodeProcess&) = delete;

  /// Starts the node and waits for its LISTENING banner.
  std::string Start(const std::string& bin,
                    const std::vector<std::string>& flags) {
    int fds[2];
    if (::pipe(fds) != 0) return "pipe failed";
    std::vector<std::string> argv_s = {bin};
    argv_s.insert(argv_s.end(), flags.begin(), flags.end());
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) return "fork failed";
    if (pid_ == 0) {
      // The node must not outlive the driver, even if the driver is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(bin.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    std::string banner;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    while (banner.find('\n') == std::string::npos) {
      const int left_ms = static_cast<int>(
          std::max(0.0, SecondsBetween(Clock::now(), deadline)) * 1e3);
      if (left_ms == 0) return "node did not print its banner in time";
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, left_ms) <= 0) continue;
      char buf[256];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return "node exited before listening";
      banner.append(buf, static_cast<size_t>(n));
    }
    const size_t at = banner.find("port=");
    if (banner.rfind("RINGDDE_NODE LISTENING", 0) != 0 ||
        at == std::string::npos) {
      return "unexpected banner: " + banner;
    }
    port_ = static_cast<uint16_t>(std::strtoul(banner.c_str() + at + 5,
                                               nullptr, 10));
    return "";
  }

  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      const Clock::time_point deadline =
          Clock::now() + std::chrono::seconds(10);
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

struct Conn {
  Samples estimate_ms, probe_us, sketch_ms;
  /// (slot, digest of the kEstimate reply) of every decoded estimate.
  std::vector<std::pair<uint64_t, uint64_t>> digests;
  uint64_t failed = 0;
  double messages = 0, bytes = 0, wire_bytes = 0;
};

/// A kSketchEstimate reply kept for the post-run checks.
struct Kept {
  NodeAddr querier = 0;
  uint64_t seed = 0;
  std::vector<uint8_t> payload;
};

/// The keys kInsert makes the node generate, regenerated here.
std::vector<double> InsertedKeys(const ringdde::InsertSpec& ins) {
  auto dist = ringdde::MakeSpecDistribution(ins);
  ringdde::Rng rng(ins.data_seed);
  return ringdde::GenerateDataset(**dist, static_cast<size_t>(ins.count), rng)
      .keys;
}

}  // namespace

ringdde::DeploymentSpec NodeSpec() {
  ringdde::DeploymentSpec spec;
  spec.peers = kNodePeers;
  spec.ring_seed = Mix(kDeploySeed, 1);
  spec.net_seed = Mix(kDeploySeed, 3);
  spec.num_probes = kProbes;
  spec.refinement_rounds = kRounds;
  spec.local_quantiles = kQuantiles;
  spec.sketch_levels = kSketchLevels;
  return spec;
}

ringdde::InsertSpec NodeInsert() {
  ringdde::InsertSpec ins;
  ins.dist_kind = 2;  // zipf(values=a, theta=b), as KeyDistribution()
  ins.param_a = static_cast<double>(kZipfValues);
  ins.param_b = kZipfTheta;
  ins.count = kKeys;
  ins.data_seed = Mix(kDeploySeed, 2);
  return ins;
}

Frame QueryFrame(RpcType type, NodeAddr querier, uint64_t seed) {
  ringdde::Encoder enc;
  enc.PutVarint64(querier);
  enc.PutFixed64(seed);
  Frame f;
  f.type = static_cast<uint8_t>(type);
  f.payload = enc.Take();
  return f;
}

Frame ProbeFrame(NodeAddr querier, uint64_t target, uint64_t ctx_seed) {
  ringdde::Encoder enc;
  enc.PutVarint64(querier);
  enc.PutFixed64(target);
  enc.PutFixed64(ctx_seed);
  Frame f;
  f.type = static_cast<uint8_t>(RpcType::kProbe);
  f.payload = enc.Take();
  return f;
}

Outcome RunWireServe(const Args& args) {
  Outcome out;
  CheckLog log;
  const ringdde::DeploymentSpec spec = NodeSpec();
  const ringdde::InsertSpec ins = NodeInsert();

  NodeProcess node;
  const std::string started = node.Start(
      args.node_bin,
      {Fmt("--peers=%llu", static_cast<unsigned long long>(spec.peers)),
       Fmt("--ring-seed=%llu", static_cast<unsigned long long>(spec.ring_seed)),
       Fmt("--net-seed=%llu", static_cast<unsigned long long>(spec.net_seed)),
       Fmt("--probes=%llu", static_cast<unsigned long long>(spec.num_probes)),
       Fmt("--rounds=%u", spec.refinement_rounds),
       Fmt("--quantiles=%u", spec.local_quantiles),
       Fmt("--sketch-levels=%u", spec.sketch_levels)});
  if (!started.empty()) {
    std::fprintf(stderr, "wire-serve: %s\n", started.c_str());
    node.Stop();
    std::exit(1);
  }
  {
    ringdde::SocketRpcChannel admin(node.port());
    ringdde::RingClient client(&admin);
    ringdde::Result<uint64_t> items = client.Insert(ins);
    if (!items.ok() || *items != kKeys) {
      std::fprintf(stderr, "wire-serve: kInsert failed\n");
      node.Stop();
      std::exit(1);
    }
  }
  const double setup_s = SecondsSince(ProcessStart());

  // Benchmark-side truth, outside set-up: the keys and an in-process
  // replica of the same spec and insert (for addresses and bit-identity).
  std::vector<double> sorted = InsertedKeys(ins);
  std::sort(sorted.begin(), sorted.end());
  const std::vector<uint64_t> key_ids = SortedKeyIds(sorted);
  ringdde::Result<std::unique_ptr<ringdde::Deployment>> replica =
      ringdde::BuildDeployment(spec);
  if (!replica.ok()) {
    std::fprintf(stderr, "wire-serve: replica build failed\n");
    node.Stop();
    std::exit(1);
  }
  ringdde::ChordRing& replica_ring = *(*replica)->ring;
  replica_ring.InsertDatasetBulk(InsertedKeys(ins));
  const Membership members = MembershipOf(replica_ring);
  const double n_items = static_cast<double>(sorted.size());

  const QueryPool pool = MakeQueryPool(members, kPoolSize,
                                       Mix(kDeploySeed, 0x7100),
                                       Mix(args.seed, 0x2F00));

  const unsigned hw = WorkerThreads(64);
  const unsigned conns = std::max(1u, std::min(3u, hw - 1));
  std::vector<Conn> stats(conns);
  for (Conn& c : stats) {
    c.estimate_ms.Reserve(size_t{1} << 17);
    c.probe_us.Reserve(size_t{1} << 22);
    c.sketch_ms.Reserve(size_t{1} << 15);
    c.digests.reserve(size_t{1} << 17);
  }
  std::vector<std::vector<uint8_t>> first_payload(kPoolSize);
  std::vector<Kept> kept_sketches(kSketchesChecked);
  std::atomic<uint64_t> next_sketch{0};
  const Clock::time_point start = Clock::now();
  RoundDispenser slots(
      kPoolSize, start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(args.seconds)));

  auto run = [&](unsigned c) {
    Conn& st = stats[c];
    ringdde::SocketRpcChannel channel(node.port());
    auto call = [&](const Frame& req, Frame* reply) {
      ringdde::Result<Frame> r = channel.Call(req);
      if (!r.ok() || r->type != req.type) {
        ++st.failed;
        log.Fail("rpc failed: " +
                 (r.ok() ? std::string("reply type mismatch")
                         : r.status().ToString()));
        return false;
      }
      *reply = std::move(*r);
      return true;
    };
    Frame reply;
    for (uint64_t slot; slots.Take(&slot);) {
      const size_t e = pool.EntryOf(slot);
      SeedStream s(Mix(args.seed, 0x2000 + slot));
      // kEstimate.
      const Frame req =
          QueryFrame(RpcType::kEstimate, pool.queriers[e], pool.seeds[e]);
      const uint64_t wire0 = channel.stats().wire_bytes_received;
      const Clock::time_point t0 = Clock::now();
      if (call(req, &reply)) {
        ringdde::Result<DensityEstimate> est =
            ringdde::DecodeEstimateReply(reply.payload);
        const Clock::time_point t1 = Clock::now();
        if (!est.ok()) {
          ++st.failed;
          log.Fail("kEstimate decode: " + est.status().ToString());
        } else {
          st.estimate_ms.Add(SecondsBetween(t0, t1) * 1e3);
          st.wire_bytes += static_cast<double>(
              channel.stats().wire_bytes_received - wire0);
          st.messages += static_cast<double>(est->cost.messages);
          st.bytes += static_cast<double>(est->cost.bytes);
          const std::string shape = CheckCdfShape(est->cdf);
          if (!shape.empty()) log.Fail("kEstimate: " + shape);
          st.digests.emplace_back(slot, HashBytes(reply.payload));
          if (slot < kPoolSize) first_payload[e] = reply.payload;
        }
      }
      // kProbe × kProbesPerEstimate.
      for (int p = 0; p < kProbesPerEstimate; ++p) {
        const NodeAddr from = members.addrs[s.Below(members.addrs.size())];
        const uint64_t target = s.Next();
        const Frame preq = ProbeFrame(from, target, s.Next());
        const Clock::time_point p0 = Clock::now();
        if (!call(preq, &reply)) continue;
        ringdde::Decoder dec(reply.payload);
        ringdde::Result<ringdde::LocalSummary> summary =
            ringdde::DecodeLocalSummary(&dec);
        const Clock::time_point p1 = Clock::now();
        if (!summary.ok()) {
          ++st.failed;
          log.Fail("kProbe decode: " + summary.status().ToString());
          continue;
        }
        st.probe_us.Add(SecondsBetween(p0, p1) * 1e6);
        const uint64_t own = CountKeysInArc(key_ids, summary->arc_lo.value,
                                            summary->arc_hi.value);
        if (summary->item_count != own || summary->addr !=
                                              members.OwnerOf(target)) {
          log.Fail(Fmt("kProbe: peer %llu reports %llu keys, arc holds "
                       "%llu (owner %llu)",
                       static_cast<unsigned long long>(summary->addr),
                       static_cast<unsigned long long>(summary->item_count),
                       static_cast<unsigned long long>(own),
                       static_cast<unsigned long long>(
                           members.OwnerOf(target))));
        }
      }
      if ((slot + 1) % kEstimatesPerSketch != 0) continue;
      // kSketchEstimate.
      const NodeAddr querier = members.addrs[s.Below(members.addrs.size())];
      const uint64_t qseed = s.Next();
      const Clock::time_point k0 = Clock::now();
      if (call(QueryFrame(RpcType::kSketchEstimate, querier, qseed), &reply)) {
        ringdde::Result<DensityEstimate> est =
            ringdde::DecodeEstimateReply(reply.payload);
        const Clock::time_point k1 = Clock::now();
        if (!est.ok() || !est->sketch.has_value()) {
          ++st.failed;
          log.Fail("kSketchEstimate: undecodable or sketchless reply");
        } else {
          st.sketch_ms.Add(SecondsBetween(k0, k1) * 1e3);
          const std::string shape = CheckCdfShape(est->cdf);
          if (!shape.empty()) log.Fail("kSketchEstimate: " + shape);
          const uint64_t k = next_sketch.fetch_add(1);
          if (k < kSketchesChecked) {
            kept_sketches[k] = Kept{querier, qseed, reply.payload};
          }
        }
      }
    }
  };
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < conns; ++c) clients.emplace_back(run, c);
  for (std::thread& t : clients) t.join();
  const double elapsed = SecondsSince(start);
  const double peak_rss = ProcessPeakRssMb(node.pid());
  node.Stop();
  const uint64_t rounds = slots.rounds();

  Conn all;
  for (const Conn& c : stats) {
    all.estimate_ms.Append(c.estimate_ms);
    all.probe_us.Append(c.probe_us);
    all.sketch_ms.Append(c.sketch_ms);
    all.failed += c.failed;
    all.messages += c.messages;
    all.bytes += c.bytes;
    all.wire_bytes += c.wire_bytes;
  }

  // Post-run checks against the in-process replica and the sorted keys:
  // every pool query run in-process (in parallel over the now read-only
  // replica) must give the first round's reply byte for byte, and every
  // later round's reply the same digest.
  replica_ring.PrepareConcurrentReads();
  const std::vector<double> no_extra;
  std::vector<double> ks(kPoolSize, -1.0), n_hat(kPoolSize, 0.0);
  std::vector<size_t> m_succeeded(kPoolSize, 0);
  std::vector<uint64_t> digest(kPoolSize, 0);
  std::atomic<uint64_t> next_check{0};
  std::vector<std::thread> checkers;
  for (unsigned t = 0; t < WorkerThreads(4); ++t) {
    checkers.emplace_back([&] {
      for (uint64_t i; (i = next_check.fetch_add(1)) < kPoolSize;) {
        ringdde::DdeOptions opts = EstimatorOptions(pool.seeds[i]);
        opts.retry.max_attempts = static_cast<int>(spec.retry_max_attempts);
        ringdde::DistributionFreeEstimator local(&replica_ring, opts);
        ringdde::Result<DensityEstimate> mine = local.Estimate(pool.queriers[i]);
        if (!mine.ok()) {
          log.Fail(Fmt("in-process run of pool query %llu failed",
                       static_cast<unsigned long long>(i)));
          continue;
        }
        const std::vector<uint8_t> bytes = EncodeReply(*mine);
        if (bytes != first_payload[i]) {
          log.Fail(Fmt("kEstimate reply of pool query %llu differs from the "
                       "in-process run",
                       static_cast<unsigned long long>(i)));
          continue;
        }
        digest[i] = HashBytes(bytes);
        ks[i] = ExactKs(mine->cdf, sorted, no_extra);
        n_hat[i] = mine->estimated_total_items;
        m_succeeded[i] = mine->probes_requested -
                         static_cast<size_t>(mine->failed_probes);
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  uint64_t differing = 0;
  for (const Conn& c : stats) {
    for (const auto& [slot, d] : c.digests) {
      if (d != digest[pool.EntryOf(slot)]) ++differing;
    }
  }
  if (differing > 0) {
    log.Fail(Fmt("%llu kEstimate replies differ from the in-process run",
                 static_cast<unsigned long long>(differing)));
  }
  KsTally tally;
  TotalTally totals;
  for (size_t i = 0; i < kPoolSize; ++i) {
    if (ks[i] < 0.0) continue;
    tally.Add(ks[i], m_succeeded[i]);
    totals.Add(n_hat[i], n_items);
  }
  // One accuracy check per round, on the same replies every round. On this
  // 1024-peer deployment the estimator breaks its bounds, so the check is
  // a failed operation of every round until that is fixed (README,
  // "Output checks").
  const std::string accuracy = PoolAccuracyViolation(tally, totals);
  if (!accuracy.empty()) {
    std::fprintf(stderr, "ACCURACY CHECK FAILED in every round: %s\n",
                 accuracy.c_str());
    all.failed += rounds;
  }
  const uint64_t n_sk = std::min(next_sketch.load(), kSketchesChecked);
  double worst_rank_err = 0.0;
  for (uint64_t i = 0; i < n_sk; ++i) {
    const Kept& k = kept_sketches[i];
    ringdde::SketchAggregationOptions opts;
    opts.sketch_levels = spec.sketch_levels;
    opts.retry.max_attempts = static_cast<int>(spec.retry_max_attempts);
    opts.seed = k.seed;
    ringdde::SketchAggregator local(&replica_ring, opts);
    ringdde::Result<DensityEstimate> mine = local.Estimate(k.querier);
    if (!mine.ok() || EncodeReply(*mine) != k.payload) {
      log.Fail(Fmt("kSketchEstimate reply %llu differs from the in-process "
                   "run", static_cast<unsigned long long>(i)));
      continue;
    }
    const ringdde::DensitySketch& sk = *mine->sketch;
    double err = 0.0;
    for (int g = 0; g <= 200; ++g) {
      const double x = sorted.front() +
                       (sorted.back() - sorted.front()) * (g / 200.0);
      const double exact = static_cast<double>(
          std::upper_bound(sorted.begin(), sorted.end(), x) - sorted.begin());
      err = std::max(err, std::abs(static_cast<double>(sk.RankOf(x)) - exact) /
                              n_items);
    }
    worst_rank_err = std::max(worst_rank_err, err);
    if (err > sk.ErrorBound()) {
      log.Fail(Fmt("sketch rank error %.5f exceeds ErrorBound() %.5f", err,
                   sk.ErrorBound()));
    }
  }
  if (n_sk < kSketchesChecked) {
    log.Fail(Fmt("only %llu kSketchEstimate replies to check",
                 static_cast<unsigned long long>(n_sk)));
  }
  if (!all.estimate_ms.TailOk() || all.probe_us.size() < 100) {
    log.Fail("too few samples behind a tail percentile");
  }

  const double est_n = static_cast<double>(std::max<size_t>(1, all.estimate_ms.size()));
  Report& r = out.report;
  r.Detail(Fmt("wire-serve: %u connections, node of %zu peers and %zu keys, "
               "slot = kEstimate + %d kProbe (+ 1 kSketchEstimate every %d "
               "slots), %.2f s window",
               conns, kNodePeers, kKeys, kProbesPerEstimate,
               kEstimatesPerSketch, elapsed));
  r.Detail(Fmt("samples: %zu kEstimate in %llu rounds of the %zu-query pool, "
               "%zu kProbe, %zu kSketchEstimate; every kEstimate reply "
               "checked against the in-process run (DKW exceedances %llu of "
               "the pool), %llu sketches (worst rank error %.5f)",
               all.estimate_ms.size(), static_cast<unsigned long long>(rounds),
               kPoolSize, all.probe_us.size(), all.sketch_ms.size(),
               static_cast<unsigned long long>(tally.exceed),
               static_cast<unsigned long long>(n_sk), worst_rank_err));
  r.Detail(totals.Describe());
  r.Detail("accuracy bounds on the pool: " +
           (accuracy.empty() ? std::string("held") : "broken: " + accuracy));
  r.Detail(Fmt("kSketchEstimate: p50 %.3f ms (%zu samples), %.1f per s",
               all.sketch_ms.Median(), all.sketch_ms.size(),
               static_cast<double>(all.sketch_ms.size()) / elapsed));
  r.Detail(Fmt("side operation (kProbe): p50 %.3f us, p90 %.3f us, p99 %.3f us, "
               "mean %.3f us over %zu samples",
               all.probe_us.Median(), all.probe_us.Quantile(0.9), all.probe_us.P99(),
               all.probe_us.Mean(), all.probe_us.size()));
  r.Metric("setup_s", setup_s, "s");
  r.Metric("peak_rss_mb", peak_rss, "MB");
  r.Metric("estimates_per_s",
           static_cast<double>(all.estimate_ms.size()) / elapsed, "1/s");
  r.Metric("estimate_p50_ms", all.estimate_ms.Median(), "ms");
  r.Metric("estimate_p99_ms", all.estimate_ms.P99(), "ms");
  r.Metric("ks_error", tally.ks.Mean(), "ks");
  r.Metric("messages_per_estimate", all.messages / est_n, "count");
  r.Metric("bytes_per_estimate", all.bytes / est_n, "B");
  r.Metric("reply_bytes_per_estimate", all.wire_bytes / est_n, "B");
  r.Metric("side_ops_per_s", static_cast<double>(all.probe_us.size()) / elapsed,
           "1/s");
  r.Metric("side_op_p50_us", all.probe_us.Median(), "us");
  r.Metric("side_op_mean_us", all.probe_us.Mean(), "us");

  // Per round: the pool's kEstimates, their kProbes, the kSketchEstimates
  // and the accuracy check.
  out.attempted = rounds * (kPoolSize * (1 + kProbesPerEstimate) +
                            kPoolSize / kEstimatesPerSketch + 1);
  out.failed = all.failed;
  out.correct = log.ok();
  return out;
}

}  // namespace perfbench
