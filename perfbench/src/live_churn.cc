// live-churn: one mutator applies an open-loop schedule of churn batches
// (joins, graceful leaves, key inserts, then SnapshotManager::Publish) to
// an in-process ring while reader threads serve estimates from pinned
// EpochViews. The publish of each batch is the side operation.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "bench.h"
#include "ring/epoch_snapshot.h"
#include "trace.h"

namespace perfbench {

using ringdde::DensityEstimate;
using ringdde::EpochView;
using ringdde::NodeAddr;

namespace {

/// Reader estimates with query id below this are KS-checked after the run.
constexpr uint64_t kKsChecked = 1024;

struct Reader {
  Samples estimate_ms;
  Samples staleness;  ///< head sequence minus pinned sequence, at completion
  TotalTally totals;
  uint64_t attempted = 0, failed = 0;
  double messages = 0, bytes = 0, reply_bytes = 0;
};

struct KsSample {
  ringdde::PiecewiseLinearCdf cdf;
  size_t m_succeeded = 0;
  uint64_t sequence = 0;
  uint64_t view_items = 0;
};

}  // namespace

ChurnBatcher::ChurnBatcher(ringdde::ChordRing* ring, uint64_t pick_seed,
                           uint64_t key_seed)
    : ring_(ring),
      picks_(pick_seed),
      dist_(KeyDistribution()),
      key_rng_(key_seed) {}

uint64_t ChurnBatcher::Apply(CheckLog& log, std::vector<double>* inserted,
                             Tracer* tracer, uint64_t query) {
  ringdde::ChordRing& ring = *ring_;
  uint64_t failed = 0;
  for (int j = 0; j < kChurnPerBatch; ++j) {
    const NodeAddr boot = ring.AliveAddrAtRank(picks_.Below(ring.AliveCount()));
    ringdde::Result<NodeAddr> joined =
        Timed(tracer, "ring.join", query, [&] { return ring.Join(boot); });
    if (!joined.ok()) {
      ++failed;
      log.Fail("Join: " + joined.status().ToString());
      continue;
    }
    Timed(tracer, "ring.stabilize_node", query, [&] {
      ring.StabilizeNode(*joined);
      return 0;
    });
  }
  for (int j = 0; j < kChurnPerBatch; ++j) {
    const NodeAddr leaving =
        ring.AliveAddrAtRank(picks_.Below(ring.AliveCount()));
    const ringdde::Status left =
        Timed(tracer, "ring.leave", query, [&] { return ring.Leave(leaving); });
    if (!left.ok()) {
      ++failed;
      log.Fail("Leave: " + left.ToString());
    }
  }
  for (int k = 0; k < kInsertsPerBatch; ++k) {
    const double key = dist_->Sample(key_rng_);
    const ringdde::Status put = Timed(tracer, "ring.insert_key", query,
                                      [&] { return ring.InsertKeyBulk(key); });
    if (!put.ok()) {
      ++failed;
      log.Fail("InsertKeyBulk: " + put.ToString());
      continue;
    }
    inserted->push_back(key);
  }
  for (int k = 0; k < kStabilizePerBatch; ++k) {
    const NodeAddr next = ring.AliveAddrAtRank(sweep_++ % ring.AliveCount());
    Timed(tracer, "ring.stabilize_node", query, [&] {
      ring.StabilizeNode(next);
      return 0;
    });
  }
  return failed;
}

Outcome RunLiveChurn(const Args& args) {
  Outcome out;
  CheckLog log;
  InProcessRing dep = BuildRing(kRingPeers, nullptr);
  ringdde::ChordRing& ring = *dep.ring;
  ringdde::SnapshotManager manager(&ring);
  const std::shared_ptr<const EpochView> first = manager.Publish();
  const double setup_s = SecondsSince(ProcessStart());

  // Benchmark-side truth: initial keys sorted, plus every inserted key
  // in insertion order; sequence -> batches applied, filled by the mutator.
  std::vector<double> sorted = dep.keys;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> inserted;
  std::vector<uint64_t> batches_at_sequence(first->sequence() + 1, 0);
  const uint64_t initial_items = ring.TotalItems();
  if (initial_items != sorted.size()) log.Fail("initial item count differs");

  const unsigned hw = WorkerThreads(64);
  // The mutator gets a core of its own and one is left to the machine.
  const unsigned readers = hw > 2 ? std::min(3u, hw - 2) : 1u;
  std::vector<Reader> stats(readers);
  for (Reader& r : stats) {
    r.estimate_ms.Reserve(size_t{1} << 19);
    r.staleness.Reserve(size_t{1} << 19);
  }
  std::vector<KsSample> ks_samples(kKsChecked);
  std::vector<char> ks_filled(kKsChecked, 0);
  std::atomic<uint64_t> next_query{0};
  std::atomic<bool> stop{false};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));

  auto read = [&](Reader* rd) {
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t q = next_query.fetch_add(1, std::memory_order_relaxed);
      SeedStream s(Mix(args.seed, 0x3000 + q));
      ++rd->attempted;
      const std::shared_ptr<const EpochView> view = manager.Current();
      const NodeAddr querier = view->addrs()[s.Below(view->size())];
      ringdde::DistributionFreeEstimator estimator(view.get(),
                                                   EstimatorOptions(s.Next()));
      const Clock::time_point t0 = Clock::now();
      ringdde::Result<DensityEstimate> est = estimator.Estimate(querier);
      const Clock::time_point t1 = Clock::now();
      if (!est.ok()) {
        ++rd->failed;
        log.Fail("epoch Estimate: " + est.status().ToString());
        continue;
      }
      rd->estimate_ms.Add(SecondsBetween(t0, t1) * 1e3);
      rd->staleness.Add(
          static_cast<double>(manager.head_sequence() - view->sequence()));
      rd->messages += static_cast<double>(est->cost.messages);
      rd->bytes += static_cast<double>(est->cost.bytes);
      rd->reply_bytes += static_cast<double>(EncodeReply(*est).size() +
                                             ringdde::kFrameHeaderBytes);
      const std::string shape = CheckCdfShape(est->cdf);
      if (!shape.empty()) log.Fail("epoch estimate: " + shape);
      rd->totals.Add(est->estimated_total_items,
                     static_cast<double>(view->total_items()));
      if (q < kKsChecked) {
        ks_samples[q] = KsSample{
            est->cdf,
            est->probes_requested - static_cast<size_t>(est->failed_probes),
            view->sequence(), view->total_items()};
        ks_filled[q] = 1;
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < readers; ++t) pool.emplace_back(read, &stats[t]);

  // Mutator (this thread): batch b is due at start + b * interval. Its
  // latency runs from when it starts (apply + publish); how late it started
  // is reported apart (p50 ~0.1 ms, max up to ~10 ms on a shared VM), and
  // a mutator that falls behind shows as fewer batches per second.
  ChurnBatcher batcher(&ring, Mix(args.seed, 0x4000), Mix(args.seed, 0x4001));
  Samples publish_us;
  publish_us.Reserve(size_t{1} << 14);
  uint64_t batches = 0, mutator_failed = 0;
  Samples late_ms;
  late_ms.Reserve(size_t{1} << 14);
  for (;; ++batches) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kBatchIntervalS *
                                                  static_cast<double>(batches)));
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point begun = Clock::now();
    late_ms.Add(SecondsBetween(due, begun) * 1e3);
    mutator_failed += batcher.Apply(log, &inserted, nullptr, 0);
    const std::shared_ptr<const EpochView> view = manager.Publish();
    publish_us.Add(SecondsSince(begun) * 1e6);
    if (view->sequence() >= batches_at_sequence.size()) {
      batches_at_sequence.resize(view->sequence() + 1, batches + 1);
    }
    batches_at_sequence[view->sequence()] = batches + 1;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();
  const double elapsed = SecondsSince(start);
  const double peak_rss = SelfPeakRssMb();

  Reader all;
  for (const Reader& r : stats) {
    all.estimate_ms.Append(r.estimate_ms);
    all.staleness.Append(r.staleness);
    all.totals.Append(r.totals);
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.messages += r.messages;
    all.bytes += r.bytes;
    all.reply_bytes += r.reply_bytes;
  }

  // Item conservation, and the last epoch against the live ring.
  if (ring.TotalItems() != initial_items + inserted.size()) {
    log.Fail(Fmt("TotalItems() = %llu, expected %llu + %zu inserted",
                 static_cast<unsigned long long>(ring.TotalItems()),
                 static_cast<unsigned long long>(initial_items),
                 inserted.size()));
  }
  {
    const std::shared_ptr<const EpochView> last = manager.Publish();
    const ringdde::DdeOptions opts = EstimatorOptions(Mix(args.seed, 0x4002));
    const NodeAddr querier = last->addrs()[0];
    ringdde::DistributionFreeEstimator from_view(last.get(), opts);
    ringdde::DistributionFreeEstimator from_ring(&ring, opts);
    ringdde::Result<DensityEstimate> a = from_view.Estimate(querier);
    ringdde::Result<DensityEstimate> b = from_ring.Estimate(querier);
    if (!a.ok() || !b.ok() || EncodeReply(*a) != EncodeReply(*b)) {
      log.Fail("final-epoch estimate differs from the live-ring estimate");
    }
  }

  // Exact KS of the sampled estimates against the ECDF of the keys their
  // epoch held: the initial keys plus the batches applied before it.
  std::vector<uint64_t> order;
  for (uint64_t i = 0; i < kKsChecked; ++i) {
    if (ks_filled[i]) order.push_back(i);
  }
  const auto batches_of = [&](uint64_t i) {
    return batches_at_sequence[ks_samples[i].sequence];
  };
  std::sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
    return batches_of(a) < batches_of(b);
  });
  for (uint64_t i : order) {
    const uint64_t own = initial_items + batches_of(i) * kInsertsPerBatch;
    if (ks_samples[i].sequence >= batches_at_sequence.size() ||
        ks_samples[i].view_items != own) {
      log.Fail(Fmt("epoch %llu holds %llu items, expected %llu",
                   static_cast<unsigned long long>(ks_samples[i].sequence),
                   static_cast<unsigned long long>(ks_samples[i].view_items),
                   static_cast<unsigned long long>(own)));
    }
  }
  std::vector<double> ks(kKsChecked, -1.0);
  const unsigned checkers = WorkerThreads(4);
  std::vector<std::thread> check_pool;
  for (unsigned t = 0; t < checkers; ++t) {
    check_pool.emplace_back([&, t] {
      // Contiguous slice of the batch-ordered samples; the extra keys
      // grow by merging as the slice advances.
      const size_t lo = order.size() * t / checkers;
      const size_t hi = order.size() * (t + 1) / checkers;
      std::vector<double> extra;
      uint64_t have = 0;
      for (size_t o = lo; o < hi; ++o) {
        const uint64_t i = order[o];
        const uint64_t want = batches_of(i) * kInsertsPerBatch;
        if (want > have) {
          const size_t mid = extra.size();
          extra.insert(extra.end(), inserted.begin() + static_cast<ptrdiff_t>(have),
                       inserted.begin() + static_cast<ptrdiff_t>(want));
          std::sort(extra.begin() + static_cast<ptrdiff_t>(mid), extra.end());
          std::inplace_merge(extra.begin(),
                             extra.begin() + static_cast<ptrdiff_t>(mid),
                             extra.end());
          have = want;
        }
        ks[i] = ExactKs(ks_samples[i].cdf, sorted, extra);
      }
    });
  }
  for (std::thread& t : check_pool) t.join();
  KsTally tally;
  for (uint64_t i : order) tally.Add(ks[i], ks_samples[i].m_succeeded);
  if (order.size() < kKsChecked) {
    log.Fail(Fmt("only %zu estimates to KS-check", order.size()));
  }
  for (const std::string& v : {tally.Violation(), all.totals.Violation()}) {
    if (!v.empty()) log.Fail(v);
  }
  if (!all.estimate_ms.TailOk() || publish_us.size() < 100) {
    log.Fail("too few samples behind a tail percentile");
  }

  const ringdde::SnapshotManager::Stats& ss = manager.stats();
  const double est_n =
      static_cast<double>(std::max<size_t>(1, all.estimate_ms.size()));
  Report& r = out.report;
  r.Detail(Fmt("live-churn: %u readers, %zu peers, %zu keys; a batch every "
               "%.0f ms of %d join, %d leave, %d inserts, %d stabilized + Publish; "
               "%.2f s window",
               readers, kRingPeers, kKeys, kBatchIntervalS * 1e3,
               kChurnPerBatch, kChurnPerBatch, kInsertsPerBatch, kStabilizePerBatch,
               elapsed));
  r.Detail(Fmt("samples: %zu estimates, %llu publishes; KS-checked %zu "
               "(DKW exceedances %llu); staleness p50 %.0f max %.0f epochs; "
               "batch start lateness p50 %.3f max %.3f ms; node views reused %llu "
               "built %llu",
               all.estimate_ms.size(),
               static_cast<unsigned long long>(batches), tally.ks.size(),
               static_cast<unsigned long long>(tally.exceed),
               all.staleness.Median(), all.staleness.Max(), late_ms.Median(),
               late_ms.Max(),
               static_cast<unsigned long long>(ss.node_views_reused),
               static_cast<unsigned long long>(ss.node_views_built)));
  r.Detail(all.totals.Describe());
  r.Detail(Fmt("side operation (publish): p50 %.3f us, p90 %.3f us, p99 %.3f us, "
               "mean %.3f us over %zu samples",
               publish_us.Median(), publish_us.Quantile(0.9), publish_us.P99(),
               publish_us.Mean(), publish_us.size()));
  r.Metric("setup_s", setup_s, "s");
  r.Metric("peak_rss_mb", peak_rss, "MB");
  r.Metric("estimates_per_s",
           static_cast<double>(all.estimate_ms.size()) / elapsed, "1/s");
  r.Metric("estimate_p50_ms", all.estimate_ms.Median(), "ms");
  r.Metric("estimate_p99_ms", all.estimate_ms.P99(), "ms");
  r.Metric("ks_error", tally.ks.Mean(), "ks");
  r.Metric("messages_per_estimate", all.messages / est_n, "count");
  r.Metric("bytes_per_estimate", all.bytes / est_n, "B");
  r.Metric("reply_bytes_per_estimate", all.reply_bytes / est_n, "B");
  r.Metric("side_ops_per_s", static_cast<double>(batches) / elapsed, "1/s");
  r.Metric("side_op_p50_us", publish_us.Median(), "us");
  r.Metric("side_op_mean_us", publish_us.Mean(), "us");

  out.attempted = all.attempted + batches;
  out.failed = all.failed + mutator_failed;
  out.correct = log.ok();
  return out;
}

}  // namespace perfbench
