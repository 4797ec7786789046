// local-estimate: closed-loop DistributionFreeEstimator::Estimate calls
// over whole rounds of a fixed query pool, from up to 4 threads against one
// shared, quiescent in-process ring, with a fixed share of owner lookups
// (ChordRing::Lookup) as the side operation.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "bench.h"
#include "common/codec.h"
#include "core/ring_service.h"
#include "data/dataset.h"
#include "trace.h"

namespace perfbench {

using ringdde::ChordRing;
using ringdde::DensityEstimate;
using ringdde::NodeAddr;

// --- Shared deployment helpers -------------------------------------------------

std::unique_ptr<ringdde::Distribution> KeyDistribution() {
  return std::make_unique<ringdde::ZipfDistribution>(kZipfValues, kZipfTheta);
}

ringdde::DdeOptions EstimatorOptions(uint64_t query_seed) {
  ringdde::DdeOptions opts;
  opts.num_probes = kProbes;
  opts.refinement_rounds = kRounds;
  opts.local_quantiles = kQuantiles;
  opts.seed = query_seed;
  return opts;
}

InProcessRing BuildRing(size_t peers, Tracer* tracer) {
  const uint64_t seed = kDeploySeed;
  InProcessRing out;
  ringdde::NetworkOptions net_opts;
  net_opts.seed = Mix(seed, 3);
  out.net = std::make_unique<ringdde::Network>(net_opts);
  ringdde::RingOptions ring_opts;
  ring_opts.seed = Mix(seed, 1);
  out.ring = std::make_unique<ChordRing>(out.net.get(), ring_opts);
  {
    const uint32_t span = tracer ? tracer->Begin("data.generate", 0) : 0;
    std::unique_ptr<ringdde::Distribution> dist = KeyDistribution();
    ringdde::Rng rng(Mix(seed, 2));
    out.keys = ringdde::GenerateDataset(*dist, kKeys, rng).keys;
    if (tracer) tracer->End(span);
  }
  {
    const uint32_t span = tracer ? tracer->Begin("ring.create", 0) : 0;
    ringdde::Status s = out.ring->CreateNetwork(peers);
    if (tracer) tracer->End(span);
    if (!s.ok()) {
      std::fprintf(stderr, "CreateNetwork: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  {
    const uint32_t span = tracer ? tracer->Begin("ring.insert_bulk", 0) : 0;
    out.ring->InsertDatasetBulk(out.keys);
    if (tracer) tracer->End(span);
  }
  return out;
}

Membership MembershipOf(const ChordRing& ring) {
  std::vector<std::pair<uint64_t, NodeAddr>> pairs;
  for (NodeAddr a : ring.AliveAddrs()) {
    pairs.emplace_back(ring.GetNode(a)->id().value, a);
  }
  std::sort(pairs.begin(), pairs.end());
  Membership m;
  for (const auto& [id, addr] : pairs) {
    m.ids.push_back(id);
    m.addrs.push_back(addr);
  }
  return m;
}

std::vector<uint64_t> SortedKeyIds(const std::vector<double>& keys) {
  std::vector<uint64_t> ids;
  ids.reserve(keys.size());
  for (double k : keys) ids.push_back(ringdde::RingId::FromUnit(k).value);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<uint8_t> EncodeReply(const DensityEstimate& estimate) {
  ringdde::Encoder enc;
  ringdde::EncodeEstimateReply(estimate, &enc);
  return enc.Take();
}

// --- Workload ------------------------------------------------------------------

namespace {

/// Owner lookups issued after each estimate (the side operation).
constexpr int kLookupsPerRound = 16;
/// Estimate queries per round (the query pool); every one is KS-checked.
constexpr size_t kPoolSize = 1024;

struct Worker {
  Samples estimate_ms;
  Samples lookup_us;
  /// (slot, digest of the encoded estimate) of every completed estimate.
  std::vector<std::pair<uint64_t, uint64_t>> digests;
  uint64_t estimates_ok = 0;
  uint64_t lookups_ok = 0;
  uint64_t failed = 0;
  double messages = 0, bytes = 0, reply_bytes = 0;
};

/// A pool entry's estimate as its first round returned it.
struct FirstEstimate {
  ringdde::PiecewiseLinearCdf cdf;
  size_t m_succeeded = 0;
  double n_hat = 0.0;
  uint64_t digest = 0;
  bool filled = false;
};

}  // namespace

Outcome RunLocalEstimate(const Args& args) {
  Outcome out;
  InProcessRing dep = BuildRing(kRingPeers, nullptr);
  ChordRing& ring = *dep.ring;
  ring.PrepareConcurrentReads();
  const double setup_s = SecondsSince(ProcessStart());

  // Benchmark-side truth, outside set-up: sorted keys and membership.
  std::vector<double> sorted = dep.keys;
  std::sort(sorted.begin(), sorted.end());
  const Membership members = MembershipOf(ring);
  const double n_items = static_cast<double>(sorted.size());
  if (ring.TotalItems() != sorted.size()) {
    out.correct = false;
    std::fprintf(stderr, "ring stores %llu keys, expected %zu\n",
                 static_cast<unsigned long long>(ring.TotalItems()),
                 sorted.size());
  }
  const QueryPool pool = MakeQueryPool(members, kPoolSize,
                                       Mix(kDeploySeed, 0x7000),
                                       Mix(args.seed, 0x1F00));

  // One core is left to the rest of the machine.
  const unsigned threads = std::max(1u, std::min(4u, WorkerThreads(64) - 1));
  std::vector<Worker> workers(threads);
  for (Worker& w : workers) {
    // Far above what a 60 s run completes per thread.
    w.estimate_ms.Reserve(size_t{1} << 19);
    w.lookup_us.Reserve(size_t{1} << 23);
    w.digests.reserve(size_t{1} << 19);
  }
  std::vector<FirstEstimate> first(kPoolSize);
  CheckLog log;
  const Clock::time_point start = Clock::now();
  RoundDispenser slots(
      kPoolSize, start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(args.seconds)));

  auto run = [&](Worker* w) {
    for (uint64_t slot; slots.Take(&slot);) {
      const size_t e = pool.EntryOf(slot);
      SeedStream s(Mix(args.seed, 0x1000 + slot));
      ringdde::DistributionFreeEstimator estimator(
          &ring, EstimatorOptions(pool.seeds[e]));
      const Clock::time_point t0 = Clock::now();
      ringdde::Result<DensityEstimate> est =
          estimator.Estimate(pool.queriers[e]);
      const Clock::time_point t1 = Clock::now();
      if (!est.ok()) {
        ++w->failed;
        log.Fail("Estimate: " + est.status().ToString());
      } else {
        ++w->estimates_ok;
        w->estimate_ms.Add(SecondsBetween(t0, t1) * 1e3);
        w->messages += static_cast<double>(est->cost.messages);
        w->bytes += static_cast<double>(est->cost.bytes);
        const std::vector<uint8_t> reply = EncodeReply(*est);
        w->reply_bytes +=
            static_cast<double>(reply.size() + ringdde::kFrameHeaderBytes);
        w->digests.emplace_back(slot, HashBytes(reply));
        const std::string shape = CheckCdfShape(est->cdf);
        if (!shape.empty()) log.Fail(Fmt("query %zu: %s", e, shape.c_str()));
        if (slot < kPoolSize) {
          first[e].cdf = est->cdf;
          first[e].m_succeeded =
              est->probes_requested - static_cast<size_t>(est->failed_probes);
          first[e].n_hat = est->estimated_total_items;
          first[e].digest = w->digests.back().second;
          first[e].filled = true;
        }
      }
      for (int l = 0; l < kLookupsPerRound; ++l) {
        const NodeAddr from = members.addrs[s.Below(members.addrs.size())];
        const uint64_t target = s.Next();
        ringdde::CostContext ctx = ring.network().MakeQueryContext(s.Next());
        const Clock::time_point l0 = Clock::now();
        ringdde::Result<NodeAddr> owner =
            ring.Lookup(ctx, from, ringdde::RingId(target));
        const Clock::time_point l1 = Clock::now();
        if (!owner.ok()) {
          ++w->failed;
          log.Fail("Lookup: " + owner.status().ToString());
          continue;
        }
        ++w->lookups_ok;
        w->lookup_us.Add(SecondsBetween(l0, l1) * 1e6);
        if (*owner != members.OwnerOf(target)) {
          log.Fail(Fmt("Lookup(%llu) returned peer %llu, successor is %llu",
                       static_cast<unsigned long long>(target),
                       static_cast<unsigned long long>(*owner),
                       static_cast<unsigned long long>(
                           members.OwnerOf(target))));
        }
      }
    }
  };
  std::vector<std::thread> pool_threads;
  for (unsigned t = 0; t < threads; ++t) {
    pool_threads.emplace_back(run, &workers[t]);
  }
  for (std::thread& t : pool_threads) t.join();
  const double elapsed = SecondsSince(start);
  const double peak_rss = SelfPeakRssMb();
  const uint64_t rounds = slots.rounds();

  Worker all;
  all.estimate_ms.Reserve(size_t{1} << 20);
  all.lookup_us.Reserve(size_t{1} << 24);
  for (const Worker& w : workers) {
    all.estimate_ms.Append(w.estimate_ms);
    all.lookup_us.Append(w.lookup_us);
    all.estimates_ok += w.estimates_ok;
    all.lookups_ok += w.lookups_ok;
    all.failed += w.failed;
    all.messages += w.messages;
    all.bytes += w.bytes;
    all.reply_bytes += w.reply_bytes;
  }

  // Every later round must return the first round's estimates bit for bit.
  uint64_t differing = 0;
  for (const Worker& w : workers) {
    for (const auto& [slot, digest] : w.digests) {
      const FirstEstimate& f = first[pool.EntryOf(slot)];
      if (f.filled && digest != f.digest) ++differing;
    }
  }
  if (differing > 0) {
    log.Fail(Fmt("%llu repeated queries returned another estimate than "
                 "their first round",
                 static_cast<unsigned long long>(differing)));
  }

  // Exact KS of every pool entry, in parallel.
  std::vector<double> ks(kPoolSize, -1.0);
  std::atomic<uint64_t> next_ks{0};
  std::vector<std::thread> checkers;
  const std::vector<double> no_extra;
  for (unsigned t = 0; t < threads; ++t) {
    checkers.emplace_back([&] {
      for (uint64_t i; (i = next_ks.fetch_add(1)) < kPoolSize;) {
        if (first[i].filled) ks[i] = ExactKs(first[i].cdf, sorted, no_extra);
      }
    });
  }
  for (std::thread& t : checkers) t.join();
  KsTally tally;
  TotalTally totals;
  for (size_t i = 0; i < kPoolSize; ++i) {
    if (!first[i].filled) {
      log.Fail(Fmt("pool query %zu has no estimate", i));
      continue;
    }
    tally.Add(ks[i], first[i].m_succeeded);
    totals.Add(first[i].n_hat, n_items);
  }
  // One accuracy check per round, on the same estimates every round: a
  // broken bound is a failed operation of every round (README, "Output
  // checks").
  const std::string accuracy = PoolAccuracyViolation(tally, totals);
  if (!accuracy.empty()) {
    std::fprintf(stderr, "ACCURACY CHECK FAILED in every round: %s\n",
                 accuracy.c_str());
    all.failed += rounds;
  }
  if (!all.estimate_ms.TailOk() || all.lookup_us.size() < 100) {
    log.Fail("too few samples behind a tail percentile");
  }

  const double est_n = static_cast<double>(std::max<uint64_t>(1, all.estimates_ok));
  Report& r = out.report;
  r.Detail(Fmt("local-estimate: %u threads, %zu peers, %zu keys, m=%zu, "
               "rounds=%d, %d lookups per estimate, %.2f s window",
               threads, kRingPeers, kKeys, kProbes, kRounds, kLookupsPerRound,
               elapsed));
  r.Detail(Fmt("samples: %zu estimates in %llu rounds of the %zu-query pool, "
               "%zu lookups; pool KS-checked (DKW exceedances %llu)",
               all.estimate_ms.size(), static_cast<unsigned long long>(rounds),
               kPoolSize, all.lookup_us.size(),
               static_cast<unsigned long long>(tally.exceed)));
  r.Detail(totals.Describe());
  r.Detail("accuracy bounds on the pool: " +
           (accuracy.empty() ? std::string("held") : "broken: " + accuracy));
  r.Detail(Fmt("side operation (lookup): p50 %.3f us, p90 %.3f us, p99 %.3f us, "
               "mean %.3f us over %zu samples",
               all.lookup_us.Median(), all.lookup_us.Quantile(0.9), all.lookup_us.P99(),
               all.lookup_us.Mean(), all.lookup_us.size()));
  r.Metric("setup_s", setup_s, "s");
  r.Metric("peak_rss_mb", peak_rss, "MB");
  r.Metric("estimates_per_s", static_cast<double>(all.estimates_ok) / elapsed,
           "1/s");
  r.Metric("estimate_p50_ms", all.estimate_ms.Median(), "ms");
  r.Metric("estimate_p99_ms", all.estimate_ms.P99(), "ms");
  r.Metric("ks_error", tally.ks.Mean(), "ks");
  r.Metric("messages_per_estimate", all.messages / est_n, "count");
  r.Metric("bytes_per_estimate", all.bytes / est_n, "B");
  r.Metric("reply_bytes_per_estimate", all.reply_bytes / est_n, "B");
  r.Metric("side_ops_per_s", static_cast<double>(all.lookups_ok) / elapsed,
           "1/s");
  r.Metric("side_op_p50_us", all.lookup_us.Median(), "us");
  r.Metric("side_op_mean_us", all.lookup_us.Mean(), "us");

  // Per round: the pool's estimates, their lookups and the accuracy check.
  out.attempted = rounds * (kPoolSize * (1 + kLookupsPerRound) + 1);
  out.failed = all.failed;
  out.correct = out.correct && log.ok();
  return out;
}

}  // namespace perfbench
