// Traced run (--trace 1): a per-layer sweep that opens a span around each
// call the benchmark makes into a layer's public functions, then reports
// per-layer metrics, self times and the tracer's own overhead. The ring
// is the workload's (kNodePeers peers for wire-serve, kRingPeers
// otherwise); the service and RPC phases always use the wire-serve spec.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "common/codec.h"
#include "core/global_cdf.h"
#include "core/inversion_sampler.h"
#include "core/local_summary.h"
#include "core/probe.h"
#include "core/ring_service.h"
#include "core/sketch_aggregation.h"
#include "core/wire.h"
#include "ring/epoch_snapshot.h"
#include "sim/rpc_server.h"
#include "sim/socket_transport.h"
#include "stats/density_sketch.h"
#include "trace.h"

namespace perfbench {

using ringdde::ChordRing;
using ringdde::DensityEstimate;
using ringdde::Frame;
using ringdde::LocalSummary;
using ringdde::NodeAddr;
using ringdde::RingId;
using ringdde::RpcType;

namespace {

constexpr int kLookups = 4000;
constexpr int kAnatomyQueries = 64;
constexpr int kInverseCalls = 1024;
constexpr int kSketchRuns = 5;
constexpr int kMerges = 1000;
constexpr int kCodecRounds = 200;
constexpr int kChurnBatches = 100;
constexpr int kServiceProbes = 2000;
constexpr int kServiceEstimates = 100;
constexpr int kServiceSketches = 40;
constexpr int kEchoCalls = 2000;

struct ReplayOut {
  ringdde::Result<ringdde::ReconstructionResult> recon =
      ringdde::Status::Internal("not run");
  size_t peers = 0;
  std::vector<uint64_t> probe_bytes;
};

/// CdfProber::ProbeTargets rebuilt from public calls (ArcCoverageSet and
/// one CdfProber::Probe per uncovered target), so each probe is a span.
void ProbeTargetsTimed(Tracer* tr, uint64_t q, ChordRing& ring,
                       ringdde::CdfProber& prober, ringdde::CostContext& ctx,
                       NodeAddr querier, const std::vector<RingId>& targets,
                       std::vector<LocalSummary>* out, ReplayOut* res) {
  std::unordered_set<NodeAddr> seen;
  ringdde::ArcCoverageSet covered;
  for (const LocalSummary& s : *out) {
    seen.insert(s.addr);
    covered.Add(s.arc_lo, s.arc_hi);
  }
  for (RingId t : targets) {
    if (covered.Contains(t)) continue;
    const uint64_t bytes0 = ctx.counters.bytes;
    ringdde::Result<LocalSummary> r =
        Timed(tr, "probe", q, [&] { return prober.Probe(ctx, querier, t); });
    if (!r.ok()) continue;
    res->probe_bytes.push_back(ctx.counters.bytes - bytes0);
    // The owner's summary again, as its own call (a part of the probe).
    const ringdde::Node* owner = ring.GetNode(r->addr);
    Timed(tr, "summary", q,
          [&] { return ringdde::ComputeLocalSummary(*owner, kQuantiles); });
    if (seen.insert(r->addr).second) {
      covered.Add(r->arc_lo, r->arc_hi);
      out->push_back(std::move(*r));
    } else {
      for (LocalSummary& s : *out) {
        if (s.addr == r->addr) s = std::move(*r);
      }
      covered.Clear();
      for (const LocalSummary& s : *out) covered.Add(s.arc_lo, s.arc_hi);
    }
  }
}

/// DistributionFreeEstimator::Estimate's protocol, step by step from the
/// same seed: uniform round, reconstruct, inversion-guided rounds.
ReplayOut Replay(Tracer* tr, uint64_t q, ChordRing& ring, NodeAddr querier,
                 uint64_t seed) {
  ReplayOut res;
  const ringdde::DdeOptions opts = EstimatorOptions(seed);
  ringdde::ProbeOptions popts;
  popts.num_quantiles = opts.local_quantiles;
  ringdde::CdfProber prober(&ring, popts);
  ringdde::Rng rng(opts.seed);
  ringdde::CostContext ctx = ring.network().MakeQueryContext(opts.seed);
  const size_t rounds = static_cast<size_t>(opts.refinement_rounds);
  const size_t per_round = opts.num_probes / rounds;
  const size_t first = opts.num_probes - per_round * (rounds - 1);
  std::vector<LocalSummary> summaries;
  std::vector<RingId> targets;
  for (size_t i = 0; i < first; ++i) targets.emplace_back(rng.NextU64());
  ProbeTargetsTimed(tr, q, ring, prober, ctx, querier, targets, &summaries,
                    &res);
  res.recon = Timed(tr, "reconstruct", q, [&] {
    return ringdde::ReconstructGlobalCdf(summaries, opts.reconstruction);
  });
  for (size_t r = 1; r < rounds && per_round > 0 && res.recon.ok(); ++r) {
    const std::vector<double> keys = Timed(tr, "inversion", q, [&] {
      ringdde::InversionSampler sampler(&res.recon->cdf);
      return sampler.SampleStratified(per_round, rng);
    });
    targets.clear();
    for (double k : keys) targets.push_back(RingId::FromUnit(k));
    const size_t before = summaries.size();
    ProbeTargetsTimed(tr, q, ring, prober, ctx, querier, targets, &summaries,
                      &res);
    if (summaries.size() == before) continue;
    res.recon = Timed(tr, "reconstruct", q, [&] {
      return ringdde::ReconstructGlobalCdf(summaries, opts.reconstruction);
    });
  }
  res.peers = summaries.size();
  return res;
}

}  // namespace

Outcome RunTraced(const Args& args) {
  Outcome out;
  CheckLog log;
  Report& rep = out.report;
  Tracer tr(2'000'000);
  const bool wire = args.workload == "wire-serve";
  const size_t peers = wire ? kNodePeers : kRingPeers;
  uint64_t ops = 0;

  // --- Set-up layers: data, ring bulk load, stabilize -------------------------
  // CreateNetwork ends with the ring's StabilizeAll; its span
  // ("ring.create") is the figure reported as ring.stabilize_all_ms.
  InProcessRing dep = BuildRing(peers, &tr);
  ChordRing& ring = *dep.ring;
  ring.PrepareConcurrentReads();
  std::vector<double> sorted = dep.keys;
  std::sort(sorted.begin(), sorted.end());
  const Membership members = MembershipOf(ring);
  SeedStream s(Mix(args.seed, 0x5000));
  ops += 3;

  // --- ring: lookups -------------------------------------------------------------
  Samples lookup_hops;
  for (int i = 0; i < kLookups; ++i, ++ops) {
    const NodeAddr from = members.addrs[s.Below(members.addrs.size())];
    const uint64_t target = s.Next();
    ringdde::CostContext ctx = ring.network().MakeQueryContext(s.Next());
    ringdde::Result<NodeAddr> owner = Timed(&tr, "ring.lookup", i, [&] {
      return ring.Lookup(ctx, from, RingId(target));
    });
    if (!owner.ok() || *owner != members.OwnerOf(target)) {
      log.Fail("traced lookup returned a wrong owner");
    }
    lookup_hops.Add(static_cast<double>(ctx.counters.hops));
  }

  // --- Estimate anatomy: the call, then its replay by stages -------------------------
  Samples untraced_replay_us, traced_replay_us, unattributed_us, final_recon_us,
      peers_per_probe, probe_bytes;
  std::optional<DensityEstimate> last_estimate;  // for the codec phase
  for (int q = 0; q < kAnatomyQueries; ++q, ops += 2) {
    const NodeAddr querier = members.addrs[s.Below(members.addrs.size())];
    const uint64_t seed = s.Next();
    ringdde::DistributionFreeEstimator estimator(&ring, EstimatorOptions(seed));
    const uint32_t est_span = tr.Begin("estimate", 1000 + q);
    ringdde::Result<DensityEstimate> est = estimator.Estimate(querier);
    tr.End(est_span);
    if (est_span == 0) break;  // span buffer full
    if (!est.ok()) {
      log.Fail("traced Estimate: " + est.status().ToString());
      ++out.failed;
      continue;
    }
    // Untraced replay first (the tracer-overhead baseline), then traced.
    const Clock::time_point u0 = Clock::now();
    ReplayOut plain = Replay(nullptr, 0, ring, querier, seed);
    untraced_replay_us.Add(SecondsSince(u0) * 1e6);
    const size_t first_span = tr.spans().size();
    const Clock::time_point t0 = Clock::now();
    ReplayOut traced = Replay(&tr, 1000 + q, ring, querier, seed);
    traced_replay_us.Add(SecondsSince(t0) * 1e6);
    if (!traced.recon.ok() || !plain.recon.ok() ||
        traced.recon->cdf.knots().size() != est->cdf.knots().size() ||
        !std::equal(traced.recon->cdf.knots().begin(),
                    traced.recon->cdf.knots().end(),
                    est->cdf.knots().begin(),
                    [](const auto& a, const auto& b) {
                      return a.x == b.x && a.f == b.f;
                    }) ||
        traced.recon->estimated_total != est->estimated_total_items ||
        traced.peers != est->peers_probed) {
      log.Fail("stage replay diverged from Estimate()");
      continue;
    }
    // Attribute: the estimate's wall time minus its probes (each including
    // the owner's summary) and reconstructions.
    double attributed_us = 0.0, last_recon_us = 0.0;
    const std::vector<Span>& spans = tr.spans();
    for (size_t i = first_span; i < spans.size(); ++i) {
      const double us = static_cast<double>(spans[i].end_ns -
                                            spans[i].start_ns) / 1e3;
      if (std::strcmp(spans[i].name, "probe") == 0) attributed_us += us;
      if (std::strcmp(spans[i].name, "reconstruct") == 0) {
        attributed_us += us;
        last_recon_us = us;
      }
    }
    const Span& whole = spans[est_span - 1];
    unattributed_us.Add(static_cast<double>(whole.end_ns - whole.start_ns) /
                            1e3 -
                        attributed_us);
    final_recon_us.Add(last_recon_us);
    peers_per_probe.Add(static_cast<double>(est->peers_probed) /
                        static_cast<double>(est->probes_requested));
    for (uint64_t b : traced.probe_bytes) probe_bytes.Add(static_cast<double>(b));
    // cdf.inverse: kInverseCalls stratified Inverse() calls in one span.
    const double sink = Timed(&tr, "cdf.inverse", 1000 + q, [&] {
      double sum = 0.0;
      for (int i = 0; i < kInverseCalls; ++i) {
        sum += est->cdf.Inverse((i + 0.5) / kInverseCalls);
      }
      return sum;
    });
    if (!(sink >= 0.0)) log.Fail("Inverse out of range");
    last_estimate = std::move(*est);
  }
  const double overhead_ratio =
      traced_replay_us.Median() / std::max(1e-9, untraced_replay_us.Median());

  // --- sketch: convergecast and merge ---------------------------------------------------
  std::vector<uint8_t> sketch_reply;
  for (int i = 0; i < kSketchRuns; ++i, ++ops) {
    ringdde::SketchAggregationOptions so;
    so.sketch_levels = kSketchLevels;
    so.seed = s.Next();
    ringdde::SketchAggregator agg(&ring, so);
    const NodeAddr querier = members.addrs[s.Below(members.addrs.size())];
    ringdde::Result<DensityEstimate> sk =
        Timed(&tr, "sketch.aggregate", 2000 + i,
              [&] { return agg.Estimate(querier); });
    if (!sk.ok() || !sk->sketch.has_value()) {
      log.Fail("SketchAggregator::Estimate failed");
      ++out.failed;
      continue;
    }
    sketch_reply = EncodeReply(*sk);
  }
  std::vector<ringdde::DensitySketch> parts;
  for (size_t p = 0; p < 64; ++p) {
    // Disjoint strided subsets of the keys: overlapping ranges to merge.
    std::vector<double> part;
    for (size_t i = p; i < sorted.size(); i += 64) part.push_back(sorted[i]);
    parts.push_back(ringdde::DensitySketch::FromSorted(part, kSketchLevels));
  }
  for (int i = 0; i < kMerges; ++i, ++ops) {
    ringdde::DensitySketch acc = parts[static_cast<size_t>(i) % 64];
    const ringdde::DensitySketch& other = parts[(static_cast<size_t>(i) + 1) % 64];
    const ringdde::Status merged = Timed(&tr, "sketch.merge", 3000 + i,
                                         [&] { return acc.Merge(other); });
    if (!merged.ok()) log.Fail("DensitySketch::Merge failed");
  }

  // --- wire: estimate codec --------------------------------------------------------------
  size_t estimate_frame_bytes = 0;
  if (last_estimate.has_value()) {
    const DensityEstimate& e = *last_estimate;
    ringdde::Encoder enc;
    for (int i = 0; i < kCodecRounds; ++i, ops += 2) {
      enc.Clear();
      Timed(&tr, "wire.encode_estimate", 4000 + i, [&] {
        ringdde::EncodeEstimateReply(e, &enc);
        return 0;
      });
      const std::vector<uint8_t> bytes = enc.buffer();
      ringdde::Result<DensityEstimate> back =
          Timed(&tr, "wire.decode_estimate", 4000 + i,
                [&] { return ringdde::DecodeEstimateReply(bytes); });
      if (!back.ok() || EncodeReply(*back) != bytes) {
        log.Fail("estimate reply did not round-trip");
      }
      estimate_frame_bytes = bytes.size() + ringdde::kFrameHeaderBytes;
    }
  }
  const size_t sketch_frame_bytes =
      sketch_reply.size() + ringdde::kFrameHeaderBytes;

  // --- ring + epoch: churn batches with one concurrent epoch reader -------------------
  const ringdde::RingIndex::CacheStats idx0 = ring.index().cache_stats();
  ringdde::SnapshotManager manager(&ring);
  std::vector<double> publish_wall(kChurnBatches + 2, 0.0);
  const Clock::time_point churn_start = Clock::now();
  {
    const std::shared_ptr<const ringdde::EpochView> v0 = manager.Publish();
    publish_wall.resize(v0->sequence() + kChurnBatches + 2, 0.0);
  }
  const ringdde::SnapshotManager::Stats es0 = manager.stats();
  std::atomic<bool> stop{false};
  // (pinned sequence, completion time) per reader estimate; aged against
  // the publish times once the mutator is done.
  std::vector<std::pair<uint64_t, double>> reader_done;
  std::thread reader([&] {
    SeedStream rs(Mix(args.seed, 0x5001));
    while (!stop.load(std::memory_order_acquire)) {
      const std::shared_ptr<const ringdde::EpochView> view = manager.Current();
      ringdde::DistributionFreeEstimator est(view.get(),
                                             EstimatorOptions(rs.Next()));
      ringdde::Result<DensityEstimate> e =
          est.Estimate(view->addrs()[rs.Below(view->size())]);
      if (!e.ok()) {
        log.Fail("epoch estimate failed");
        continue;
      }
      reader_done.emplace_back(view->sequence(), SecondsSince(churn_start));
    }
  });
  // The live-churn batch, on live-churn's schedule.
  ChurnBatcher batcher(&ring, Mix(args.seed, 0x5003), Mix(args.seed, 0x5002));
  std::vector<double> inserted;
  size_t live_views_max = 0;
  for (int b = 0; b < kChurnBatches; ++b) {
    std::this_thread::sleep_until(
        churn_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(kBatchIntervalS * b)));
    out.failed += batcher.Apply(log, &inserted, &tr, 5000 + b);
    ops += 3 * kChurnPerBatch + kInsertsPerBatch + kStabilizePerBatch;
    const std::shared_ptr<const ringdde::EpochView> v =
        Timed(&tr, "epoch.publish", 5000 + b, [&] { return manager.Publish(); });
    ++ops;
    if (v->sequence() < publish_wall.size()) {
      publish_wall[v->sequence()] = SecondsSince(churn_start);
    }
    live_views_max = std::max(live_views_max, manager.live_views());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  ops += reader_done.size();
  Samples staleness_ms;  // age of the pinned epoch when the answer is ready
  for (const auto& [seq, done] : reader_done) {
    if (seq < publish_wall.size()) {
      staleness_ms.Add((done - publish_wall[seq]) * 1e3);
    }
  }
  const ringdde::RingIndex::CacheStats idx1 = ring.index().cache_stats();
  const ringdde::SnapshotManager::Stats es1 = manager.stats();
  const double reused = static_cast<double>(es1.node_views_reused -
                                            es0.node_views_reused);
  const double built =
      static_cast<double>(es1.node_views_built - es0.node_views_built);

  // --- service + rpc: in-process RingRpcService, then over sockets -------------------
  ringdde::RingRpcService service(NodeSpec());
  if (!service.Init().ok()) log.Fail("RingRpcService::Init failed");
  {
    Frame request, reply;
    request.type = static_cast<uint8_t>(RpcType::kInsert);
    ringdde::EncodeInsertSpec(NodeInsert(), &request.payload);
    if (!service.Handle(request, &reply).ok()) {
      log.Fail("service kInsert failed");
    }
  }
  const Membership svc_members = MembershipOf(*service.deployment()->ring);
  std::vector<Frame> probe_frames, estimate_frames, sketch_frames;
  const auto any_peer = [&] {
    return svc_members.addrs[s.Below(svc_members.addrs.size())];
  };
  for (int i = 0; i < kServiceProbes; ++i) {
    const NodeAddr from = any_peer();
    const uint64_t target = s.Next();
    probe_frames.push_back(ProbeFrame(from, target, s.Next()));
  }
  for (int i = 0; i < kServiceEstimates; ++i) {
    const NodeAddr querier = any_peer();
    estimate_frames.push_back(QueryFrame(RpcType::kEstimate, querier, s.Next()));
  }
  for (int i = 0; i < kServiceSketches; ++i) {
    const NodeAddr querier = any_peer();
    sketch_frames.push_back(
        QueryFrame(RpcType::kSketchEstimate, querier, s.Next()));
  }
  {
    // Warm the service (lazy per-node key sorts) before anything is timed.
    Frame reply;
    for (const auto* frames : {&probe_frames, &estimate_frames, &sketch_frames}) {
      for (const Frame& f : *frames) service.Handle(f, &reply);
    }
  }

  ringdde::RpcServer server(
      [&service](const Frame& req, Frame* reply) {
        return service.Handle(req, reply);
      });
  ringdde::RpcServer echo([](const Frame& req, Frame* reply) {
    reply->type = req.type;
    reply->payload = req.payload;
    return ringdde::Status::OK();
  });
  uint64_t connects = 0;
  double allocs_per_rpc = 0.0;
  if (!server.Start().ok() || !echo.Start().ok()) {
    log.Fail("RpcServer::Start failed");
  } else {
    {
      ringdde::MultiplexedRpcChannel ch(server.port());
      // Each request runs through Handle() in-process and over the socket
      // back to back, so the pair sees the same machine state; the order
      // alternates, because the second of the two finds warmer caches.
      const auto pair_all = [&](const std::vector<Frame>& frames,
                                const char* service_name,
                                const char* wire_name, uint64_t qbase) {
        Frame reply;
        for (size_t i = 0; i < frames.size(); ++i, ops += 2) {
          ringdde::Status st = ringdde::Status::OK();
          ringdde::Result<Frame> r = ringdde::Status::Internal("not sent");
          const auto in_process = [&] {
            st = Timed(&tr, service_name, qbase + i,
                       [&] { return service.Handle(frames[i], &reply); });
          };
          const auto on_wire = [&] {
            r = Timed(&tr, wire_name, qbase + i,
                      [&] { return ch.Call(frames[i]); });
          };
          if (i % 2 == 0) {
            in_process();
            on_wire();
          } else {
            on_wire();
            in_process();
          }
          if (!st.ok() || !r.ok() || r->type != frames[i].type ||
              r->payload != reply.payload) {
            log.Fail(std::string(wire_name) +
                     " failed or differs from the in-process reply");
          }
        }
      };
      pair_all(probe_frames, "service.probe", "rpc.probe", 10000);
      pair_all(estimate_frames, "service.estimate", "rpc.estimate", 20000);
      pair_all(sketch_frames, "service.sketch", "rpc.sketch", 30000);
      // Allocations per kProbe RPC, client and server, on a warm channel.
      const uint64_t a0 = AllocCount();
      SetAllocCounting(true);
      for (const Frame& f : probe_frames) {
        if (!ch.Call(f).ok()) log.Fail("kProbe over the socket failed");
      }
      SetAllocCounting(false);
      allocs_per_rpc = static_cast<double>(AllocCount() - a0) /
                       static_cast<double>(probe_frames.size());
      ops += probe_frames.size();
      connects += ch.stats().reconnects;
    }
    {
      ringdde::MultiplexedRpcChannel ch(echo.port());
      Frame ping;
      ping.type = static_cast<uint8_t>(RpcType::kHello);
      ping.payload.assign(256, 0x5A);
      for (int i = 0; i < kEchoCalls; ++i, ++ops) {
        ringdde::Result<Frame> r =
            Timed(&tr, "rpc.echo", 40000 + i, [&] { return ch.Call(ping); });
        if (!r.ok() || r->payload != ping.payload) log.Fail("echo failed");
      }
      connects += ch.stats().reconnects;
    }
  }
  server.Stop();
  echo.Stop();

  // --- Report ---------------------------------------------------------------------------
  const auto med_us = [&](const char* name) {
    return tr.DurationsUs(name).Median();
  };
  const std::string dir = ".bench_out";
  ::mkdir(dir.c_str(), 0755);
  const std::string trace_path =
      Fmt("%s/trace-%s-%llu.csv", dir.c_str(), args.workload.c_str(),
          static_cast<unsigned long long>(args.seed));
  if (!tr.WriteCsv(trace_path)) log.Fail("could not write " + trace_path);
  rep.Detail(Fmt("traced run (%s ring: %zu peers, %zu keys): %zu spans "
                 "(%llu dropped) written to %s",
                 args.workload.c_str(), peers, kKeys, tr.spans().size(),
                 static_cast<unsigned long long>(tr.dropped()),
                 trace_path.c_str()));
  rep.Detail(Fmt("tracer overhead: replay %.1f us traced vs %.1f us "
                 "untraced (median of %zu)",
                 traced_replay_us.Median(), untraced_replay_us.Median(),
                 traced_replay_us.size()));
  for (const std::string& line : tr.SelfTimeTable()) rep.Detail(line);

  const Samples service_probe = tr.DurationsUs("service.probe");
  const Samples service_est = tr.DurationsUs("service.estimate");
  const Samples service_sk = tr.DurationsUs("service.sketch");
  rep.Metric("ring.lookup_us", med_us("ring.lookup"), "us");
  rep.Metric("ring.lookup_hops", lookup_hops.Mean(), "count");
  rep.Metric("ring.join_us", med_us("ring.join"), "us");
  rep.Metric("ring.leave_us", med_us("ring.leave"), "us");
  rep.Metric("ring.insert_key_us", med_us("ring.insert_key"), "us");
  rep.Metric("ring.flat_rebuilds_per_batch",
             static_cast<double>(idx1.flat_rebuilds - idx0.flat_rebuilds) /
                 kChurnBatches,
             "count");
  rep.Metric("ring.insert_bulk_ms", med_us("ring.insert_bulk") / 1e3, "ms");
  rep.Metric("ring.stabilize_all_ms", med_us("ring.create") / 1e3, "ms");
  rep.Metric("epoch.publish_ms", med_us("epoch.publish") / 1e3, "ms");
  rep.Metric("epoch.node_view_reuse", reused / std::max(1.0, reused + built),
             "ratio");
  rep.Metric("epoch.staleness_p99", staleness_ms.P99(), "ms");
  rep.Metric("epoch.live_views_max", static_cast<double>(live_views_max),
             "count");
  rep.Metric("probe.us", med_us("probe"), "us");
  rep.Metric("summary.us", med_us("summary"), "us");
  rep.Metric("probe.bytes", probe_bytes.Mean(), "B");
  rep.Metric("estimate.peers_per_probe", peers_per_probe.Mean(), "ratio");
  rep.Metric("reconstruct.us", final_recon_us.Median(), "us");
  rep.Metric("cdf.inverse_ns", med_us("cdf.inverse") * 1e3 / kInverseCalls,
             "ns");
  rep.Metric("estimate.us", med_us("estimate"), "us");
  rep.Metric("estimate.unattributed_us", unattributed_us.Median(), "us");
  rep.Metric("sketch.aggregate_ms", med_us("sketch.aggregate") / 1e3, "ms");
  rep.Metric("sketch.merge_us", med_us("sketch.merge"), "us");
  rep.Metric("wire.encode_estimate_us", med_us("wire.encode_estimate"), "us");
  rep.Metric("wire.decode_estimate_us", med_us("wire.decode_estimate"), "us");
  rep.Metric("wire.estimate_frame_bytes",
             static_cast<double>(estimate_frame_bytes), "B");
  rep.Metric("wire.sketch_frame_bytes", static_cast<double>(sketch_frame_bytes),
             "B");
  rep.Metric("service.probe_us", service_probe.Median(), "us");
  rep.Metric("service.estimate_us", service_est.Median(), "us");
  rep.Metric("service.sketch_us", service_sk.Median(), "us");
  rep.Metric("rpc.echo_us", med_us("rpc.echo"), "us");
  // Paired per request: span i of service.X and of rpc.X are one request.
  const auto wait_us = [&](const char* wire_name, const Samples& service) {
    const Samples wire = tr.DurationsUs(wire_name);
    Samples diff;
    for (size_t i = 0; i < wire.size() && i < service.size(); ++i) {
      diff.Add(wire.values()[i] - service.values()[i]);
    }
    return diff.Median();
  };
  rep.Metric("rpc.wait_us.probe", wait_us("rpc.probe", service_probe), "us");
  rep.Metric("rpc.wait_us.estimate", wait_us("rpc.estimate", service_est),
             "us");
  rep.Metric("rpc.wait_us.sketch", wait_us("rpc.sketch", service_sk), "us");
  rep.Metric("rpc.allocs_per_rpc", allocs_per_rpc, "count");
  rep.Metric("rpc.reconnects", static_cast<double>(connects), "count");
  rep.Metric("data.generate_ms", med_us("data.generate") / 1e3, "ms");
  rep.Metric("trace.overhead_ratio", overhead_ratio, "ratio");

  out.attempted = ops;
  out.correct = log.ok();
  return out;
}

}  // namespace perfbench
