// Serving-layer tests: the headline parity guarantee (a request served
// through the online micro-batching pipeline is bit-identical — logits AND
// substrate counters — to the same batch membership run through the offline
// epoch path, across every backend x adjacency layout), per-request failure
// isolation, concurrent-client hammering with a clean mid-flight shutdown
// (ASan/TSan surface), ego-graph expansion semantics, and the api::Session
// counter-accounting parity with the free functions on a pinned context.
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "common/rng.hpp"
#include "core/serving.hpp"
#include "parallel/parallel_for.hpp"

namespace qgtc::core {
namespace {

Dataset serving_dataset() {
  DatasetSpec spec;
  spec.name = "serving-test";
  spec.num_nodes = 1200;
  spec.num_edges = 7200;
  spec.feature_dim = 16;
  spec.num_classes = 4;
  spec.num_clusters = 8;
  spec.seed = 11;
  return generate_dataset(spec);
}

EngineConfig serving_config() {
  EngineConfig cfg;
  cfg.model.kind = gnn::ModelKind::kClusterGCN;
  cfg.model.num_layers = 2;
  cfg.model.in_dim = 16;
  cfg.model.hidden_dim = 16;
  cfg.model.out_dim = 4;
  cfg.model.feat_bits = 3;
  cfg.model.weight_bits = 3;
  cfg.num_partitions = 8;
  cfg.batch_size = 4;  // 2 offline batches of 4 partitions each
  return cfg;
}

// ------------------------------------------------- ego-graph expansion

TEST(ExpandEgo, FanoutZeroReturnsSeedsInOrder) {
  const Dataset ds = serving_dataset();
  const std::vector<i32> seeds{5, 3, 900};
  EXPECT_EQ(expand_ego(ds.graph, seeds, 0), seeds);
}

TEST(ExpandEgo, FanoutGrowsMonotonicallyAndKeepsSeedsFirst) {
  const Dataset ds = serving_dataset();
  const std::vector<i32> seeds{10, 20};
  const auto hop1 = expand_ego(ds.graph, seeds, 1);
  const auto hop2 = expand_ego(ds.graph, seeds, 2);
  ASSERT_GE(hop1.size(), seeds.size());
  ASSERT_GE(hop2.size(), hop1.size());
  // Seeds first, then BFS discovery order; hop2 extends hop1 as a prefix.
  for (std::size_t i = 0; i < seeds.size(); ++i) EXPECT_EQ(hop1[i], seeds[i]);
  for (std::size_t i = 0; i < hop1.size(); ++i) EXPECT_EQ(hop2[i], hop1[i]);
  // No duplicates.
  std::vector<u8> seen(static_cast<std::size_t>(ds.graph.num_nodes()), 0);
  for (const i32 v : hop2) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = 1;
  }
}

TEST(ExpandEgo, MaxNodesTruncatesButKeepsSeeds) {
  const Dataset ds = serving_dataset();
  const std::vector<i32> seeds{1, 2, 3};
  const auto nodes = expand_ego(ds.graph, seeds, 3, /*max_nodes=*/8);
  EXPECT_LE(nodes.size(), 8u);
  ASSERT_GE(nodes.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) EXPECT_EQ(nodes[i], seeds[i]);
}

TEST(ExpandEgo, RejectsBadSeeds) {
  const Dataset ds = serving_dataset();
  EXPECT_THROW(expand_ego(ds.graph, {}, 0), std::invalid_argument);
  EXPECT_THROW(expand_ego(ds.graph, {-1}, 0), std::invalid_argument);
  EXPECT_THROW(expand_ego(ds.graph, {static_cast<i32>(ds.graph.num_nodes())}, 0),
               std::invalid_argument);
  EXPECT_THROW(expand_ego(ds.graph, {4, 4}, 0), std::invalid_argument);
}

// ------------------------------------------------- offline/online parity

/// A randomly malformed request: empty seeds, a negative, out-of-range or
/// duplicate seed among good ones, or a negative fanout or max_nodes.
ServingRequest malformed_request(Rng& rng, i32 num_nodes) {
  ServingRequest req;
  for (int i = 0, k = static_cast<int>(rng.next_in(1, 4)); i < k; ++i) {
    req.seeds.push_back(static_cast<i32>(rng.next_below(
        static_cast<u64>(num_nodes))));
  }
  std::sort(req.seeds.begin(), req.seeds.end());
  req.seeds.erase(std::unique(req.seeds.begin(), req.seeds.end()),
                  req.seeds.end());
  req.fanout = static_cast<int>(rng.next_in(0, 2));
  const auto at = static_cast<std::ptrdiff_t>(rng.next_below(req.seeds.size() + 1));
  switch (rng.next_below(6)) {
    case 0:
      req.seeds.clear();
      break;
    case 1:
      req.seeds.insert(req.seeds.begin() + at,
                       static_cast<i32>(-1 - rng.next_in(0, 1000)));
      break;
    case 2:
      req.seeds.insert(req.seeds.begin() + at,
                       static_cast<i32>(num_nodes + rng.next_in(0, 1000)));
      break;
    case 3:
      req.seeds.insert(req.seeds.begin() + at, req.seeds.front());
      break;
    case 4:
      req.fanout = static_cast<int>(-1 - rng.next_in(0, 5));
      break;
    default:
      req.max_nodes = -1 - rng.next_in(0, 100);
      break;
  }
  return req;
}

// Submits each offline batch's partitions as explicit-node requests (fanout
// 0) with max_batch_requests = partitions-per-batch and an effectively
// infinite wait, so the batcher reproduces the offline batch membership
// deterministically — per-batch quantization then guarantees bit-identical
// logits and identical counter totals. Checks every result and the counter
// totals against the offline epoch (`ref`, `ref_logits`) and returns the
// serving stats. With `malformed`, random malformed requests drawn from it
// are interleaved with the good ones, and each must fail its own future.
ServingStats serve_offline_membership(const Dataset& ds, const EngineConfig& cfg,
                                      const QgtcEngine& offline,
                                      const EngineStats& ref,
                                      const std::vector<MatrixI32>& ref_logits,
                                      int compute_workers,
                                      const std::string& tag,
                                      Rng* malformed = nullptr) {
  ServingPolicy policy;
  policy.max_batch_requests = cfg.batch_size;
  policy.max_batch_nodes = i64{1} << 40;  // only the request count rules
  policy.max_wait_us = i64{60} * 1000 * 1000;
  policy.prepare_workers = 2;
  policy.compute_workers = compute_workers;
  ServingEngine serving(ds, cfg, policy);

  std::vector<std::future<ServingResult>> futures, bad;
  std::vector<std::pair<i64, i64>> origin;  // (offline batch, partition)
  for (i64 b = 0; b < offline.num_batches(); ++b) {
    const SubgraphBatch& batch =
        offline.batch_data()[static_cast<std::size_t>(b)]->batch;
    for (i64 p = 0; p < batch.num_parts(); ++p) {
      ServingRequest req;
      req.fanout = 0;
      req.seeds.assign(batch.nodes.begin() + batch.part_bounds[p],
                       batch.nodes.begin() + batch.part_bounds[p + 1]);
      futures.push_back(serving.submit(std::move(req)));
      origin.emplace_back(b, p);
      while (malformed != nullptr && malformed->next_bool(0.5f)) {
        bad.push_back(serving.submit(
            malformed_request(*malformed, static_cast<i32>(ds.spec.num_nodes))));
      }
    }
  }
  serving.stop();  // flushes any partial trailing micro-batch
  // A malformed request fails its own future and is never admitted, so the
  // good ones still form the offline batches.
  for (auto& f : bad) EXPECT_THROW(f.get(), std::invalid_argument) << tag;

  i64 served_nodes = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const ServingResult res = futures[i].get();
    const auto [b, p] = origin[i];
    const SubgraphBatch& batch =
        offline.batch_data()[static_cast<std::size_t>(b)]->batch;
    // The micro-batch reproduced the offline membership exactly.
    EXPECT_EQ(res.batch_nodes, batch.size()) << tag;
    EXPECT_EQ(res.batch_requests, batch.num_parts()) << tag;
    const i64 r0 = batch.part_bounds[p];
    const i64 r1 = batch.part_bounds[p + 1];
    EXPECT_EQ(static_cast<i64>(res.nodes.size()), r1 - r0) << tag;
    served_nodes += r1 - r0;
    const MatrixI32& ref_b = ref_logits[static_cast<std::size_t>(b)];
    EXPECT_EQ(res.logits.cols(), ref_b.cols()) << tag;
    for (i64 r = r0; r < r1 && res.logits.cols() == ref_b.cols(); ++r) {
      for (i64 c = 0; c < ref_b.cols(); ++c) {
        if (res.logits(r - r0, c) != ref_b(r, c)) {
          ADD_FAILURE() << "logits diverged (" << tag << " batch=" << b
                        << " part=" << p << " row=" << r << " col=" << c << ")";
          return serving.stats();
        }
      }
    }
  }
  const ServingStats st = serving.stats();
  EXPECT_EQ(served_nodes, ref.nodes) << tag;
  EXPECT_EQ(st.requests_completed, static_cast<i64>(futures.size())) << tag;
  EXPECT_EQ(st.requests_admitted, static_cast<i64>(futures.size())) << tag;
  EXPECT_EQ(st.requests_failed, 0) << tag;
  EXPECT_EQ(st.batches_dispatched, offline.num_batches()) << tag;
  // Counter parity: the compute sessions' totals over exactly one epoch of
  // membership equal the offline per-epoch totals.
  EXPECT_EQ(st.bmma_ops, ref.bmma_ops) << tag;
  EXPECT_EQ(st.tiles_jumped, ref.tiles_jumped) << tag;
  EXPECT_EQ(st.gather_edges, ref.gather_edges) << tag;
  return st;
}

TEST(ServingParity, BitIdenticalToOfflineEpochAcrossBackendsAndLayouts) {
  const Dataset ds = serving_dataset();
  for (const auto backend :
       {tcsim::BackendKind::kScalar, tcsim::BackendKind::kSimd,
        tcsim::BackendKind::kBlocked}) {
    for (const bool sparse : {false, true}) {
      EngineConfig cfg = serving_config();
      cfg.backend = backend;
      cfg.mode.adjacency = sparse ? RunMode::Adjacency::kTileSparse
                                  : RunMode::Adjacency::kDenseJump;
      const std::string tag = std::string("backend=") +
                              tcsim::backend_name(backend) +
                              " sparse=" + std::to_string(sparse);

      QgtcEngine offline(ds, cfg);
      std::vector<MatrixI32> ref_logits;
      const EngineStats ref = offline.run_quantized(1, &ref_logits);
      const ServingStats st =
          serve_offline_membership(ds, cfg, offline, ref, ref_logits, 2, tag);
      EXPECT_GT(st.gather_edges, 0) << tag;
      EXPECT_GT(st.packed_bytes, 0) << tag;
    }
  }
}

// Results must not depend on thread counts: serving runs at 1 and 2 compute
// workers, each bit for bit against the offline batch computed at one OpenMP
// thread. With two workers the kernels run serially inside each worker of
// the pipeline's OpenMP team; with one, at the pipeline thread's thread
// count. That thread starts from the process defaults, because libgomp keeps
// omp_set_num_threads and max_active_levels per thread, so the serial runs
// (max_active_levels 0 on the client's thread) check that a client's OpenMP
// setting does not reach the results.
TEST(ServingParity, BitIdenticalAcrossThreadCounts) {
  const Dataset ds = serving_dataset();
  EngineConfig cfg = serving_config();
  cfg.mode.adjacency = RunMode::Adjacency::kTileSparse;
  QgtcEngine offline(ds, cfg);
  const int saved_threads = num_threads();
  const int saved_levels = omp_get_max_active_levels();
  set_num_threads(1);
  std::vector<MatrixI32> ref_logits;
  const EngineStats ref = offline.run_quantized(1, &ref_logits);
  set_num_threads(saved_threads);

  for (const bool serial : {true, false}) {
    for (const int workers : {1, 2}) {
      const std::string tag = std::string(serial ? "serial" : "threaded") +
                              " kernels, " + std::to_string(workers) +
                              " compute workers";
      omp_set_max_active_levels(serial ? 0 : saved_levels);
      (void)serve_offline_membership(ds, cfg, offline, ref, ref_logits,
                                     workers, tag);
      omp_set_max_active_levels(saved_levels);
    }
  }
}

// ------------------------------------------------- failure isolation

TEST(ServingFailure, BadRequestFailsItselfNotTheServer) {
  const Dataset ds = serving_dataset();
  ServingPolicy policy;
  policy.max_wait_us = 500;
  ServingEngine serving(ds, serving_config(), policy);

  // Each malformed request fails its own future at admission, is never
  // admitted, and leaves the server serving the next good request.
  const i32 n = static_cast<i32>(ds.spec.num_nodes);
  const struct {
    const char* what;
    ServingRequest req;
  } bad[] = {
      {"empty seeds", {{}, 0, 0}},
      {"negative seed", {{-3}, 0, 0}},
      {"seed == num_nodes", {{n}, 0, 0}},
      {"seed > num_nodes", {{1, n + 5}, 0, 0}},
      {"duplicate seed", {{7, 7}, 0, 0}},
      {"negative fanout", {{7}, -1, 0}},
      {"negative max_nodes", {{7}, 1, -4}},
  };
  i64 completed = 0;
  for (const auto& b : bad) {
    SCOPED_TRACE(b.what);
    auto fut = serving.submit(b.req);
    EXPECT_THROW(fut.get(), std::invalid_argument);
    EXPECT_EQ(serving.stats().requests_admitted, completed);
    // The server keeps serving afterwards.
    const ServingResult ok = serving.infer({{1, 2, 3}, 1, 0});
    ++completed;
    EXPECT_EQ(ok.logits.cols(), 4);
    EXPECT_GE(ok.nodes.size(), 3u);
  }

  // Including a request whose ego-graph exceeds max_batch_nodes (it
  // dispatches alone).

  ServingPolicy tiny = policy;
  tiny.max_batch_nodes = 2;
  ServingEngine small(ds, serving_config(), tiny);
  const ServingResult big = small.infer({{1, 2, 3, 4, 5}, 0, 0});
  EXPECT_EQ(big.nodes.size(), 5u);
  EXPECT_EQ(big.batch_requests, 1);

  const ServingStats st = serving.stats();
  EXPECT_EQ(st.requests_completed, completed);
  EXPECT_EQ(st.requests_admitted, completed);  // no bad one ever got in
}

// Seeded fuzz of admission: random malformed requests interleaved with the
// offline epoch's good ones. Each malformed future fails alone with
// std::invalid_argument, and every good request stays bit-identical to the
// offline batch (serve_offline_membership checks both).
TEST(ServingFailure, FuzzedMalformedRequestsFailAlone) {
  const Dataset ds = serving_dataset();
  const EngineConfig cfg = serving_config();
  QgtcEngine offline(ds, cfg);
  std::vector<MatrixI32> ref_logits;
  const EngineStats ref = offline.run_quantized(1, &ref_logits);
  for (const u64 seed : {1, 2, 3, 4}) {
    Rng rng(seed);
    (void)serve_offline_membership(ds, cfg, offline, ref, ref_logits, 2,
                                   "seed " + std::to_string(seed), &rng);
  }
}

TEST(ServingFailure, SubmitAfterStopThrows) {
  const Dataset ds = serving_dataset();
  ServingEngine serving(ds, serving_config(), ServingPolicy{});
  serving.stop();
  EXPECT_THROW(serving.submit({{1}, 0, 0}), std::runtime_error);
}

// ------------------------------------------------- concurrent hammering

TEST(ServingConcurrency, HammeringClientsAndMidFlightStopStayClean) {
  const Dataset ds = serving_dataset();
  ServingPolicy policy;
  policy.max_batch_nodes = 512;
  policy.max_batch_requests = 8;
  policy.max_wait_us = 100;
  policy.prepare_workers = 2;
  policy.compute_workers = 2;
  ServingEngine serving(ds, serving_config(), policy);

  constexpr int kClients = 4;
  constexpr int kPerClient = 24;
  std::atomic<int> completed{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<u64>(c) + 17);
      for (int i = 0; i < kPerClient; ++i) {
        ServingRequest req;
        req.fanout = 1;
        req.max_nodes = 64;
        req.seeds = {static_cast<i32>(
            rng.next_below(static_cast<u64>(ds.graph.num_nodes())))};
        try {
          const ServingResult res = serving.infer(std::move(req));
          ASSERT_GE(res.nodes.size(), 1u);
          ASSERT_EQ(res.logits.rows(), static_cast<i64>(res.nodes.size()));
          completed.fetch_add(1);
        } catch (const std::runtime_error&) {
          failed.fetch_add(1);  // raced with stop() below — acceptable
        }
      }
    });
  }
  // Stop mid-flight: every in-flight future must still resolve (value or
  // exception) and every thread must join — no hang, no leak, no race.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  serving.stop();
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(completed.load() + failed.load(), kClients * kPerClient);
  EXPECT_GT(completed.load(), 0);
  // Every admitted request ended one way or the other, including those whose
  // admission push raced with stop().
  const ServingStats st = serving.stats();
  EXPECT_EQ(st.requests_admitted, st.requests_completed + st.requests_failed);
}

// Stage totals are live: perfbench's serving rungs read ServingStats deltas
// while the server runs. One request per micro-batch and one worker per
// stage: each stage adds a micro-batch's time before it takes the next, so
// once the last result is in, the earlier batches' time is in the totals.
TEST(ServingConcurrency, StageBusyTimeGrowsWhileServing) {
  const Dataset ds = serving_dataset();
  ServingPolicy policy;
  policy.max_batch_requests = 1;
  ServingEngine serving(ds, serving_config(), policy);
  (void)serving.infer({{1, 2, 3}, 1, 0});
  const ServingStats before = serving.stats();
  std::vector<std::future<ServingResult>> futures;
  for (i32 s = 0; s < 4; ++s) {
    futures.push_back(serving.submit({{s * 50}, 1, 0}));
  }
  for (auto& f : futures) EXPECT_NO_THROW(f.get());
  const ServingStats after = serving.stats();
  EXPECT_GT(after.prepare_stage.busy_seconds,
            before.prepare_stage.busy_seconds);
  EXPECT_GT(after.compute_stage.busy_seconds,
            before.compute_stage.busy_seconds);
  EXPECT_GT(after.packed_bytes, before.packed_bytes);
  EXPECT_EQ(after.batches_dispatched, before.batches_dispatched + 4);
  serving.stop();
}

// A micro-batch's bookkeeping is done before any of its promises resolve:
// once a client holds every result, one stats() read counts them all.
TEST(ServingConcurrency, CompletedCountIsFinalOnceEveryResultIsIn) {
  const Dataset ds = serving_dataset();
  ServingPolicy policy;
  policy.max_batch_requests = 3;
  policy.compute_workers = 2;
  ServingEngine serving(ds, serving_config(), policy);
  i64 submitted = 0;
  for (int round = 0; round < 4; ++round) {
    std::vector<std::future<ServingResult>> futures;
    for (i32 s = 0; s < 7; ++s) {
      futures.push_back(serving.submit({{s * 40 + round}, 1, 0}));
    }
    submitted += static_cast<i64>(futures.size());
    for (auto& f : futures) EXPECT_NO_THROW(f.get());
    const ServingStats st = serving.stats();
    EXPECT_EQ(st.requests_completed, submitted) << "round " << round;
    EXPECT_EQ(st.requests_failed, 0) << "round " << round;
  }
  serving.stop();
}

// ------------------------------------------------- api::Session parity

TEST(SessionApi, MatchesContextPinnedFreeFunctionsIncludingCounters) {
  Rng rng(23);
  MatrixF a(32, 48), b(48, 24);
  for (i64 i = 0; i < a.size(); ++i) a.data()[i] = rng.next_float(-1.f, 1.f);
  for (i64 i = 0; i < b.size(); ++i) b.data()[i] = rng.next_float(-1.f, 1.f);
  const auto ta = api::BitTensor::to_bit(a, 3, api::BitTensor::Side::kLeft);
  const auto tb = api::BitTensor::to_bit(b, 3, api::BitTensor::Side::kRight);

  for (const auto backend :
       {tcsim::BackendKind::kScalar, tcsim::BackendKind::kSimd,
        tcsim::BackendKind::kBlocked}) {
    const api::Session session(backend);
    const tcsim::ExecutionContext ctx(backend, /*private_counters=*/true);
    BmmOptions pinned;
    pinned.ctx = &ctx;

    // mm_int: identical result, identical private-counter accounting.
    const MatrixI32 via_session = session.mm_int(ta, tb);
    const MatrixI32 via_overload = api::bitMM2Int(ta, tb, pinned);
    EXPECT_EQ(via_session, via_overload);
    EXPECT_EQ(session.counters().bmma_ops, ctx.counters().bmma_ops);
    EXPECT_EQ(session.counters().frag_loads_a, ctx.counters().frag_loads_a);
    EXPECT_EQ(session.counters().frag_stores, ctx.counters().frag_stores);

    // mm_bit: the MmOut{bits, act} spelling against the positional form.
    const api::BitTensor s_bit = session.mm_bit(
        ta, tb, api::MmOut{4, tcsim::Activation::kRelu});
    const api::BitTensor o_bit =
        api::bitMM2Bit(ta, tb, 4, pinned, tcsim::Activation::kRelu);
    EXPECT_EQ(s_bit.to_val(), o_bit.to_val());
    EXPECT_EQ(session.counters().bmma_ops, ctx.counters().bmma_ops);
  }
}

TEST(SessionApi, FreeFunctionsRouteThroughDefaultSession) {
  // The plain free functions must keep their legacy global-counter
  // semantics while delegating through Session::default_session().
  Rng rng(29);
  MatrixF a(16, 32), b(32, 8);
  for (i64 i = 0; i < a.size(); ++i) a.data()[i] = rng.next_float(-1.f, 1.f);
  for (i64 i = 0; i < b.size(); ++i) b.data()[i] = rng.next_float(-1.f, 1.f);
  const auto ta = api::BitTensor::to_bit(a, 2, api::BitTensor::Side::kLeft);
  const auto tb = api::BitTensor::to_bit(b, 2, api::BitTensor::Side::kRight);

  EXPECT_FALSE(api::Session::default_session().context().has_private_counters());
  tcsim::reset_counters();
  const MatrixI32 free_fn = api::bitMM2Int(ta, tb);
  const auto after = tcsim::snapshot_counters();
  EXPECT_GT(after.bmma_ops, 0u);  // accounted globally, as before

  const api::Session session(tcsim::default_backend());
  EXPECT_EQ(free_fn, session.mm_int(ta, tb));
}

}  // namespace
}  // namespace qgtc::core
