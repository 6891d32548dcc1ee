// perfbench — drives the QGTC library through its public API for one
// benchmark workload and reports raw measurements as JSON lines on stdout
// (one object per line, each with an "event" key). run.py reduces them to
// the benchmark's metrics; no statistics beyond sums and medians live here.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans-out FILE] [--inject-mismatch]
//
// Epoch workloads (--trace 0) run to completion on their own. The serving
// workload and every traced run then hold a live ServingEngine and read
// commands from stdin, one per line:
//   rung QPS SECONDS   run one open-loop Poisson rung, print its raw samples
//   finish             stop serving, run the untimed gates, print "end"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/mem.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/engine.hpp"
#include "core/serving.hpp"
#include "kernels/anybit_mm.hpp"
#include "obs/trace.hpp"
#include "parallel/parallel_for.hpp"

namespace {

using namespace qgtc;
using Clock = std::chrono::steady_clock;

constexpr const char* kOffline = "gcn-arxiv-offline";
constexpr const char* kStream = "gin-proteins-stream";
constexpr const char* kServe = "serve-arxiv-poisson";

/// Engine or server constructions per run: at least kSetupMinRepeats and
/// until kSetupMinSeconds have passed (at most kSetupMaxRepeats), so a cheap
/// setup still reports the median of many. setup_s is their median.
constexpr std::size_t kSetupMinRepeats = 3;
constexpr std::size_t kSetupMaxRepeats = 25;
constexpr double kSetupMinSeconds = 1.0;
/// Requests whose expand_ego call the traced run times.
constexpr int kEgoSamples = 2000;

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
  bool inject_mismatch = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = std::stoi(value()) != 0;
    else if (flag == "--spans-out") a.spans_out = value();
    else if (flag == "--inject-mismatch") a.inject_mismatch = true;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload != kOffline && a.workload != kStream && a.workload != kServe) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// ------------------------------------------------------------ output ----

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// One JSON-lines record. Keys and strings are plain identifiers, names and
/// file paths without quotes, so no escaping is needed beyond rejecting them.
class Event {
 public:
  explicit Event(const char* name) { os_ << "{\"event\":\"" << name << '"'; }
  Event& num(const std::string& key, double v) {
    os_ << ",\"" << key << "\":" << json_num(v);
    return *this;
  }
  Event& str(const std::string& key, const std::string& v) {
    QGTC_CHECK(v.find_first_of("\"\\") == std::string::npos,
               "event strings must not need escaping");
    os_ << ",\"" << key << "\":\"" << v << '"';
    return *this;
  }
  Event& arr(const std::string& key, const std::vector<double>& v) {
    os_ << ",\"" << key << "\":[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      os_ << (i ? "," : "") << json_num(v[i]);
    }
    os_ << ']';
    return *this;
  }
  void emit() {
    os_ << '}';
    std::cout << os_.str() << std::endl;
  }

 private:
  std::ostringstream os_;
};

double median(std::vector<double> v) {
  QGTC_CHECK(!v.empty(), "median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Repeats `timed_build` (which returns the seconds its setup took) as the
/// setup constants above say, and returns every duration.
template <typename Fn>
std::vector<double> repeat_setup(Fn&& timed_build) {
  std::vector<double> secs;
  const Timer total;
  while (secs.size() < kSetupMinRepeats ||
         (total.seconds() < kSetupMinSeconds && secs.size() < kSetupMaxRepeats)) {
    secs.push_back(timed_build());
  }
  return secs;
}

// --------------------------------------------------------- workloads ----

bool streaming_workload(const std::string& w) { return w == kStream; }

/// The Table-1 stand-in a workload runs on. The workload seed is XORed into
/// the spec seed, so seed 0 generates exactly the dataset qgtc_cli builds.
DatasetSpec workload_spec(const std::string& w, u64 seed) {
  DatasetSpec spec = table1_spec(streaming_workload(w) ? "Proteins" : "ogbn-arxiv");
  spec.seed ^= seed;
  return spec;
}

/// Fig. 7a (Cluster-GCN, 4-bit, precomputed) for the offline and serving
/// workloads; Fig. 7b (Batched-GIN, 8-bit) on the streaming executor.
core::EngineConfig workload_config(const std::string& w, const DatasetSpec& spec) {
  core::EngineConfig cfg;
  cfg.model.num_layers = 3;
  cfg.model.in_dim = spec.feature_dim;
  cfg.model.out_dim = spec.num_classes;
  cfg.num_partitions = 1500;
  cfg.batch_size = 16;
  cfg.backend = tcsim::BackendKind::kBlocked;
  cfg.inter_batch_threads = 2;
  cfg.cache_budget_bytes = 0;
  if (streaming_workload(w)) {
    cfg.model.kind = gnn::ModelKind::kBatchedGIN;
    cfg.model.hidden_dim = 64;
    cfg.model.feat_bits = cfg.model.weight_bits = 8;
    cfg.mode = core::RunMode::streaming_pipeline(
        /*depth=*/2, /*prepare=*/1, core::RunMode::Adjacency::kTileSparse);
  } else {
    cfg.model.kind = gnn::ModelKind::kClusterGCN;
    cfg.model.hidden_dim = 16;
    cfg.model.feat_bits = cfg.model.weight_bits = 4;
    cfg.mode = core::RunMode::precomputed(core::RunMode::Adjacency::kTileSparse);
  }
  return cfg;
}

/// Stream seed for the `index`-th request stream of a run (splitmix64 of
/// the workload seed), so rungs and replays never reuse one another's draws.
u64 stream_seed(u64 workload_seed, u64 index) {
  u64 z = workload_seed * 0x9e3779b97f4a7c15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// An ego-graph query: 4 distinct random seeds, 1-hop, capped at 512 nodes.
core::ServingRequest random_request(Rng& rng, i64 num_nodes) {
  core::ServingRequest req;
  req.fanout = 1;
  req.max_nodes = 512;
  while (req.seeds.size() < 4) {
    const i32 s = static_cast<i32>(rng.next_below(static_cast<u64>(num_nodes)));
    if (std::find(req.seeds.begin(), req.seeds.end(), s) == req.seeds.end()) {
      req.seeds.push_back(s);
    }
  }
  return req;
}

i64 count_mismatches(const std::vector<MatrixI32>& ref,
                     const std::vector<MatrixI32>& got) {
  i64 bad = ref.size() == got.size() ? 0 : static_cast<i64>(ref.size());
  for (std::size_t i = 0; i < std::min(ref.size(), got.size()); ++i) {
    bad += ref[i] == got[i] ? 0 : 1;
  }
  return bad;
}

/// Flips one logit of the reference: the test hook that proves a mismatch
/// trips the correctness gate.
void corrupt(std::vector<MatrixI32>& ref) {
  QGTC_CHECK(!ref.empty() && ref.front().size() > 0, "no logits to corrupt");
  ref.front()(0, 0) ^= 1;
}

void emit_setup(const std::vector<double>& setup_s, const core::EngineConfig& cfg,
                const Dataset& ds) {
  Event("setup")
      .arr("setup_s", setup_s)
      .str("backend", tcsim::backend(cfg.backend).name())
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .num("nodes", static_cast<double>(ds.spec.num_nodes))
      .emit();
}

void emit_end(i64 attempted, i64 failed, bool counters_ok) {
  Event("end")
      .num("vm_hwm_mb", static_cast<double>(vm_hwm_bytes()) / 1e6)
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("counters_ok", counters_ok ? 1 : 0)
      .emit();
}

// ---------------------------------------------------- epoch workloads ----

/// gcn-arxiv-offline / gin-proteins-stream, untraced: the timed samples are
/// whole QgtcEngine::run_quantized(1) calls.
void run_epochs(const Args& args, const Dataset& ds, const core::EngineConfig& cfg) {
  std::unique_ptr<core::QgtcEngine> engine;
  emit_setup(repeat_setup([&] {
               engine.reset();
               const Timer t;
               engine = std::make_unique<core::QgtcEngine>(ds, cfg);
               return t.seconds();
             }),
             cfg, ds);

  // Correctness reference, once per run on the scalar backend (untimed).
  std::vector<MatrixI32> ref;
  engine->set_execution(tcsim::BackendKind::kScalar, cfg.inter_batch_threads);
  const core::EngineStats ref_stats = engine->run_quantized(1, &ref);
  engine->set_execution(cfg.backend, cfg.inter_batch_threads);
  if (args.inject_mismatch) corrupt(ref);

  // The checked epoch runs before, and outside, the timed samples.
  std::vector<MatrixI32> got;
  const core::EngineStats chk = engine->run_quantized(1, &got);
  const i64 mismatched = count_mismatches(ref, got);
  const bool counters_ok = chk.bmma_ops == ref_stats.bmma_ops &&
                           chk.tiles_jumped == ref_stats.tiles_jumped;

  std::vector<double> call_s;
  i64 failed_calls = 0;
  const Timer window;
  do {
    const Timer t;
    try {
      (void)engine->run_quantized(1);
      call_s.push_back(t.seconds());
    } catch (const std::exception& e) {
      std::cerr << "run_quantized failed: " << e.what() << "\n";
      ++failed_calls;
    }
  } while (window.seconds() < args.seconds);
  Event("epochs")
      .arr("call_s", call_s)
      .num("batches", static_cast<double>(engine->num_batches()))
      .emit();

  const i64 batches = engine->num_batches();
  const i64 calls = static_cast<i64>(call_s.size()) + failed_calls;
  emit_end(batches * (calls + 1), batches * failed_calls + mismatched, counters_ok);
}

// ------------------------------------------------------------ serving ----

/// One open-loop rung: Poisson arrivals at `qps` for `seconds`, sent from
/// this thread on their schedule whatever the server does. Prints every
/// request's scheduled, submit-start and submit-end offsets plus the
/// server's RequestTiming, and the ServingStats delta over the rung.
/// Returns the number of requests sent and how many of them failed.
std::pair<i64, i64> run_rung(core::ServingEngine& server, double qps, double seconds,
                             u64 seed) {
  QGTC_CHECK(qps > 0 && seconds > 0, "rung needs a positive rate and length");
  const i64 n = server.engine().graph().num_nodes();
  Rng rng(seed);
  std::vector<double> sched;
  std::vector<core::ServingRequest> reqs;
  for (double t = 0;;) {
    t += -std::log(1.0 - static_cast<double>(rng.next_float())) / qps;
    if (t >= seconds) break;
    sched.push_back(t);
    reqs.push_back(random_request(rng, n));
  }

  const core::ServingStats before = server.stats();
  const std::size_t count = sched.size();
  std::vector<std::future<core::ServingResult>> futures(count);
  std::vector<double> start(count), end(count);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < count; ++i) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(sched[i])));
    start[i] = seconds_since(t0);
    try {
      futures[i] = server.submit(std::move(reqs[i]));
    } catch (const std::exception& e) {
      std::cerr << "submit failed: " << e.what() << "\n";
    }
    end[i] = seconds_since(t0);
  }

  std::vector<double> total(count, 0.0), queue(count, 0.0), ok(count, 0.0);
  i64 failed = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (!futures[i].valid()) {
      ++failed;
      continue;
    }
    try {
      const core::ServingResult res = futures[i].get();
      total[i] = res.timing.total_seconds;
      queue[i] = res.timing.queue_seconds;
      ok[i] = 1;
    } catch (const std::exception& e) {
      std::cerr << "request failed: " << e.what() << "\n";
    }
    failed += ok[i] == 1 ? 0 : 1;
  }
  const core::ServingStats after = server.stats();
  const auto stage = [](Event& ev, const char* name, const obs::StageBreakdown& a,
                        const obs::StageBreakdown& b) {
    ev.num(std::string(name) + "_busy_s", a.busy_seconds - b.busy_seconds)
        .num(std::string(name) + "_stall_s", a.stall_seconds - b.stall_seconds);
  };
  Event ev("rung");
  ev.num("qps", qps)
      .num("seconds", seconds)
      .arr("sched", sched)
      .arr("start", start)
      .arr("end", end)
      .arr("total", total)
      .arr("queue", queue)
      .arr("ok", ok)
      .num("batches_dispatched",
           static_cast<double>(after.batches_dispatched - before.batches_dispatched))
      .num("dispatches_timeout",
           static_cast<double>(after.dispatches_timeout - before.dispatches_timeout));
  stage(ev, "batcher", after.batcher_stage, before.batcher_stage);
  stage(ev, "prepare", after.prepare_stage, before.prepare_stage);
  stage(ev, "ship", after.ship_stage, before.ship_stage);
  stage(ev, "compute", after.compute_stage, before.compute_stage);
  ev.emit();
  return {static_cast<i64>(count), failed};
}

/// Serves rung commands from stdin until "finish" (or end of input).
/// Returns the number of requests sent and how many of them failed.
std::pair<i64, i64> serve_commands(core::ServingEngine& server, u64 seed) {
  Event("ready").emit();
  i64 sent = 0;
  i64 failed = 0;
  u64 index = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream is(line);
    std::string cmd;
    is >> cmd;
    if (cmd == "finish") break;
    double qps = 0;
    double secs = 0;
    if (cmd != "rung" || !(is >> qps >> secs)) {
      throw std::invalid_argument("unknown command: " + line);
    }
    const auto [n, bad] = run_rung(server, qps, secs, stream_seed(seed, ++index));
    sent += n;
    failed += bad;
  }
  server.stop();
  return {sent, failed};
}

/// The serving gate: replays every offline batch membership through a
/// server and compares each request's logits bit for bit (and the summed
/// tile counters) against the offline epoch on the scalar backend.
/// prepare_input quantizes per batch, so only a membership-matched replay
/// has a bitwise reference. Each batch's non-empty partitions are submitted
/// together and awaited before the next batch: a full batch dispatches on
/// the request count, one with empty partitions on the max_wait flush.
struct ParityResult {
  i64 requests = 0;
  i64 mismatched = 0;
  bool counters_ok = false;
};

ParityResult serving_parity(const Dataset& ds, const core::EngineConfig& cfg,
                            bool inject_mismatch) {
  core::EngineConfig ref_cfg = cfg;
  ref_cfg.backend = tcsim::BackendKind::kScalar;
  ref_cfg.mode = core::RunMode::precomputed(cfg.mode.adjacency);
  core::QgtcEngine offline(ds, ref_cfg);
  std::vector<MatrixI32> ref;
  const core::EngineStats ref_stats = offline.run_quantized(1, &ref);
  if (inject_mismatch) corrupt(ref);

  core::ServingPolicy policy;
  policy.max_batch_requests = cfg.batch_size;
  policy.max_batch_nodes = i64{1} << 40;  // request count alone dispatches
  policy.max_wait_us = 100 * 1000;
  core::ServingEngine server(ds, cfg, policy);

  ParityResult r;
  for (std::size_t b = 0; b < offline.batch_data().size(); ++b) {
    const SubgraphBatch& batch = offline.batch_data()[b]->batch;
    std::vector<std::future<core::ServingResult>> futures;
    std::vector<std::pair<i64, i64>> rows;  // first offline row, row count
    for (i64 p = 0; p < batch.num_parts(); ++p) {
      if (batch.part_bounds[p] == batch.part_bounds[p + 1]) continue;
      core::ServingRequest req;
      req.seeds.assign(batch.nodes.begin() + batch.part_bounds[p],
                       batch.nodes.begin() + batch.part_bounds[p + 1]);
      rows.emplace_back(batch.part_bounds[p],
                        batch.part_bounds[p + 1] - batch.part_bounds[p]);
      futures.push_back(server.submit(std::move(req)));
    }
    const MatrixI32& want = ref[b];
    for (std::size_t i = 0; i < futures.size(); ++i) {
      bool same = false;
      try {
        const core::ServingResult res = futures[i].get();
        const auto [row0, count] = rows[i];
        same = res.batch_requests == static_cast<i64>(futures.size()) &&
               res.logits.rows() == count && res.logits.cols() == want.cols();
        for (i64 row = 0; same && row < count; ++row) {
          same = std::memcmp(&res.logits(row, 0), &want(row0 + row, 0),
                             static_cast<std::size_t>(want.cols()) * sizeof(i32)) == 0;
        }
      } catch (const std::exception& e) {
        std::cerr << "parity request failed: " << e.what() << "\n";
      }
      ++r.requests;
      r.mismatched += same ? 0 : 1;
    }
  }
  server.stop();
  const core::ServingStats st = server.stats();
  r.counters_ok = st.bmma_ops == ref_stats.bmma_ops &&
                  st.tiles_jumped == ref_stats.tiles_jumped;
  return r;
}

void run_serve(const Args& args, const Dataset& ds, const core::EngineConfig& cfg) {
  std::unique_ptr<core::ServingEngine> server;
  emit_setup(repeat_setup([&] {
               server.reset();
               const Timer t;
               server = std::make_unique<core::ServingEngine>(ds, cfg, core::ServingPolicy{});
               return t.seconds();
             }),
             cfg, ds);
  const auto [sent, failed] = serve_commands(*server, args.seed);
  // Peak RSS is read before the untimed parity phase builds its own engines.
  const double hwm_mb = static_cast<double>(vm_hwm_bytes()) / 1e6;
  server.reset();
  const ParityResult parity = serving_parity(ds, cfg, args.inject_mismatch);
  Event("parity")
      .num("requests", static_cast<double>(parity.requests))
      .num("mismatched", static_cast<double>(parity.mismatched))
      .emit();
  Event("end")
      .num("vm_hwm_mb", hwm_mb)
      .num("attempted", static_cast<double>(sent + parity.requests))
      .num("failed", static_cast<double>(failed + parity.mismatched))
      .num("counters_ok", parity.counters_ok ? 1 : 0)
      .emit();
}

// ------------------------------------------------------------- traced ----

/// The benchmark's own span log: single-threaded, in memory, written out
/// once at the end. Times are seconds since the log was created.
class SpanLog {
 public:
  int begin(const char* name, i64 id, int parent) {
    spans_.push_back({name, id, parent, seconds_since(t0_), -1.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Ends span `idx` and returns its duration in seconds.
  double end(int idx) {
    Span& s = spans_[static_cast<std::size_t>(idx)];
    s.t1 = seconds_since(t0_);
    return s.t1 - s.t0;
  }
  void write(const std::string& path) const {
    std::ofstream os(path);
    QGTC_CHECK(os.good(), "cannot open span output " + path);
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "[\"" << s.name << "\"," << s.id << ","
         << s.parent << "," << json_num(s.t0) << "," << json_num(s.t1) << "]";
    }
    os << "\n]\n";
  }

 private:
  struct Span {
    const char* name;
    i64 id;
    int parent;
    double t0, t1;
  };
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
};

/// Times `fn` as span `name` under `parent`; adds the duration to `*sum`.
template <typename Fn>
void timed(SpanLog& log, const char* name, i64 id, int parent, double* sum, Fn&& fn) {
  const int s = log.begin(name, id, parent);
  fn();
  *sum += log.end(s);
}

/// Single-thread tile-MMA rate of `backend` on 8-bit operands with no zero
/// tile: the better of the update kernel (dense x dense) and the aggregation
/// kernel over a tile-CSR that stores every tile.
double peak_tile_mma_per_s(tcsim::BackendKind backend) {
  constexpr int kBits = 8;
  Rng rng(12345);
  const auto random_codes = [&rng](i64 rows, i64 cols, int bits) {
    MatrixI32 m(rows, cols);
    for (i64 i = 0; i < m.size(); ++i) {
      m.data()[i] = static_cast<i32>(rng.next_below(u64{1} << bits));
    }
    return m;
  };
  const StackedBitTensor a = StackedBitTensor::decompose(
      random_codes(256, 1024, kBits), kBits, BitLayout::kRowMajorK, PadPolicy::kTile8);
  const StackedBitTensor b = StackedBitTensor::decompose(
      random_codes(1024, 64, kBits), kBits, BitLayout::kColMajorK, PadPolicy::kTile8);
  const TileSparseBitMatrix adj = TileSparseBitMatrix::from_bit_matrix(
      StackedBitTensor::decompose(random_codes(1024, 1024, 1), 1, BitLayout::kRowMajorK,
                                  PadPolicy::kTile8)
          .plane(0));
  QGTC_CHECK(adj.nnz_tiles() == adj.total_tiles(), "peak operand has a zero tile");

  const auto rate = [&](auto&& call) {
    tcsim::ExecutionContext ctx(backend, /*private_counters=*/true);
    BmmOptions opt;
    opt.ctx = &ctx;
    call(opt);  // warm-up
    ctx.reset_counters();
    const Timer t;
    do call(opt);
    while (t.seconds() < 0.3);
    return static_cast<double>(ctx.counters().bmma_ops) / t.seconds();
  };
  const double upd = rate([&](const BmmOptions& o) { (void)bitmm_fused_int(a, b, {}, o); });
  const double agg = rate([&](const BmmOptions& o) {
    (void)aggregate_1bit(adj, b, ReuseMode::kCrossTile, o);
  });
  return std::max(upd, agg);
}

void add_stage(Event& ev, const std::string& prefix, const obs::StageBreakdown& s) {
  ev.num(prefix + ".busy_ms", s.busy_seconds * 1e3);
  ev.num(prefix + ".stall_ms", s.stall_seconds * 1e3);
}

/// Traced run (--trace 1), the same sequence for every workload on its own
/// dataset and config: engine counters and obs overhead on the workload's
/// executor, a pipeline epoch on its streaming twin, a one-call-at-a-time
/// replay of every batch through the per-layer entry points, and (through
/// the rung commands) the serving twin at the reference rate.
void run_trace(const Args& args, const Dataset& ds, const core::EngineConfig& cfg) {
  SpanLog log;
  Event v("layers");
  i64 attempted = 0;
  i64 failed = 0;

  std::vector<SubgraphBatch> batches;
  v.num("graph.partition_s", median(repeat_setup([&] {
          const Timer t;
          batches = core::make_epoch_batches(ds.graph, cfg);
          return t.seconds();
        })));

  core::QgtcEngine engine(ds, cfg);
  emit_setup({}, cfg, ds);
  std::vector<MatrixI32> ref;
  engine.set_execution(tcsim::BackendKind::kScalar, cfg.inter_batch_threads);
  const core::EngineStats ref_stats = engine.run_quantized(1, &ref);
  engine.set_execution(cfg.backend, cfg.inter_batch_threads);
  if (args.inject_mismatch) corrupt(ref);

  std::vector<MatrixI32> got;
  const core::EngineStats chk = engine.run_quantized(1, &got);
  attempted += engine.num_batches();
  failed += count_mismatches(ref, got);
  const bool counters_ok = chk.bmma_ops == ref_stats.bmma_ops &&
                           chk.tiles_jumped == ref_stats.tiles_jumped;
  v.num("kernels.tile_mma", static_cast<double>(chk.bmma_ops));
  v.num("kernels.tiles_jumped", static_cast<double>(chk.tiles_jumped));
  v.num("kernels.jump_share", static_cast<double>(chk.tiles_jumped) /
                                  static_cast<double>(chk.tiles_jumped + chk.bmma_ops));
  v.num("gnn.int32_mb_avoided", static_cast<double>(chk.int32_bytes_avoided) / 1e6);

  // obs: library span tracing off vs on, alternating, over whole calls.
  std::vector<double> off_s, on_s;
  for (int k = 0; k < 4; ++k) {
    for (const bool on : {false, true}) {
      if (on) obs::SpanSink::instance().enable();
      const Timer t;
      (void)engine.run_quantized(1);
      (on ? on_s : off_s).push_back(t.seconds());
      obs::SpanSink::instance().disable();
      obs::SpanSink::instance().clear();
    }
  }
  const double epoch_p50 = median(off_s);
  v.num("obs.trace_overhead_pct", (median(on_s) / epoch_p50 - 1.0) * 100.0);

  std::vector<double> fp32_s;
  for (int k = 0; k < 3; ++k) {
    const Timer t;
    (void)engine.run_fp32(1);
    fp32_s.push_back(t.seconds());
  }
  v.num("baselines.fp32_epoch_ms", median(fp32_s) * 1e3);
  v.num("baselines.speedup_vs_fp32", median(fp32_s) / epoch_p50);

  // core pipeline: the workload's own streaming epoch, or a streaming twin.
  core::EngineStats ps;
  if (cfg.mode.streaming()) {
    ps = engine.run_quantized(1);
  } else {
    core::EngineConfig scfg = cfg;
    scfg.mode = core::RunMode::streaming_pipeline(2, 1, cfg.mode.adjacency);
    core::QgtcEngine twin(ds, scfg);
    ps = twin.run_quantized(1);
  }
  add_stage(v, "pipeline.prepare", ps.stage_breakdown.prepare);
  add_stage(v, "pipeline.ship", ps.stage_breakdown.ship);
  add_stage(v, "pipeline.compute", ps.stage_breakdown.compute);
  v.num("pipeline.peak_prepared_mb", static_cast<double>(ps.peak_prepared_bytes) / 1e6);
  v.num("transfer.exposed_ms", ps.exposed_transfer_seconds * 1e3);

  // Replay: every batch, one public call at a time, on one thread.
  const int saved_threads = num_threads();
  set_num_threads(1);
  const gnn::QgtcModel& model = engine.model();
  const gnn::GnnConfig& mc = model.config();
  const bool gcn = mc.kind == gnn::ModelKind::kClusterGCN;
  const MatrixF& w1 = model.weights().front().w;
  const StackedBitTensor w1_planes = StackedBitTensor::decompose(
      quantize_matrix(w1, quant_params_from_data(w1, mc.weight_bits)), mc.weight_bits,
      BitLayout::kColMajorK, PadPolicy::kTile8);
  tcsim::ExecutionContext fwd_ctx(cfg.backend, true), agg_ctx(cfg.backend, true),
      upd_ctx(cfg.backend, true);
  BmmOptions agg_opt, upd_opt;
  agg_opt.ctx = &agg_ctx;
  upd_opt.ctx = &upd_ctx;
  transfer::StagingBuffer slot;
  const transfer::PcieModel pcie;
  double prepare_s = 0, quantize_s = 0, pack_s = 0, forward_s = 0, fp32_fwd_s = 0,
         agg_s = 0, upd_s = 0, wire_s = 0;
  i64 packed_bytes = 0, nnz_tiles = 0, total_tiles = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const i64 id = static_cast<i64>(i);
    const int root = log.begin("batch", id, -1);
    core::QgtcEngine::BatchData bd;
    timed(log, "graph.prepare", id, root, &prepare_s, [&] {
      static_cast<PreparedBatch&>(bd) =
          prepare_batch_data(ds.graph, ds.features, batches[i], cfg.mode.sparse_adj(),
                             /*add_self_loops=*/true, /*build_fp32_csr=*/false);
    });
    timed(log, "bittensor.quantize", id, root, &quantize_s,
          [&] { bd.x_planes = model.prepare_input(bd.features); });
    timed(log, "transfer.pack", id, root, &pack_s, [&] {
      const transfer::PackedSubgraph p =
          core::pack_prepared_batch(bd, cfg.mode.sparse_adj(), slot, pcie);
      packed_bytes += p.total_bytes;
      wire_s += p.modeled_seconds;
    });
    MatrixI32 logits;
    timed(log, "gnn.forward", id, root, &forward_s, [&] {
      logits = model.forward_prepared(bd.adj_tiles, bd.x_planes, nullptr, &fwd_ctx);
    });
    ++attempted;
    failed += logits == ref[i] ? 0 : 1;

    const CsrGraph local = build_batch_csr(ds.graph, batches[i]);
    timed(log, "baselines.fp32_forward", id, root, &fp32_fwd_s,
          [&] { (void)model.forward_fp32(local, bd.features); });

    // Layer-1 kernel operands in both layouts (untimed).
    const MatrixI32 xq = quantize_matrix(
        bd.features, quant_params_from_data(bd.features, mc.feat_bits));
    const StackedBitTensor x_other = StackedBitTensor::decompose(
        xq, mc.feat_bits, gcn ? BitLayout::kRowMajorK : BitLayout::kColMajorK,
        PadPolicy::kTile8);
    const StackedBitTensor& x_col = gcn ? bd.x_planes : x_other;
    const StackedBitTensor& x_row = gcn ? x_other : bd.x_planes;
    timed(log, "kernels.aggregate", id, root, &agg_s, [&] {
      (void)aggregate_1bit(bd.adj_tiles, x_col, ReuseMode::kCrossTile, agg_opt);
    });
    timed(log, "kernels.update", id, root, &upd_s,
          [&] { (void)bitmm_fused_int(x_row, w1_planes, {}, upd_opt); });
    nnz_tiles += bd.adj_tiles.nnz_tiles();
    total_tiles += bd.adj_tiles.total_tiles();
    log.end(root);
  }
  const double nb = static_cast<double>(batches.size());
  v.num("graph.prepare_ms", prepare_s / nb * 1e3);
  v.num("bittensor.quantize_ms", quantize_s / nb * 1e3);
  v.num("bittensor.nonzero_tile_ratio",
        static_cast<double>(nnz_tiles) / static_cast<double>(total_tiles));
  v.num("transfer.pack_ms", pack_s / nb * 1e3);
  v.num("transfer.packed_mb", static_cast<double>(packed_bytes) / 1e6);
  v.num("transfer.wire_ms", wire_s * 1e3);
  v.num("gnn.forward_ms", forward_s / nb * 1e3);
  v.num("baselines.fp32_forward_ms", fp32_fwd_s / nb * 1e3);
  const double agg_rate = static_cast<double>(agg_ctx.counters().bmma_ops) / agg_s;
  const double upd_rate = static_cast<double>(upd_ctx.counters().bmma_ops) / upd_s;
  const double peak = peak_tile_mma_per_s(cfg.backend);
  v.num("kernels.agg_tile_mma_per_s", agg_rate);
  v.num("kernels.upd_tile_mma_per_s", upd_rate);
  v.num("tcsim.peak_tile_mma_per_s", peak);
  v.num("kernels.agg_frac_peak", agg_rate / peak);
  v.num("kernels.upd_frac_peak", upd_rate / peak);

  // graph.expand_ego on the same request shape the serving client sends.
  Rng rng(stream_seed(args.seed, 0));
  double ego_s = 0;
  for (i64 r = 0; r < kEgoSamples; ++r) {
    const core::ServingRequest req = random_request(rng, ds.spec.num_nodes);
    timed(log, "graph.expand_ego", r, -1, &ego_s,
          [&] { (void)expand_ego(ds.graph, req.seeds, req.fanout, req.max_nodes); });
  }
  v.num("graph.expand_ego_us", ego_s / kEgoSamples * 1e6);
  set_num_threads(saved_threads);
  v.emit();

  core::ServingEngine server(ds, cfg, core::ServingPolicy{});
  const auto [sent, req_failed] = serve_commands(server, args.seed);
  if (!args.spans_out.empty()) log.write(args.spans_out);
  emit_end(attempted + sent, failed + req_failed, counters_ok);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const DatasetSpec spec = workload_spec(args.workload, args.seed);
    const Dataset ds = generate_dataset(spec);
    const core::EngineConfig cfg = workload_config(args.workload, spec);
    if (args.trace) {
      run_trace(args, ds, cfg);
    } else if (args.workload == kServe) {
      run_serve(args, ds, cfg);
    } else {
      run_epochs(args, ds, cfg);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
