#include "traced.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/scheduler.h"

namespace wnrs {
namespace perfbench {
namespace {

using serve::RequestKind;

/// Writes of the traced write phase on the read-only workloads (each
/// followed by one read, as in the timed run but shorter).
constexpr size_t kTraceWritePhaseOps = 40;

/// One operation of the replay sequence.
struct Op {
  enum Type { kRead, kWrite } type = kRead;
  serve::WhyNotRequest request;  // kRead
};

/// The replay sequence: the head of the stream (with the churn writer's
/// writes interleaved at its read:write ratio), then one request of each
/// kind the workload does not send on every check pair, then, on the
/// read-only workloads, a short write phase with one read after each
/// write. Every lane sees exactly this sequence.
std::vector<Op> ReplaySequence(const WorkloadSpec& spec, const Inputs& inputs) {
  std::vector<Op> ops;
  const size_t reads = TracedStreamReads(spec);
  const size_t reads_per_write =
      static_cast<size_t>(spec.open_rate / kWriterOpsPerSecond);
  for (size_t i = 0; i < reads; ++i) {
    if (spec.concurrent_writer && i > 0 && i % reads_per_write == 0) {
      ops.push_back({Op::kWrite, {}});
    }
    ops.push_back({Op::kRead, inputs.stream[i]});
  }
  for (size_t k = 0; k < serve::kNumRequestKinds; ++k) {
    const auto kind = static_cast<RequestKind>(k);
    if (std::find(spec.kinds.begin(), spec.kinds.end(), kind) !=
        spec.kinds.end()) {
      continue;
    }
    for (const auto& [q, c] : inputs.check_pairs) {
      ops.push_back({Op::kRead, MakeRequest(kind, q, c)});
    }
  }
  if (!spec.concurrent_writer) {
    for (size_t k = 0; k < kTraceWritePhaseOps; ++k) {
      ops.push_back({Op::kWrite, {}});
      ops.push_back({Op::kRead, inputs.stream[reads + k]});
    }
  }
  return ops;
}

/// An engine built from the same inputs as every other lane; it applies
/// the same writes in the same order, so product ids agree across lanes.
class LaneEngine {
 public:
  LaneEngine(const Inputs& inputs, bool approx)
      : inputs_(inputs), engine_(std::make_unique<WhyNotEngine>(inputs.data)) {
    if (approx) engine_->PrecomputeApproxDsls(kApproxK);
  }

  WhyNotEngine& engine() { return *engine_; }

  /// Applies the next write; returns whether it was an insert.
  bool Write(CorrectnessLog* log) {
    if (!pending_.has_value()) {
      Result<size_t> id = engine_->TryAddProduct(
          inputs_.fresh_products[next_fresh_++ % inputs_.fresh_products.size()]);
      if (!id.ok()) log->Fail("lane insert failed: " + id.status().ToString());
      if (id.ok()) pending_ = id.value();
      return true;
    }
    const Status status = engine_->TryRemoveProduct(*pending_);
    if (!status.ok()) log->Fail("lane delete failed: " + status.ToString());
    pending_.reset();
    return false;
  }

 private:
  const Inputs& inputs_;
  std::unique_ptr<WhyNotEngine> engine_;
  size_t next_fresh_ = 0;
  std::optional<size_t> pending_;
};

/// A lane served over TCP: engine, server, one client.
struct NetLane {
  explicit NetLane(const Inputs& inputs) : lane(inputs, /*approx=*/true) {
    auto started = net::WnrsServer::Start(&lane.engine());
    if (!started.ok()) {
      std::fprintf(stderr, "lane server: %s\n",
                   started.status().ToString().c_str());
      std::exit(1);
    }
    server = std::move(started).value();
    auto connected = net::WnrsClient::Connect("127.0.0.1", server->port());
    if (!connected.ok()) {
      std::fprintf(stderr, "lane client: %s\n",
                   connected.status().ToString().c_str());
      std::exit(1);
    }
    client = std::move(connected).value();
  }
  ~NetLane() {
    client.reset();
    server->Stop();
  }
  NetLane(const NetLane&) = delete;
  NetLane& operator=(const NetLane&) = delete;

  LaneEngine lane;
  std::unique_ptr<net::WnrsServer> server;
  std::unique_ptr<net::WnrsClient> client;
};

struct Span {
  const char* name;
  double start_us;
  double end_us;
  int64_t parent;
  uint64_t request;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int64_t Add(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t parent, uint64_t request) {
    spans_.push_back({name, MicrosBetween(origin_, start),
                      MicrosBetween(origin_, end), parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                    "\"end_us\": %.3f, \"parent\": %lld, \"request\": %llu}\n",
                    i, s.name, s.start_us, s.end_us,
                    static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.request));
      out << line;
    }
    if (!out.good()) std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
  }

  size_t size() const { return spans_.size(); }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

const char* CoreSpanName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kReverseSkyline:
      return "core.rsl";
    case RequestKind::kExplain:
      return "core.explain";
    case RequestKind::kModifyWhyNot:
      return "core.mwp";
    case RequestKind::kModifyQuery:
      return "core.mqp";
    case RequestKind::kSafeRegion:
      return "core.safe_region";
    case RequestKind::kModifyBoth:
      return "core.mwq";
    case RequestKind::kModifyBothApprox:
      return "core.mwq_approx";
  }
  return "core.unknown";
}

QueryStats Capture() { return MetricsRegistry::Default().CaptureQueryStats(); }

/// Per-layer samples of the replay.
struct Ledger {
  std::vector<double> net_call_us, net_self_us, serve_self_us;
  std::vector<double> encode_ns, decode_ns;
  double request_bytes = 0.0, response_bytes = 0.0;
  std::map<RequestKind, std::vector<double>> core_us;
  std::vector<double> rsl_us, candidates_us, window_probe_us, dsl_us,
      safe_region_us;
  std::vector<double> insert_us, delete_us, first_read_after_write_us;
  QueryStats core_reads;   // summed over core-lane reads
  QueryStats core_writes;  // summed over core-lane writes
  QueryStats rsl_lane;     // summed over rsl-lane calls
  uint64_t reads = 0;
  uint64_t writes = 0;
  /// Approx-MWQ reads of the replay, and those answered FailedPrecondition.
  uint64_t approx_reads = 0;
  uint64_t approx_failed_precondition = 0;
};

double NanosOf(Clock::time_point a, Clock::time_point b) {
  return MicrosBetween(a, b) * 1e3;
}

/// The protocol.h work one request costs on both ends, timed here on the
/// same frames: request and response encode, request and response decode.
void TimeCodec(uint64_t id, const serve::WhyNotRequest& request,
               const serve::WhyNotResponse& response, Ledger* ledger,
               CorrectnessLog* log) {
  const Clock::time_point t0 = Clock::now();
  const std::string req = net::EncodeRequestFrame(id, request);
  const Clock::time_point t1 = Clock::now();
  const std::string resp = net::EncodeResponseFrame(id, response);
  const Clock::time_point t2 = Clock::now();
  const auto req_decoded = net::DecodeRequestPayload(
      std::string_view(req).substr(net::kFrameHeaderSize));
  const Clock::time_point t3 = Clock::now();
  const auto resp_decoded = net::DecodeResponsePayload(
      std::string_view(resp).substr(net::kFrameHeaderSize));
  const Clock::time_point t4 = Clock::now();
  ledger->encode_ns.push_back(NanosOf(t0, t1) + NanosOf(t1, t2));
  ledger->decode_ns.push_back(NanosOf(t2, t3) + NanosOf(t3, t4));
  ledger->request_bytes += static_cast<double>(req.size());
  ledger->response_bytes += static_cast<double>(resp.size());
  if (!req_decoded.ok() || !resp_decoded.ok()) {
    log->Fail("protocol round trip failed for request " + std::to_string(id));
  }
}

/// One engine per layer, all built from the same inputs and fed the same
/// sequence, so one lane's cache fills never hide another lane's work.
struct Lanes {
  explicit Lanes(const Inputs& inputs)
      : net(inputs),
        serve_lane(inputs, /*approx=*/true),
        scheduler(&serve_lane.engine()),
        core(inputs, /*approx=*/true),
        rsl(inputs, false),
        candidates(inputs, false),
        window(inputs, false),
        dsl(inputs, false),
        safe_region(inputs, false) {}

  /// Every lane except core, which the caller times on its own.
  std::vector<LaneEngine*> OtherLanes() {
    return {&net.lane, &serve_lane, &rsl, &candidates, &window, &dsl,
            &safe_region};
  }

  NetLane net;
  LaneEngine serve_lane;
  serve::RequestScheduler scheduler;
  LaneEngine core, rsl, candidates, window, dsl, safe_region;
};

/// The lane calls of one step, in layer order.
enum class Step {
  kNet,             // WnrsClient::Call
  kServe,           // RequestScheduler::SubmitAndWait
  kCore,            // EngineSnapshot::Try*
  kRsl,             // TryReverseSkyline
  kCandidates,      // ProbeGlobalSkylineCandidates
  kWindowProbe,     // ProbeWindowEmpty
  kWindowFrontier,  // ProbeWindowFrontier
  kDsl,             // ProbeDynamicSkyline
  kSafeRegion,      // TrySafeRegion
};

struct ReadAnswers {
  std::optional<Result<serve::WhyNotResponse>> wire;
  serve::WhyNotResponse scheduled;
  serve::WhyNotResponse direct;
};

/// Sends one read through every lane; `hook(step, fn)` runs each call.
template <typename Hook>
ReadAnswers ReadThroughLanes(Lanes& lanes, const serve::WhyNotRequest& request,
                             Hook& hook) {
  ReadAnswers out;
  const Point& q = request.q;
  hook(Step::kNet, [&] { out.wire = lanes.net.client->Call(request); });
  hook(Step::kServe,
       [&] { out.scheduled = lanes.scheduler.SubmitAndWait(request); });
  const EngineSnapshot core = lanes.core.engine().Snapshot();
  hook(Step::kCore, [&] { out.direct = DirectAnswer(core, request); });
  const EngineSnapshot rsl = lanes.rsl.engine().Snapshot();
  hook(Step::kRsl, [&] { [[maybe_unused]] auto r = rsl.TryReverseSkyline(q); });
  const EngineSnapshot candidates = lanes.candidates.engine().Snapshot();
  hook(Step::kCandidates, [&] {
    [[maybe_unused]] auto r =
        candidates.ProbeGlobalSkylineCandidates(q, std::nullopt);
  });
  if (UsesCustomer(request.kind)) {
    const EngineSnapshot window = lanes.window.engine().Snapshot();
    const Point& cp = window.customers().points[request.c];
    const auto exclude = static_cast<RStarTree::Id>(request.c);
    hook(Step::kWindowProbe, [&] {
      [[maybe_unused]] bool r = window.ProbeWindowEmpty(cp, q, exclude);
    });
    hook(Step::kWindowFrontier, [&] {
      [[maybe_unused]] auto r = window.ProbeWindowFrontier(cp, q, q, exclude);
    });
    const EngineSnapshot dsl = lanes.dsl.engine().Snapshot();
    hook(Step::kDsl, [&] {
      [[maybe_unused]] auto r = dsl.ProbeDynamicSkyline(cp, exclude);
    });
  }
  if (request.kind == RequestKind::kSafeRegion ||
      request.kind == RequestKind::kModifyBoth) {
    const EngineSnapshot sr = lanes.safe_region.engine().Snapshot();
    hook(Step::kSafeRegion, [&] { [[maybe_unused]] auto r = sr.TrySafeRegion(q); });
  }
  return out;
}

/// Runs a lane call with no instrumentation.
struct NoTrace {
  template <typename Fn>
  void operator()(Step, Fn&& fn) {
    fn();
  }
};

/// Runs a lane call inside a span, with QueryStats deltas on the core and
/// reverse-skyline lanes, and files the duration under its layer.
class TraceHook {
 public:
  TraceHook(Tracer* tracer, Ledger* ledger) : tracer_(tracer), l_(ledger) {}

  void BeginRead(uint64_t id, RequestKind kind) {
    id_ = id;
    kind_ = kind;
  }

  template <typename Fn>
  void operator()(Step step, Fn&& fn) {
    QueryStats* stats = step == Step::kCore  ? &l_->core_reads
                        : step == Step::kRsl ? &l_->rsl_lane
                                             : nullptr;
    const QueryStats s0 = stats != nullptr ? Capture() : QueryStats();
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    if (stats != nullptr) *stats += Capture() - s0;
    Record(step, t0, t1);
  }

  /// Times one write on the core lane.
  void Write(LaneEngine* core, CorrectnessLog* log) {
    const QueryStats s0 = Capture();
    const Clock::time_point t0 = Clock::now();
    const bool insert = core->Write(log);
    const Clock::time_point t1 = Clock::now();
    l_->core_writes += Capture() - s0;
    (insert ? l_->insert_us : l_->delete_us).push_back(MicrosBetween(t0, t1));
    tracer_->Add(insert ? "core.insert" : "core.delete", t0, t1, -1, id_);
    ++l_->writes;
    after_write_ = true;
  }

 private:
  void Record(Step step, Clock::time_point t0, Clock::time_point t1) {
    const double us = MicrosBetween(t0, t1);
    switch (step) {
      case Step::kNet:
        net_span_ = tracer_->Add("net.call", t0, t1, -1, id_);
        net_us_ = us;
        l_->net_call_us.push_back(us);
        return;
      case Step::kServe:
        serve_span_ = tracer_->Add("serve.call", t0, t1, net_span_, id_);
        serve_us_ = us;
        l_->net_self_us.push_back(net_us_ - us);
        return;
      case Step::kCore:
        core_span_ = tracer_->Add(CoreSpanName(kind_), t0, t1, serve_span_, id_);
        l_->serve_self_us.push_back(serve_us_ - us);
        l_->core_us[kind_].push_back(us);
        if (after_write_) l_->first_read_after_write_us.push_back(us);
        after_write_ = false;
        return;
      case Step::kRsl:
        tracer_->Add("reverse_skyline.rsl", t0, t1, core_span_, id_);
        l_->rsl_us.push_back(us);
        return;
      case Step::kCandidates:
        tracer_->Add("reverse_skyline.bbrs_candidates", t0, t1, core_span_, id_);
        l_->candidates_us.push_back(us);
        return;
      case Step::kWindowProbe:
        tracer_->Add("reverse_skyline.window_probe", t0, t1, core_span_, id_);
        l_->window_probe_us.push_back(us);
        return;
      case Step::kWindowFrontier:
        tracer_->Add("reverse_skyline.window_frontier", t0, t1, core_span_, id_);
        return;
      case Step::kDsl:
        tracer_->Add("skyline.dsl", t0, t1, core_span_, id_);
        l_->dsl_us.push_back(us);
        return;
      case Step::kSafeRegion:
        tracer_->Add("skyline.safe_region", t0, t1, core_span_, id_);
        l_->safe_region_us.push_back(us);
        return;
    }
  }

  Tracer* tracer_;
  Ledger* l_;
  uint64_t id_ = 0;
  RequestKind kind_ = RequestKind::kReverseSkyline;
  int64_t net_span_ = -1, serve_span_ = -1, core_span_ = -1;
  double net_us_ = 0.0, serve_us_ = 0.0;
  bool after_write_ = false;
};

void AddKindMetrics(const Ledger& ledger, MetricSink* sink) {
  for (const auto& [kind, samples] : ledger.core_us) {
    const std::string base = std::string("core.") + OpName(kind);
    sink->Set(base + "_p50_us", Percentile(samples, 50), "us", samples.size());
    sink->Set(base + "_p99_us", Percentile(samples, 99), "us", samples.size());
  }
}

double PerRead(uint64_t total, const Ledger& ledger) {
  return Ratio(static_cast<double>(total), static_cast<double>(ledger.reads));
}

/// p99 of a power-of-two histogram, as its bucket's upper bound.
double HistogramP99(const HistogramSnapshot& h) {
  if (h.count == 0) return 0.0;
  const uint64_t target = (h.count * 99 + 99) / 100;
  uint64_t seen = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += h.buckets[i];
    if (seen >= target) {
      return static_cast<double>(HistogramSnapshot::BucketUpperBound(i));
    }
  }
  return 0.0;
}

void AddMetrics(const Ledger& l, const TimedResult& timed, size_t rounds,
                double overhead_us, MetricSink* sink) {
  const uint64_t n = l.reads;
  sink->Set("net.call_p50_us", Percentile(l.net_call_us, 50), "us", n);
  sink->Set("net.self_p50_us", Percentile(l.net_self_us, 50), "us", n);
  sink->Set("net.encode_ns", Percentile(l.encode_ns, 50), "ns", n);
  sink->Set("net.decode_ns", Percentile(l.decode_ns, 50), "ns", n);
  sink->Set("net.request_bytes", Ratio(l.request_bytes, n), "bytes", n);
  sink->Set("net.response_bytes", Ratio(l.response_bytes, n), "bytes", n);
  sink->Set("net.wnrs_client_read_p50_us",
            Percentile(timed.wnrs_client_read_latency_us, 50), "us",
            timed.wnrs_client_read_latency_us.size());

  sink->Set("serve.self_p50_us", Percentile(l.serve_self_us, 50), "us", n);
  const uint64_t waits = timed.queue_wait_us.size();
  sink->Set("serve.queue_wait_p50_us", Percentile(timed.queue_wait_us, 50),
            "us", waits);
  sink->Set("serve.queue_wait_p99_us", Percentile(timed.queue_wait_us, 99),
            "us", waits);
  sink->Set("serve.batch_share_ratio",
            Ratio(static_cast<double>(timed.open_shared_batch),
                  static_cast<double>(timed.open_ok)),
            "fraction", timed.open_ok);
  sink->Set("serve.reject_ratio",
            Ratio(static_cast<double>(timed.open_rejects),
                  static_cast<double>(timed.open_sent)),
            "fraction", timed.open_sent);

  AddKindMetrics(l, sink);
  const QueryStats& c = l.core_reads;
  sink->Set("core.rsl_cache_hit_ratio",
            Ratio(static_cast<double>(c.rsl_cache_hits),
                  static_cast<double>(c.rsl_cache_hits + c.rsl_cache_misses)),
            "fraction", c.rsl_cache_hits + c.rsl_cache_misses);
  sink->Set("core.sr_computed_per_request", PerRead(c.safe_regions_computed, l),
            "count", n);
  sink->Set("core.insert_p50_us", Percentile(l.insert_us, 50), "us",
            l.insert_us.size());
  sink->Set("core.delete_p50_us", Percentile(l.delete_us, 50), "us",
            l.delete_us.size());
  sink->Set("core.first_read_after_write_us",
            Percentile(l.first_read_after_write_us, 50), "us",
            l.first_read_after_write_us.size());

  const QueryStats& r = l.rsl_lane;
  sink->Set("reverse_skyline.rsl_p50_us", Percentile(l.rsl_us, 50), "us",
            l.rsl_us.size());
  sink->Set("reverse_skyline.bbrs_candidates_p50_us",
            Percentile(l.candidates_us, 50), "us", l.candidates_us.size());
  sink->Set("reverse_skyline.window_probe_p50_us",
            Percentile(l.window_probe_us, 50), "us", l.window_probe_us.size());
  sink->Set("reverse_skyline.bbrs_heap_pops_per_rsl",
            Ratio(static_cast<double>(r.bbrs_heap_pops),
                  static_cast<double>(r.rsl_cache_misses)),
            "count", r.rsl_cache_misses);
  sink->Set("reverse_skyline.bbrs_prune_ratio",
            Ratio(static_cast<double>(r.bbrs_pruned_entries),
                  static_cast<double>(r.bbrs_pruned_entries + r.bbrs_heap_pops)),
            "fraction", r.rsl_cache_misses);
  sink->Set("reverse_skyline.window_probes_per_request",
            PerRead(c.window_probes, l), "count", n);

  sink->Set("skyline.dsl_p50_us", Percentile(l.dsl_us, 50), "us",
            l.dsl_us.size());
  sink->Set("skyline.safe_region_p50_us", Percentile(l.safe_region_us, 50),
            "us", l.safe_region_us.size());
  sink->Set("skyline.sr_rects_per_sr",
            Ratio(static_cast<double>(c.safe_region_rects),
                  static_cast<double>(c.safe_regions_computed)),
            "count", c.safe_regions_computed);
  sink->Set("skyline.approx_precompute_s", Median(timed.approx_precompute_s),
            "s", timed.approx_precompute_s.size());

  sink->Set("index.node_reads_per_request", PerRead(c.rtree_node_reads, l),
            "count", n);
  sink->Set("index.build_ms", Median(timed.engine_build_ms), "ms",
            timed.engine_build_ms.size());
  const QueryStats& w = l.core_writes;
  const double writes = static_cast<double>(l.writes);
  sink->Set("index.freeze_ms_per_write",
            Ratio(static_cast<double>(w.packed_freeze_ns) / 1e6, writes), "ms",
            l.writes);
  sink->Set("index.node_writes_per_write",
            Ratio(static_cast<double>(w.rtree_node_writes), writes), "count",
            l.writes);

  sink->Set("geometry.dominance_tests_per_request",
            PerRead(c.bbrs_dominance_tests + c.window_dominance_tests, l),
            "count", n);

  sink->Set("pool.tasks_per_request", PerRead(c.pool_tasks_executed, l),
            "count", n);
  sink->Set("pool.queue_wait_p99_us", HistogramP99(timed.pool_queue_wait),
            "us", timed.pool_queue_wait.count);

  sink->Set("loadgen.read_p50_ms", ReadPercentileMs(timed, rounds, 50), "ms",
            timed.read_latency_us.size());
  sink->Set("loadgen.read_p95_ms", ReadPercentileMs(timed, rounds, 95), "ms",
            timed.read_latency_us.size());
  sink->Set("loadgen.lag_p99_us", Percentile(timed.lag_us, 99), "us",
            timed.lag_us.size());
  sink->Set("loadgen.backlog", static_cast<double>(timed.max_backlog), "count",
            timed.lag_us.size());
  sink->Set("loadgen.closed_p50_us", Percentile(timed.closed_latency_us, 50),
            "us", timed.closed_latency_us.size());

  // The timed reads never ask for Approx-MWQ after a write (a write drops
  // the approx store, so the answer would be FailedPrecondition); the
  // replay does, and this ratio is how often that answer came back.
  sink->Set("errors.mwq_approx_failed_precondition_ratio",
            Ratio(static_cast<double>(l.approx_failed_precondition),
                  static_cast<double>(l.approx_reads)),
            "fraction", l.approx_reads);
  const double attempted = static_cast<double>(timed.ledger.attempted());
  const uint64_t deadline = timed.ledger.CountStatus("DeadlineExceeded");
  sink->Set("errors.deadline_ratio", Ratio(static_cast<double>(deadline), attempted),
            "fraction", timed.ledger.attempted());
  sink->Set("errors.other_ratio",
            Ratio(static_cast<double>(timed.ledger.failed() - deadline), attempted),
            "fraction", timed.ledger.attempted());

  sink->Set("trace.overhead_us_per_request", overhead_us, "us", n);
}

}  // namespace

size_t TracedStreamReads(const WorkloadSpec& spec) {
  if (spec.fresh_queries) return 700;
  return spec.concurrent_writer ? 3000 : 2000;
}

void RunTraced(const WorkloadSpec& spec, const Inputs& inputs,
               const TimedResult& timed, const std::string& span_path,
               MetricSink* sink, CorrectnessLog* log) {
  const std::vector<Op> ops = ReplaySequence(spec, inputs);
  // Two lane sets see the same sequence, interleaved op by op so drift in
  // the host's speed hits both alike: one untraced, one traced.
  Lanes plain(inputs);
  Lanes lanes(inputs);
  NoTrace no_trace;
  Ledger l;
  Tracer tracer(Clock::now());
  TraceHook hook(&tracer, &l);
  double untraced_us = 0.0;
  double traced_us = 0.0;
  size_t naive_checks = 0;
  for (const Op& op : ops) {
    if (op.type == Op::kWrite) {
      plain.core.Write(log);
      for (LaneEngine* lane : plain.OtherLanes()) lane->Write(log);
      hook.Write(&lanes.core, log);
      for (LaneEngine* lane : lanes.OtherLanes()) lane->Write(log);
      continue;
    }
    const serve::WhyNotRequest& request = op.request;
    const uint64_t id = ++l.reads;
    // Alternate which set goes first: the second run of a request finds
    // the host's caches warmer.
    hook.BeginRead(id, request.kind);
    std::optional<ReadAnswers> answers;
    for (int turn = 0; turn < 2; ++turn) {
      const Clock::time_point start = Clock::now();
      if ((turn == 0) == (id % 2 == 0)) {
        ReadThroughLanes(plain, request, no_trace);
        untraced_us += MicrosBetween(start, Clock::now());
      } else {
        answers = ReadThroughLanes(lanes, request, hook);
        traced_us += MicrosBetween(start, Clock::now());
      }
    }

    // Checks, outside the timed part of the replay.
    if (!answers->wire->ok()) {
      log->Fail("traced call failed: " + answers->wire->status().ToString());
      continue;
    }
    const serve::WhyNotResponse& wire = answers->wire->value();
    TimeCodec(id, request, wire, &l, log);
    if (request.kind == RequestKind::kModifyBothApprox) {
      ++l.approx_reads;
      if (answers->direct.status.code() == StatusCode::kFailedPrecondition) {
        ++l.approx_failed_precondition;
      }
    }
    const uint64_t want = ResponseDigest(answers->direct);
    if (ResponseDigest(wire) != want ||
        ResponseDigest(answers->scheduled) != want) {
      log->Fail(std::string("lanes disagree on request ") + std::to_string(id) +
                " (" + OpName(request.kind) + "): wire " +
                wire.status.ToString() + ", direct " +
                answers->direct.status.ToString());
    }
    if (request.kind == RequestKind::kReverseSkyline && naive_checks < 3) {
      ++naive_checks;
      CheckReverseSkylineOracle(lanes.rsl.engine().Snapshot(), request.q, log);
    }
  }
  const double overhead_us =
      Ratio(traced_us - untraced_us, static_cast<double>(l.reads));
  std::printf("trace: %llu reads, %llu writes, %zu spans; replay of the reads "
              "%.1f ms untraced, %.1f ms traced\n",
              static_cast<unsigned long long>(l.reads),
              static_cast<unsigned long long>(l.writes), tracer.size(),
              untraced_us / 1e3, traced_us / 1e3);
  tracer.Write(span_path);
  AddMetrics(l, timed, inputs.layout.rounds, overhead_us, sink);
}

}  // namespace perfbench
}  // namespace wnrs
