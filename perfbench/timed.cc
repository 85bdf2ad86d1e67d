#include "timed.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "load_client.h"
#include "net/client.h"
#include "net/server.h"

namespace wnrs {
namespace perfbench {
namespace {

/// Every n-th stream request answered OK in the read-only timed phases is
/// re-answered directly afterwards and compared bit for bit.
constexpr size_t kDigestStride = 32;
/// Warm-up requests (untimed) before the closed loop.
constexpr size_t kWarmupRequests = 96;
/// The closed loop stops early if it exhausts its share of a round's
/// slice, sized for this many times the open-loop rate.
constexpr double kClosedHeadroom = 16.0;
/// The net::WnrsClient probe of a traced run: requests and send rate.
constexpr size_t kProbeRequests = 400;
constexpr double kProbeRate = 200.0;

struct Served {
  std::unique_ptr<WhyNotEngine> engine;
  std::unique_ptr<net::WnrsServer> server;
};

Served SetUp(const Dataset& data, TimedResult* result) {
  Dataset copy = data;
  Served served;
  const Clock::time_point t0 = Clock::now();
  served.engine = std::make_unique<WhyNotEngine>(std::move(copy));
  const Clock::time_point t_built = Clock::now();
  served.engine->PrecomputeApproxDsls(kApproxK);
  const Clock::time_point t_approx = Clock::now();
  auto started = net::WnrsServer::Start(served.engine.get());
  const Clock::time_point t1 = Clock::now();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.status().ToString().c_str());
    std::exit(1);
  }
  served.server = std::move(started).value();
  result->setup_s.push_back(MicrosBetween(t0, t1) / 1e6);
  result->engine_build_ms.push_back(MicrosBetween(t0, t_built) / 1e3);
  result->approx_precompute_s.push_back(MicrosBetween(t_built, t_approx) / 1e6);
  return served;
}

std::unique_ptr<LoadClient> ConnectOrDie(const net::WnrsServer& server) {
  auto client = LoadClient::Connect(server.port());
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(client).value();
}

void RecordFailure(const serve::WhyNotResponse& response,
                   FailureLedger* ledger) {
  ledger->Fail(OpName(response.kind), StatusCodeName(response.status.code()));
}

/// Digests of sampled OK responses, keyed by stream index.
using DigestSamples = std::vector<std::pair<size_t, uint64_t>>;

void MaybeSample(size_t stream_index, const serve::WhyNotResponse& response,
                 bool sample, DigestSamples* samples) {
  if (sample && stream_index % kDigestStride == 0 && response.status.ok()) {
    samples->emplace_back(stream_index, ResponseDigest(response));
  }
}

/// One closed-loop segment on one connection from one thread: keeps
/// kClosedLoopWindow requests outstanding until `duration_s` has passed,
/// then drains. Returns the segment's length in seconds.
double ClosedLoop(LoadClient* client, const Inputs& inputs, size_t* cursor,
                  size_t end, double duration_s, bool sample,
                  TimedResult* result, DigestSamples* samples) {
  struct Outstanding {
    uint64_t id;
    size_t stream_index;
    Clock::time_point sent;
  };
  std::deque<Outstanding> outstanding;
  uint64_t next_id = 1;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(duration_s));
  auto send_next = [&]() {
    if (*cursor >= end) return;
    const size_t index = (*cursor)++;
    result->closed_ledger.Attempt();
    if (!client->Send(next_id, inputs.stream[index]).ok()) {
      result->closed_ledger.Fail(OpName(inputs.stream[index].kind), "IoError");
      return;
    }
    outstanding.push_back({next_id++, index, Clock::now()});
  };
  for (size_t i = 0; i < kClosedLoopWindow; ++i) send_next();
  Clock::time_point last = start;
  while (!outstanding.empty()) {
    auto frame = client->Receive();
    last = Clock::now();
    const Outstanding head = outstanding.front();
    outstanding.pop_front();
    if (!frame.ok() || frame.value().request_id != head.id) {
      result->closed_ledger.Fail(OpName(inputs.stream[head.stream_index].kind),
                                 frame.ok() ? "MismatchedId" : "IoError");
      for (const Outstanding& o : outstanding) {
        result->closed_ledger.Fail(OpName(inputs.stream[o.stream_index].kind),
                                   "Missing");
      }
      break;
    }
    const serve::WhyNotResponse& response = frame.value().response;
    if (response.status.ok()) {
      ++result->closed_ok;
      result->closed_latency_us.push_back(MicrosBetween(head.sent, last));
    } else {
      RecordFailure(response, &result->closed_ledger);
    }
    MaybeSample(head.stream_index, response, sample, samples);
    if (last < stop) send_next();
  }
  if (*cursor >= end) {
    std::printf("note: a closed-loop segment used its whole share of the stream\n");
  }
  return MicrosBetween(start, last) / 1e6;
}

/// One open-loop segment on a fresh connection of `client`'s type
/// (LoadClient or net::WnrsClient): this thread sends on a fixed schedule,
/// a reader thread receives. Latency runs from the scheduled send time.
template <typename Client>
void OpenLoop(std::unique_ptr<Client> client, const Inputs& inputs,
              size_t first, size_t n, double rate, size_t round, bool sample,
              TimedResult* result, DigestSamples* samples) {
  std::vector<Clock::time_point> scheduled(n);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < n; ++i) {
    scheduled[i] = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   static_cast<double>(i) / rate));
  }

  std::atomic<uint64_t> received{0};
  FailureLedger reader_ledger;
  DigestSamples reader_samples;
  std::thread reader([&] {
    while (true) {
      auto frame = client->Receive();
      if (!frame.ok()) break;  // EOF after the last owed response
      const Clock::time_point now = Clock::now();
      received.fetch_add(1, std::memory_order_relaxed);
      const uint64_t id = frame.value().request_id;
      if (id == 0 || id > n) {
        reader_ledger.Fail("unknown", "MismatchedId");
        continue;
      }
      const serve::WhyNotResponse& response = frame.value().response;
      if (response.status.ok()) {
        ++result->open_ok;
        result->read_latency_us.push_back(MicrosBetween(scheduled[id - 1], now));
        result->read_round.push_back(round);
        result->queue_wait_us.push_back(
            static_cast<double>(response.queue_wait.count()));
        if (response.shared_batch) ++result->open_shared_batch;
      } else {
        if (response.status.code() == StatusCode::kResourceExhausted) {
          ++result->open_rejects;
        }
        RecordFailure(response, &reader_ledger);
      }
      MaybeSample(first + id - 1, response, sample, &reader_samples);
    }
  });

  uint64_t sent = 0;
  result->lag_us.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(scheduled[i]);
    const Clock::time_point now = Clock::now();
    result->lag_us.push_back(MicrosBetween(scheduled[i], now));
    const uint64_t backlog = sent - received.load(std::memory_order_relaxed);
    result->max_backlog = std::max(result->max_backlog, backlog);
    result->ledger.Attempt();
    if (!client->Send(i + 1, inputs.stream[first + i]).ok()) {
      result->ledger.Fail(OpName(inputs.stream[first + i].kind), "IoError");
      break;
    }
    ++sent;
  }
  client->FinishSending();
  reader.join();
  result->open_sent += sent;
  const uint64_t got = received.load();
  for (uint64_t i = got; i < sent; ++i) result->ledger.Fail("unknown", "Missing");
  result->ledger.Merge(reader_ledger);
  samples->insert(samples->end(), reader_samples.begin(), reader_samples.end());
}

/// Alternates TryAddProduct of a fresh product with TryRemoveProduct of
/// the product it added last.
class Writer {
 public:
  Writer(WhyNotEngine* engine, const Inputs& inputs)
      : engine_(engine), inputs_(inputs) {}

  void Step(TimedResult* result, FailureLedger* ledger) {
    ledger->Attempt();
    const bool add = !pending_.has_value();
    const Clock::time_point t0 = Clock::now();
    if (add) {
      const Point& p = inputs_.fresh_products[next_fresh_++ %
                                              inputs_.fresh_products.size()];
      Result<size_t> id = engine_->TryAddProduct(p);
      result->write_us.push_back(MicrosBetween(t0, Clock::now()));
      if (id.ok()) {
        pending_ = id.value();
      } else {
        ledger->Fail("insert", StatusCodeName(id.status().code()));
      }
    } else {
      const Status status = engine_->TryRemoveProduct(*pending_);
      result->write_us.push_back(MicrosBetween(t0, Clock::now()));
      pending_.reset();
      if (!status.ok()) ledger->Fail("delete", StatusCodeName(status.code()));
    }
  }

  /// Removes a product still added (untimed), restoring the live set.
  void Restore() {
    if (pending_.has_value()) {
      // wnrs-lint: allow-discard(the live-set check reports a failure)
      (void)engine_->TryRemoveProduct(*pending_);
      pending_.reset();
    }
  }

 private:
  WhyNotEngine* engine_;
  const Inputs& inputs_;
  size_t next_fresh_ = 0;
  std::optional<size_t> pending_;
};

HistogramSnapshot Delta(const HistogramSnapshot& after,
                        const HistogramSnapshot& before) {
  HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  return d;
}

/// The checks after the timed phases. `read_state` is the state the
/// timed reads were served from on the read-only workloads; `written` is
/// the engine the writes went to.
void Verify(const WorkloadSpec& spec, const Inputs& inputs,
            const Served& served, const EngineSnapshot& read_state,
            const WhyNotEngine& written, const DigestSamples& samples,
            CorrectnessLog* log) {
  for (const auto& [index, digest] : samples) {
    if (ResponseDigest(DirectAnswer(read_state, inputs.stream[index])) !=
        digest) {
      log->Fail("timed wire answer differs from the direct answer, stream "
                "index " + std::to_string(index));
    }
  }
  // Wire vs direct on the final state, two requests of each kind.
  auto connected = net::WnrsClient::Connect("127.0.0.1", served.server->port());
  if (!connected.ok()) {
    log->Fail("verify connect failed: " + connected.status().ToString());
    return;
  }
  const std::unique_ptr<net::WnrsClient> client = std::move(connected).value();
  const EngineSnapshot now = served.engine->Snapshot();
  for (const serve::RequestKind kind : spec.kinds) {
    size_t found = 0;
    for (size_t i = 0; i < inputs.stream.size() && found < 2; ++i) {
      if (inputs.stream[i].kind != kind) continue;
      ++found;
      auto wire = client->Call(inputs.stream[i]);
      if (!wire.ok()) {
        log->Fail("verify call failed: " + wire.status().ToString());
        continue;
      }
      if (ResponseDigest(wire.value()) !=
          ResponseDigest(DirectAnswer(now, inputs.stream[i]))) {
        log->Fail(std::string("wire answer differs from the direct answer for ") +
                  OpName(kind));
      }
    }
  }
  for (size_t i = 0; i < 3; ++i) {
    CheckReverseSkylineOracle(now, inputs.stream[i * 41].q, log);
  }
  CheckMwqNotWorseThanMwp(read_state, inputs.check_pairs, log);
  CheckInitialLiveSet(written, inputs.data.size(), log);
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

}  // namespace

double ReadPercentileMs(const TimedResult& result, size_t rounds, double p) {
  return MedianOverGroups(result.read_latency_us, result.read_round, rounds,
                          [p](const std::vector<double>& v) {
                            return Percentile(v, p);
                          }) /
         1e3;
}

StreamLayout TimedLayout(const WorkloadSpec& spec, double seconds) {
  StreamLayout layout;
  layout.warmup = kWarmupRequests;
  layout.rounds = static_cast<size_t>(
      std::max(1.0, std::round(seconds / kRoundSeconds)));
  const double round_s = seconds / static_cast<double>(layout.rounds);
  layout.open = static_cast<size_t>(spec.open_rate * (1.0 - kClosedShare) * round_s);
  layout.slice = layout.open + static_cast<size_t>(kClosedHeadroom * spec.open_rate *
                                                   kClosedShare * round_s);
  layout.tail = 2 * kWritePhaseOps;  // the lane's reads skip some kinds
  return layout;
}

TimedResult RunTimed(const WorkloadSpec& spec, const Inputs& inputs,
                     double seconds, bool probe_library_client,
                     CorrectnessLog* log) {
  TimedResult result;
  Served served;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    served = Served();  // release the previous repetition first
    served = SetUp(inputs.data, &result);
  }
  const EngineSnapshot initial = served.engine->Snapshot();
  const bool read_only = !spec.concurrent_writer;

  const StreamLayout& layout = inputs.layout;
  auto closed_client = ConnectOrDie(*served.server);
  for (size_t i = 0; i < layout.warmup; ++i) {
    // wnrs-lint: allow-discard(warm-up answers are not measured)
    (void)closed_client->Call(inputs.stream[i]);
  }
  size_t lane_cursor = layout.TailBegin();

  // The engine the writes go to: the served one under churn, otherwise a
  // write lane of its own (set up untimed, without the approx store, which
  // the first write would drop anyway).
  Served lane;
  if (read_only) {
    lane.engine = std::make_unique<WhyNotEngine>(inputs.data);
    auto started = net::WnrsServer::Start(lane.engine.get());
    if (!started.ok()) {
      std::fprintf(stderr, "write lane: %s\n", started.status().ToString().c_str());
      std::exit(1);
    }
    lane.server = std::move(started).value();
  }
  WhyNotEngine* const written = read_only ? lane.engine.get() : served.engine.get();
  Writer writer(written, inputs);

  const HistogramSnapshot pool_before =
      MetricsRegistry::Default().HistogramValue(HistogramId::kPoolQueueWaitMicros);
  FailureLedger writer_ledger;
  std::atomic<bool> stop_writer{false};
  std::thread writer_thread;
  if (!read_only) {
    writer_thread = std::thread([&] {
      const Clock::time_point start = Clock::now();
      for (uint64_t k = 0;; ++k) {
        std::this_thread::sleep_until(
            start + Seconds(static_cast<double>(k) / kWriterOpsPerSecond));
        if (stop_writer.load()) break;
        writer.Step(&result, &writer_ledger);
      }
    });
  }

  const double round_s = seconds / static_cast<double>(layout.rounds);
  const double closed_s = kClosedShare * round_s;
  DigestSamples samples;
  std::unique_ptr<LoadClient> lane_client;
  if (read_only) lane_client = ConnectOrDie(*lane.server);
  for (size_t round = 0; round < layout.rounds; ++round) {
    if (!spec.fresh_queries) {
      // Untimed: one request of each kind on each of the round's pairs, so
      // the closed loop starts on warm caches.
      for (size_t p = 0; p < kHotPairs; ++p) {
        const auto& [q, c] =
            inputs.hot_pairs[(round % kHotGroups) * kHotPairs + p];
        for (const serve::RequestKind kind : spec.kinds) {
          // wnrs-lint: allow-discard(warm-up answers are not measured)
          (void)closed_client->Call(MakeRequest(kind, q, c));
        }
      }
    }
    size_t cursor = layout.SliceBegin(round);
    const size_t open_first = cursor + layout.slice - layout.open;
    const uint64_t ok_before = result.closed_ok;
    const double closed_round_s =
        ClosedLoop(closed_client.get(), inputs, &cursor, open_first, closed_s,
                   read_only, &result, &samples);
    result.round_throughput_qps.push_back(Ratio(
        static_cast<double>(result.closed_ok - ok_before), closed_round_s));
    OpenLoop(ConnectOrDie(*served.server), inputs, open_first, layout.open,
             spec.open_rate, round, read_only, &result, &samples);
    if (!read_only) continue;
    // Write-lane burst: each write is followed by one read over the wire,
    // which sees the state the write left behind.
    for (size_t k = 0; k < kWritePhaseOps / layout.rounds; ++k) {
      writer.Step(&result, &result.ledger);
      // The lane has no approx store (a write drops it), so its reads
      // skip Approx-MWQ, which would answer FailedPrecondition.
      while (inputs.stream[lane_cursor].kind ==
             serve::RequestKind::kModifyBothApprox) {
        ++lane_cursor;
      }
      const serve::WhyNotRequest& request = inputs.stream[lane_cursor++];
      result.ledger.Attempt();
      auto response = lane_client->Call(request);
      if (!response.ok()) {
        result.ledger.Fail(OpName(request.kind), "IoError");
      } else if (!response.value().status.ok()) {
        RecordFailure(response.value(), &result.ledger);
      }
    }
  }
  if (probe_library_client) {
    // Round 0's first requests again, open loop through net::WnrsClient,
    // which acknowledges responses late (see LoadClient): the latency a
    // client of the library sees while the server holds responses. At the
    // workloads' 100 req/s a connection rarely falls into the held state
    // within a few seconds, so the probe sends faster.
    auto client = net::WnrsClient::Connect("127.0.0.1", served.server->port());
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      std::exit(1);
    }
    TimedResult probe;
    DigestSamples unused;
    OpenLoop(std::move(client).value(), inputs, layout.SliceBegin(0),
             std::min(kProbeRequests, layout.slice), kProbeRate, /*round=*/0,
             /*sample=*/false, &probe, &unused);
    result.wnrs_client_read_latency_us = std::move(probe.read_latency_us);
    result.ledger.Merge(probe.ledger);
  }
  if (writer_thread.joinable()) {
    stop_writer.store(true);
    writer_thread.join();
    result.ledger.Merge(writer_ledger);
  }
  writer.Restore();
  result.pool_queue_wait = Delta(
      MetricsRegistry::Default().HistogramValue(HistogramId::kPoolQueueWaitMicros),
      pool_before);

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  Verify(spec, inputs, served, initial, *written, samples, log);
  if (lane.server != nullptr) lane.server->Stop();
  served.server->Stop();
  return result;
}

}  // namespace perfbench
}  // namespace wnrs
