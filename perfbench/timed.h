// The timed (untraced) run: set-up, closed loop, open loop, writes, and
// the correctness checks that follow them.
#ifndef WNRS_PERFBENCH_TIMED_H_
#define WNRS_PERFBENCH_TIMED_H_

#include <cstdint>
#include <vector>

#include "answers.h"
#include "bench_common.h"
#include "common/metrics.h"
#include "workload.h"

namespace wnrs {
namespace perfbench {

struct TimedResult {
  /// One entry per set-up repetition.
  std::vector<double> setup_s;
  std::vector<double> engine_build_ms;
  std::vector<double> approx_precompute_s;

  /// Closed loop: OK responses per second of each round's segment, all
  /// OK responses, and per-response latency.
  std::vector<double> round_throughput_qps;
  uint64_t closed_ok = 0;
  std::vector<double> closed_latency_us;

  /// Open loop, OK responses only: latency from the scheduled send time,
  /// and the queue wait the server reported.
  std::vector<double> read_latency_us;
  std::vector<size_t> read_round;  // round of each read_latency_us sample
  std::vector<double> queue_wait_us;
  /// The same, through net::WnrsClient (see RunTimed).
  std::vector<double> wnrs_client_read_latency_us;
  uint64_t open_sent = 0;
  uint64_t open_ok = 0;
  uint64_t open_shared_batch = 0;
  uint64_t open_rejects = 0;
  /// How late the sender ran, per send; most requests sent but not yet
  /// answered at any send.
  std::vector<double> lag_us;
  uint64_t max_backlog = 0;

  /// Wall time of each timed TryAddProduct / TryRemoveProduct: the churn
  /// writer's, or on the read-only workloads those of the write lane.
  std::vector<double> write_us;

  /// Thread-pool queue wait recorded while the reads ran.
  HistogramSnapshot pool_queue_wait;

  /// Failures of the phases whose operation count the workload fixes (open
  /// loop, writes, reads after writes); the errors.* ratios are taken over
  /// these.
  FailureLedger ledger;
  /// Failures of the closed loop, whose count grows with the server's
  /// speed; reported, but kept out of the errors.* ratios.
  FailureLedger closed_ledger;
  double peak_rss_mb = 0.0;
};

/// Percentile `p` of the open-loop read latency in ms: the median over
/// the rounds of each round's percentile.
double ReadPercentileMs(const TimedResult& result, size_t rounds, double p);

/// Runs every timed phase of `spec` on `inputs` for about `seconds` of
/// reads, then checks the answers; failures go to `log`.
///
/// On the read-only workloads the writes go to a write lane: a second
/// engine built from the same data and served by its own server, written
/// in a burst after each round with one read over the wire after each
/// write. The served read state is never written, so the reads stay
/// read-only, while the writes and the reads that follow them are spread
/// over the run like the reads.
///
/// With `probe_library_client`, one more open-loop segment (400 requests
/// at 200 req/s) follows the rounds, sent through net::WnrsClient instead
/// of LoadClient; its latencies go to wnrs_client_read_latency_us only.
TimedResult RunTimed(const WorkloadSpec& spec, const Inputs& inputs,
                     double seconds, bool probe_library_client,
                     CorrectnessLog* log);

/// The stream layout RunTimed needs for `seconds` of reads.
StreamLayout TimedLayout(const WorkloadSpec& spec, double seconds);

/// Set-up repetitions per run; the median is reported.
inline constexpr size_t kSetupRepeats = 5;

/// The read time is cut into rounds of about this length, each a
/// closed-loop segment then an open-loop segment, so both loops sample the
/// host across the whole run, and a few slow seconds of the host spoil a
/// few rounds, not the run's figures (read metrics are medians over
/// rounds).
inline constexpr double kRoundSeconds = 4.0;
/// Share of each round given to the closed loop; the open loop gets the
/// rest.
inline constexpr double kClosedShare = 0.4;

}  // namespace perfbench
}  // namespace wnrs

#endif  // WNRS_PERFBENCH_TIMED_H_
