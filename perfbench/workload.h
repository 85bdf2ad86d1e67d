// Workload definitions and seeded input generation for the serving
// benchmark. Every input (dataset, request stream, fresh products) is a
// function of the workload name and the seed; the served program only
// ever receives the generated inputs.
#ifndef WNRS_PERFBENCH_WORKLOAD_H_
#define WNRS_PERFBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "serve/api.h"

namespace wnrs {
namespace perfbench {

/// CarDB size and the paper's two dimensions (price, mileage).
inline constexpr size_t kDatasetSize = 20000;
/// Every run serves the same CarDB, as the paper's experiments do; the
/// workload seed draws the traffic (query points, why-not customers, send
/// times, written products). A seed-drawn dataset moved every timing by
/// up to 20% from seed to seed.
inline constexpr uint64_t kDatasetSeed = 2013;
/// Approximated-DSL sampling parameter precomputed at set-up.
inline constexpr size_t kApproxK = 10;
/// Relative deadline carried by every request.
inline constexpr std::chrono::milliseconds kRequestTimeout{200};
/// Outstanding requests of the closed loop (= cores of the reference host).
inline constexpr size_t kClosedLoopWindow = 4;
/// Writer pace of the churn workload, and the number of writes a run makes
/// on the write lane of the read-only workloads.
inline constexpr double kWriterOpsPerSecond = 20.0;
inline constexpr size_t kWritePhaseOps = 400;
/// Relative jitter applied to a dataset point to make a query point or a
/// fresh product.
inline constexpr double kJitter = 0.03;
/// The hot workloads' working set: kHotPairs (q, c) pairs, which fit the
/// 8-entry safe-region cache and the 64-entry reverse-skyline memo. Each
/// round of the timed run moves to the next of kHotGroups groups of pairs,
/// so a run's figures average over many pairs instead of hinging on the
/// eight a seed happens to draw.
inline constexpr size_t kHotPairs = 8;
inline constexpr size_t kHotGroups = 32;

struct WorkloadSpec {
  std::string name;
  /// Request kinds, drawn in shuffled blocks so every block of
  /// kinds.size() requests holds each kind once.
  std::vector<serve::RequestKind> kinds;
  /// true: every request has its own query point (cold caches);
  /// false: requests draw from a group of kHotPairs fixed (q, c) pairs.
  bool fresh_queries = false;
  /// Offered rate of the open-loop phase, requests per second. A constant
  /// of the workload, never recalibrated per run.
  double open_rate = 0.0;
  /// true: a writer thread mutates the served engine during the timed
  /// reads; false: the reads run alone and the writes go to a write lane.
  bool concurrent_writer = false;
};

/// The workload of that name, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Where each phase's requests sit in the stream: the warm-up, then one
/// slice per round (the closed loop reads from its front, the open loop
/// takes its last `open` requests), then the reads that follow the write
/// lane's writes. Round r of a hot workload draws from hot group r.
struct StreamLayout {
  size_t warmup = 0;
  size_t rounds = 0;
  size_t slice = 0;
  size_t open = 0;
  size_t tail = 0;

  size_t SliceBegin(size_t round) const { return warmup + round * slice; }
  size_t TailBegin() const { return SliceBegin(rounds); }
  size_t size() const { return TailBegin() + tail; }
};

/// All generated inputs of one (workload, seed).
struct Inputs {
  Dataset data;
  StreamLayout layout;
  /// Requests in stream order, laid out as `layout` says.
  std::vector<serve::WhyNotRequest> stream;
  /// The hot workloads' pairs, group after group.
  std::vector<std::pair<Point, size_t>> hot_pairs;
  /// (q, c) pairs the why-not checks run on: the first two hot groups, or a
  /// sample of the cold stream.
  std::vector<std::pair<Point, size_t>> check_pairs;
  /// Fresh in-distribution products for the writers, used in order and
  /// reused from the start when exhausted.
  std::vector<Point> fresh_products;
};

/// Generates the inputs. Deterministic in (spec, seed, layout).
Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      const StreamLayout& layout);

/// A request of `kind` on (q, c), with the workload's deadline.
serve::WhyNotRequest MakeRequest(serve::RequestKind kind, const Point& q,
                                 size_t c);

/// Name used for an operation in failure accounting and metric names.
const char* OpName(serve::RequestKind kind);
/// Whether the kind reads the why-not customer `c`.
bool UsesCustomer(serve::RequestKind kind);

}  // namespace perfbench
}  // namespace wnrs

#endif  // WNRS_PERFBENCH_WORKLOAD_H_
