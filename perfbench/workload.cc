#include "workload.h"

#include <algorithm>
#include <random>

#include "core/engine.h"
#include "data/generators.h"

namespace wnrs {
namespace perfbench {
namespace {

using serve::RequestKind;

// Open-loop rates are fixed here, so a faster commit is offered the same load
// as a slower one. They sit below half of each workload's closed-loop
// throughput_qps on the reference 4-core host; perfbench/README.md says why.
const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"cold-mix",
       {RequestKind::kReverseSkyline, RequestKind::kExplain,
        RequestKind::kModifyWhyNot, RequestKind::kModifyQuery,
        RequestKind::kSafeRegion, RequestKind::kModifyBoth,
        RequestKind::kModifyBothApprox},
       /*fresh_queries=*/true, /*open_rate=*/100.0,
       /*concurrent_writer=*/false},
      {"hot-mix",
       {RequestKind::kReverseSkyline, RequestKind::kSafeRegion,
        RequestKind::kModifyWhyNot, RequestKind::kModifyBoth,
        RequestKind::kModifyBothApprox},
       /*fresh_queries=*/false, /*open_rate=*/400.0,
       /*concurrent_writer=*/false},
      // Five kinds, not six: with an even count the median latency fell on
      // the gap between the three cheap kinds and the three costly ones and
      // jumped between them from run to run.
      {"churn",
       {RequestKind::kReverseSkyline, RequestKind::kExplain,
        RequestKind::kModifyWhyNot, RequestKind::kSafeRegion,
        RequestKind::kModifyBoth},
       /*fresh_queries=*/true, /*open_rate=*/100.0,
       /*concurrent_writer=*/true},
  };
  return specs;
}

/// A dataset point scaled by (1 ± kJitter) per dimension, clamped to the
/// data bounds so the universe (and with it the cost model) never moves.
Point Jittered(const Dataset& data, const Rectangle& bounds,
               std::mt19937_64* rng) {
  std::uniform_int_distribution<size_t> pick(0, data.size() - 1);
  std::uniform_real_distribution<double> jitter(1.0 - kJitter, 1.0 + kJitter);
  Point p = data.points[pick(*rng)];
  for (size_t d = 0; d < p.dims(); ++d) {
    p[d] = std::clamp(p[d] * jitter(*rng), bounds.lo()[d], bounds.hi()[d]);
  }
  return p;
}

/// A customer outside RSL(q), by rejection: one window probe per draw.
size_t WhyNotCustomer(const EngineSnapshot& snapshot, const Point& q,
                      std::mt19937_64* rng) {
  std::uniform_int_distribution<size_t> pick(0, snapshot.customers().size() - 1);
  while (true) {
    const size_t c = pick(*rng);
    if (!snapshot.IsReverseSkylineMember(c, q)) return c;
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

serve::WhyNotRequest MakeRequest(serve::RequestKind kind, const Point& q,
                                 size_t c) {
  serve::WhyNotRequest request;
  request.kind = kind;
  request.q = q;
  request.c = c;
  request.timeout =
      std::chrono::duration_cast<std::chrono::microseconds>(kRequestTimeout);
  return request;
}

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      const StreamLayout& layout) {
  Inputs in;
  in.data = GenerateCarDb(kDatasetSize, kDatasetSeed);
  in.layout = layout;
  const Rectangle bounds = in.data.Bounds();
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 0x5851F42D4C957F2Dull);

  // Benchmark-side engine, used only to pick why-not customers.
  const WhyNotEngine picker(in.data);
  const EngineSnapshot snapshot = picker.Snapshot();

  if (!spec.fresh_queries) {
    for (size_t i = 0; i < kHotGroups * kHotPairs; ++i) {
      Point q = Jittered(in.data, bounds, &rng);
      const size_t c = WhyNotCustomer(snapshot, q, &rng);
      in.hot_pairs.emplace_back(std::move(q), c);
    }
    in.check_pairs.assign(in.hot_pairs.begin(),
                          in.hot_pairs.begin() + 2 * kHotPairs);
  }

  std::vector<RequestKind> block = spec.kinds;
  std::uniform_int_distribution<size_t> pick_pair(0, kHotPairs - 1);
  const size_t n = layout.size();
  in.stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % block.size() == 0) std::shuffle(block.begin(), block.end(), rng);
    const RequestKind kind = block[i % block.size()];
    if (spec.fresh_queries) {
      Point q = Jittered(in.data, bounds, &rng);
      const size_t c = WhyNotCustomer(snapshot, q, &rng);
      in.stream.push_back(MakeRequest(kind, q, c));
    } else {
      const bool in_round = i >= layout.warmup && i < layout.TailBegin();
      const size_t group =
          in_round ? ((i - layout.warmup) / layout.slice) % kHotGroups : 0;
      const auto& [q, c] = in.hot_pairs[group * kHotPairs + pick_pair(rng)];
      in.stream.push_back(MakeRequest(kind, q, c));
    }
  }
  if (spec.fresh_queries) {
    // Why-not checks on every 97th request of the stream.
    for (size_t i = 0; i < n && in.check_pairs.size() < 12; i += 97) {
      in.check_pairs.emplace_back(in.stream[i].q, in.stream[i].c);
    }
  }

  const size_t fresh = 4096;
  for (size_t i = 0; i < fresh; ++i) {
    in.fresh_products.push_back(Jittered(in.data, bounds, &rng));
  }
  return in;
}

const char* OpName(serve::RequestKind kind) {
  switch (kind) {
    case RequestKind::kReverseSkyline:
      return "rsl";
    case RequestKind::kExplain:
      return "explain";
    case RequestKind::kModifyWhyNot:
      return "mwp";
    case RequestKind::kModifyQuery:
      return "mqp";
    case RequestKind::kSafeRegion:
      return "safe_region";
    case RequestKind::kModifyBoth:
      return "mwq";
    case RequestKind::kModifyBothApprox:
      return "mwq_approx";
  }
  return "unknown";
}

bool UsesCustomer(serve::RequestKind kind) {
  return kind != RequestKind::kReverseSkyline &&
         kind != RequestKind::kSafeRegion;
}

}  // namespace perfbench
}  // namespace wnrs
