#include "answers.h"

#include <cstdio>

#include "reverse_skyline/naive.h"

namespace wnrs {
namespace perfbench {
namespace {

template <typename T>
void Fill(Result<T> result, serve::WhyNotResponse* response) {
  response->status = result.status();
  if (result.ok()) {
    response->payload = std::move(result).value();
    response->completed = true;
  }
}

}  // namespace

serve::WhyNotResponse DirectAnswer(const EngineSnapshot& snapshot,
                                   const serve::WhyNotRequest& request) {
  using serve::RequestKind;
  serve::WhyNotResponse response;
  response.kind = request.kind;
  const Point& q = request.q;
  const size_t c = request.c;
  switch (request.kind) {
    case RequestKind::kReverseSkyline:
      Fill(snapshot.TryReverseSkyline(q), &response);
      break;
    case RequestKind::kExplain:
      Fill(snapshot.TryExplain(c, q), &response);
      break;
    case RequestKind::kModifyWhyNot:
      Fill(snapshot.TryModifyWhyNot(c, q, request.semantics), &response);
      break;
    case RequestKind::kModifyQuery:
      Fill(snapshot.TryModifyQuery(c, q, request.semantics), &response);
      break;
    case RequestKind::kSafeRegion:
      Fill(snapshot.TrySafeRegion(q), &response);
      break;
    case RequestKind::kModifyBoth:
      Fill(snapshot.TryModifyBoth(c, q, request.semantics), &response);
      break;
    case RequestKind::kModifyBothApprox:
      Fill(snapshot.TryModifyBothApprox(c, q, request.semantics), &response);
      break;
  }
  return response;
}

void CorrectnessLog::Fail(std::string message) {
  ++failures_;
  std::printf("CORRECTNESS FAILURE: %s\n", message.c_str());
}

void CheckReverseSkylineOracle(const EngineSnapshot& snapshot, const Point& q,
                               CorrectnessLog* log) {
  const Result<std::vector<size_t>> got = snapshot.TryReverseSkyline(q);
  if (!got.ok()) {
    log->Fail("RSL failed: " + got.status().ToString());
    return;
  }
  std::vector<size_t> want;
  for (size_t c : ReverseSkylineNaive(snapshot.product_tree(),
                                      snapshot.customers().points, q,
                                      snapshot.shared_relation())) {
    if (snapshot.IsLiveProduct(c)) want.push_back(c);
  }
  if (got.value() != want) {
    log->Fail("RSL differs from the naive oracle at q " + q.ToString() +
              ": " + std::to_string(got.value().size()) + " vs " +
              std::to_string(want.size()) + " customers");
  }
}

void CheckMwqNotWorseThanMwp(const EngineSnapshot& snapshot,
                             const std::vector<std::pair<Point, size_t>>& pairs,
                             CorrectnessLog* log) {
  for (const auto& [q, c] : pairs) {
    const Result<MwpResult> mwp = snapshot.TryModifyWhyNot(c, q);
    const Result<MwqResult> mwq = snapshot.TryModifyBoth(c, q);
    if (!mwp.ok() || !mwq.ok()) {
      log->Fail("MWP/MWQ failed for c " + std::to_string(c) + ": " +
                mwp.status().ToString() + " / " + mwq.status().ToString());
      continue;
    }
    if (mwp.value().already_member) continue;
    if (mwp.value().candidates.empty()) {
      log->Fail("MWP returned no candidate for c " + std::to_string(c));
      continue;
    }
    const double mwp_cost = mwp.value().candidates.front().cost;
    if (mwq.value().best_cost > mwp_cost + 1e-9) {
      log->Fail("MWQ cost " + std::to_string(mwq.value().best_cost) +
                " exceeds MWP cost " + std::to_string(mwp_cost) + " for c " +
                std::to_string(c));
    }
  }
}

void CheckInitialLiveSet(const WhyNotEngine& engine, size_t initial_size,
                         CorrectnessLog* log) {
  const EngineSnapshot snapshot = engine.Snapshot();
  const size_t total = snapshot.products().size();
  for (size_t id = 0; id < total; ++id) {
    if (snapshot.IsLiveProduct(id) != (id < initial_size)) {
      log->Fail("live product set differs from the initial one at id " +
                std::to_string(id));
      return;
    }
  }
  if (total < initial_size) log->Fail("products were lost");
}

}  // namespace perfbench
}  // namespace wnrs
