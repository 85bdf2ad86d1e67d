// Direct (in-process) answers and the correctness oracles of the serving
// benchmark. A mismatch is reported as a message; any message makes the
// run exit non-zero.
#ifndef WNRS_PERFBENCH_ANSWERS_H_
#define WNRS_PERFBENCH_ANSWERS_H_

#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "serve/api.h"

namespace wnrs {
namespace perfbench {

/// The answer the serving stack must return for `request`, computed
/// directly on `snapshot` through its Try* entry points — the same calls
/// the scheduler makes for an unbatched request.
serve::WhyNotResponse DirectAnswer(const EngineSnapshot& snapshot,
                                   const serve::WhyNotRequest& request);

/// Collects correctness failures.
class CorrectnessLog {
 public:
  void Fail(std::string message);
  bool ok() const { return failures_ == 0; }

 private:
  size_t failures_ = 0;
};

/// RSL(q) from the snapshot must equal the naive oracle (one window probe
/// per live customer).
void CheckReverseSkylineOracle(const EngineSnapshot& snapshot, const Point& q,
                               CorrectnessLog* log);

/// For each (q, c): the MWQ best cost must not exceed the MWP best cost.
void CheckMwqNotWorseThanMwp(const EngineSnapshot& snapshot,
                             const std::vector<std::pair<Point, size_t>>& pairs,
                             CorrectnessLog* log);

/// The live products must be exactly ids [0, initial_size).
void CheckInitialLiveSet(const WhyNotEngine& engine, size_t initial_size,
                         CorrectnessLog* log);

}  // namespace perfbench
}  // namespace wnrs

#endif  // WNRS_PERFBENCH_ANSWERS_H_
