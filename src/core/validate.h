#ifndef WNRS_CORE_VALIDATE_H_
#define WNRS_CORE_VALIDATE_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "core/cost.h"
#include "core/mqp.h"
#include "core/mwp.h"
#include "core/mwq.h"
#include "core/safe_region.h"
#include "index/rtree.h"

namespace wnrs {

/// Deep semantic validators for the why-not algorithms. Like the index
/// validators they return Status::Ok() or Status::Internal with the
/// violated invariant named in [brackets]; unlike them they re-verify
/// results against the ground truth the paper defines — real window
/// probes over the product tree — so they catch a *wrong answer*, not
/// just a corrupt structure. They are driven by the seeded-corruption
/// tests, the fuzz tests, and WhyNotEngineOptions::paranoid_checks.
///
/// All probes run against the dynamic tree. The engine serves every
/// query from the packed tree, so this is deliberate: validating with
/// the *other* implementation of the same traversal makes the check
/// independent of the code path that produced the answer.
struct AnswerValidationInput {
  const RStarTree* products_tree = nullptr;
  /// Customer points (equal to the product points in shared-relation
  /// mode); why-not indices address this vector.
  const std::vector<Point>* customers = nullptr;
  /// Shared-relation mode: customer index == product id, and a customer's
  /// own tuple is excluded from its window probes.
  bool shared_relation = false;
  /// The paper's boundary-semantics answers tie with a culprit product;
  /// membership probes therefore retry with an epsilon nudge toward the
  /// membership target (this fraction of each dimension's universe range,
  /// escalating x100 for up to 4 attempts — the engine's own strict-nudge
  /// schedule) before declaring an answer unsound.
  double epsilon_fraction = 1e-9;
  Rectangle universe;
  /// When set, candidate costs are re-derived and compared (1e-9 slack).
  const CostModel* cost_model = nullptr;
};

/// Safe-region soundness (Lemma 2 + Eqns. 8-11): SR(q) must contain q
/// itself ([sr-q-membership]), and no point of SR(q) may lose a customer
/// — for every sampled q' in the region (rectangle corners, centers, and
/// `random_samples_per_rect` seeded interior draws) every member of
/// `rsl` must still pass its reverse-skyline window probe
/// ([sr-soundness]). `rsl` is RSL(q) as customer indices.
Status ValidateSafeRegion(const AnswerValidationInput& in,
                          const std::vector<size_t>& rsl, const Point& q,
                          const SafeRegionResult& sr,
                          size_t random_samples_per_rect = 2,
                          uint64_t seed = 0x5AFE);

/// MWP (Algorithm 1) answers: candidates cost-ascending
/// ([answer-order]), costs consistent with the beta weights
/// ([answer-cost]), and every candidate location c_t* actually a reverse
/// skyline member — q in DSL(c_t*) — under the nudge-tolerant probe
/// ([mwp-membership]). `c` is the why-not customer index.
Status ValidateMwpAnswer(const AnswerValidationInput& in, size_t c,
                         const Point& q, const MwpResult& result);

/// MQP (Algorithm 2) answers: ordering and alpha-cost consistency as
/// above, and c_t in RSL(q*) for every candidate q* ([mqp-membership]).
Status ValidateMqpAnswer(const AnswerValidationInput& in, size_t c,
                         const Point& q, const MqpResult& result);

/// MWQ (Algorithm 4) answers: every proposed query location keeps every
/// existing reverse-skyline customer in `rsl` ([mwq-no-lost-customer] —
/// the guarantee Algorithm 4 exists to provide), and in case C2 the
/// why-not candidates are members under the proposed q*
/// ([mwq-membership]) with best_cost matching the cheapest one
/// ([answer-cost]).
Status ValidateMwqAnswer(const AnswerValidationInput& in, size_t c,
                         const Point& q, const std::vector<size_t>& rsl,
                         const MwqResult& result);

}  // namespace wnrs

#endif  // WNRS_CORE_VALIDATE_H_
