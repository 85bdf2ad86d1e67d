#ifndef WNRS_CORE_STRICT_H_
#define WNRS_CORE_STRICT_H_

#include <functional>
#include <optional>

#include "core/cost.h"
#include "core/mqp.h"
#include "core/mwp.h"
#include "core/mwq.h"
#include "geometry/rectangle.h"

namespace wnrs {

/// Window-emptiness probe with the relevant customer's own-tuple
/// exclusion already bound by the caller: returns true iff W(c, q)
/// holds no (other) product. The engine core binds it to its product
/// index (packed or dynamic).
using StrictWindowEmptyFn =
    std::function<bool(const Point& c, const Point& q)>;

/// Shared Semantics::kStrict machinery (see engine.h): the paper's
/// algorithms return closed-boundary answers that tie with a culprit;
/// these helpers nudge them into strict reverse-skyline membership. They
/// take the window probe as a parameter, so the nudge schedule and cost
/// recomputation stay independent of which index answers the probe.

/// Moves `c_star` epsilon toward q per dimension (epsilon =
/// epsilon_fraction of each dimension's universe range, growing 100x per
/// retry for four attempts) until the probe confirms strict membership.
/// Returns nullopt when even the widest nudge fails.
std::optional<Point> NudgeToStrictMemberImpl(
    const Point& c_star, const Point& q, const Rectangle& universe,
    double epsilon_fraction, const StrictWindowEmptyFn& window_empty);

/// The query-side twin: moves q_star epsilon toward the customer per
/// dimension (shrinking the membership window) until `customer` is a
/// strict member under the nudged query.
std::optional<Point> NudgeQueryToStrictImpl(
    const Point& q_star, const Point& customer, const Rectangle& universe,
    double epsilon_fraction, const StrictWindowEmptyFn& window_empty);

/// Strict post-passes for the three modification algorithms: each nudges
/// the boundary candidates into strict membership, recomputes their costs
/// under the same weight vectors, and re-sorts; candidates whose nudge
/// fails (adversarial 2-D staircase inputs) keep their boundary location.

void ApplyStrictMwpImpl(const Point& customer, const Point& q,
                        const CostModel& cost_model,
                        const Rectangle& universe, double epsilon_fraction,
                        const StrictWindowEmptyFn& window_empty,
                        MwpResult* r);

void ApplyStrictMqpImpl(const Point& customer, const Point& q,
                        const CostModel& cost_model,
                        const Rectangle& universe, double epsilon_fraction,
                        const StrictWindowEmptyFn& window_empty,
                        MqpResult* r);

void ApplyStrictMwqImpl(const Point& customer, const CostModel& cost_model,
                        const Rectangle& universe, double epsilon_fraction,
                        const StrictWindowEmptyFn& window_empty,
                        MwqResult* r);

}  // namespace wnrs

#endif  // WNRS_CORE_STRICT_H_
