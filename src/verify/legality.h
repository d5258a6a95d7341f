/**
 * @file
 * Placement/routing legality checking (verifier analysis 3 of 3).
 *
 * Re-derives the fabric constraints from `fabric::Topology` and
 * checks a finished PnR result against them, independently of the
 * code paths the placer and router used to enforce them:
 *
 *  - every node on exactly one in-bounds tile with a free slot of
 *    its FU class (at most `FuSlots::forClass` instructions per PE);
 *  - memory instructions only on load-store tiles, and their tile's
 *    memory port inside the fabric's port range (D0 direct ports and
 *    shared arbiter ports alike);
 *  - every inter-tile dataflow edge covered by a routed net, no net
 *    that matches no edge, and no link used beyond its track budget.
 */

#ifndef NUPEA_VERIFY_LEGALITY_H
#define NUPEA_VERIFY_LEGALITY_H

#include "compiler/placement.h"
#include "compiler/routing.h"
#include "verify/diagnostics.h"

namespace nupea
{

/** Check tile assignment legality (place.* rules). */
void checkPlacement(const Graph &graph, const Topology &topo,
                    const Placement &placement, DiagnosticReport &report);

/** Check routed nets against the placed graph (route.* rules).
 *  Requires a size-legal placement (run checkPlacement first). */
void checkRouting(const Graph &graph, const Topology &topo,
                  const Placement &placement, const RouteResult &route,
                  DiagnosticReport &report);

} // namespace nupea

#endif // NUPEA_VERIFY_LEGALITY_H
