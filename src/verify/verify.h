/**
 * @file
 * Static verifier entry points.
 *
 * The verifier is read-only over the IR and PnR output: it never
 * mutates the graph, never consumes randomness, and therefore cannot
 * perturb simulation results. Its rules are the only statement of
 * the graph and placement invariants: Builder::takeGraph() runs
 * checkStructure(), placeGraph() runs checkPlacement(), and the bench
 * harness runs verifyCompiled() on every compilation before it
 * simulates.
 *
 * See DESIGN.md ("Verification pipeline") for the diagnostic ID
 * catalog and how to add a rule.
 */

#ifndef NUPEA_VERIFY_VERIFY_H
#define NUPEA_VERIFY_VERIFY_H

#include "compiler/pnr.h"
#include "verify/diagnostics.h"
#include "verify/legality.h"
#include "verify/rates.h"
#include "verify/structural.h"

namespace nupea
{

/**
 * Verify a graph before PnR: structural rules, then — when the
 * wiring is sound enough to traverse — token-rate/deadlock rules.
 */
DiagnosticReport verifyGraph(const Graph &graph);

/**
 * Verify a compiled graph: everything verifyGraph checks, plus the
 * placement and routing legality of `pnr` against `topo`.
 */
DiagnosticReport verifyCompiled(const Graph &graph, const Topology &topo,
                                const PnrResult &pnr);

} // namespace nupea

#endif // NUPEA_VERIFY_VERIFY_H
