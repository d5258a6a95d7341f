/**
 * @file
 * Structural verification of the DFG IR (verifier analysis 1 of 3).
 *
 * Arity, connectivity, immediate deciders and merge-free
 * combinational rings, plus the deeper invariants the compiler and
 * simulator assume: loop metadata consistent with the loop tree,
 * criticality classes only on memory ops, no consumption from sinks,
 * and liveness (every node can fire at least once; dead compute is
 * warned about). Builder::takeGraph() runs these rules on every graph
 * it hands out and fatal()s on an error.
 */

#ifndef NUPEA_VERIFY_STRUCTURAL_H
#define NUPEA_VERIFY_STRUCTURAL_H

#include "verify/diagnostics.h"

namespace nupea
{

/** Run every structural rule over `graph`, appending findings. */
void checkStructure(const Graph &graph, DiagnosticReport &report);

} // namespace nupea

#endif // NUPEA_VERIFY_STRUCTURAL_H
