/**
 * @file
 * Placement-hazard diagnostics from the static performance model.
 *
 * analyzePlacementHazards() turns a PerfPrediction into verify-style
 * findings (verify/diagnostics.h) so hazardous placements are flagged
 * at compile time, before any simulation:
 *
 *  - perf.recurrence-bound: a loop-carried chain's predicted cycles
 *    dominate every throughput bound by a large factor — the fabric
 *    will idle waiting on the recurrence, and no placement change
 *    that only improves bandwidth can help;
 *  - perf.bank-hotspot: one memory port / arbiter stage carries far
 *    more traffic than the mean active port — the placement funneled
 *    unrelated memory instructions into one row/domain;
 *  - perf.underutilized-column: some D0 (fastest-domain) column has
 *    no memory traffic while criticality-classified instructions sit
 *    in slower domains — the placement wasted the cheapest seats.
 *
 * All three are Warnings: the placement is legal and will simulate
 * correctly; it is just predictably slow. The thresholds (hazards.cc)
 * are high enough that the criticality-aware placer's output on the
 * bundled workloads is quiet.
 */

#ifndef NUPEA_ANALYSIS_HAZARDS_H
#define NUPEA_ANALYSIS_HAZARDS_H

#include "analysis/perf_model.h"
#include "verify/diagnostics.h"

namespace nupea
{

/**
 * Derive hazard diagnostics for one placed graph from its profile and
 * static prediction (both must come from the same graph/config).
 * Purely analytical — no Machine execution.
 */
DiagnosticReport
analyzePlacementHazards(const Graph &graph, const Placement &placement,
                        const Topology &topo,
                        const ExecutionProfile &profile,
                        const PerfPrediction &prediction);

} // namespace nupea

#endif // NUPEA_ANALYSIS_HAZARDS_H
