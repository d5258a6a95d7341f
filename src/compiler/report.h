/**
 * @file
 * Human-readable PnR reports: a fabric-occupancy map showing what
 * landed where (and, for memory instructions, their criticality
 * class), plus a per-domain placement summary. Used by the examples
 * and handy when debugging placements.
 */

#ifndef NUPEA_COMPILER_REPORT_H
#define NUPEA_COMPILER_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "compiler/placement.h"
#include "dfg/graph.h"
#include "fabric/topology.h"

namespace nupea
{

/**
 * ASCII map of the fabric, one cell per tile:
 *   '.' empty    'a' arith instr(s)     'c' control instr(s)
 *   'C' critical memory op              'I' inner-loop memory op
 *   'M' other memory op                 '*' mixed occupancy
 * Memory markers win over compute markers so the NUPEA placement is
 * visible at a glance; column 0 (left) is closest to memory.
 */
std::string placementMap(const Graph &graph, const Topology &topo,
                         const Placement &placement);

/**
 * Per-criticality-class histogram of NUPEA domains, e.g.
 * "critical: D0=8 D1=0 ...". One line per class that has members.
 */
std::string domainSummary(const Graph &graph, const Topology &topo,
                          const Placement &placement);

/** Measured memory-latency summary for one criticality class. */
struct CritClassLatency
{
    Criticality crit = Criticality::None;
    int nodes = 0;             ///< memory nodes in the class
    std::uint64_t samples = 0; ///< latency samples across those nodes
    double meanLatency = 0.0;  ///< sample-weighted mean, system cycles
};

/** Outcome of cross-validating measurement against prediction. */
struct CritRankValidation
{
    /** Rows in predicted-fastest-first order (critical, inner-loop,
     *  other); classes with no memory nodes are omitted. */
    std::vector<CritClassLatency> classes;
    /**
     * True when measured mean latencies are non-decreasing in the
     * predicted order among classes that sampled: the criticality
     * analysis promised critical loads the shortest memory path, so
     * their measured latency should be lowest (Fig. 11/17 sanity
     * check). Vacuously true with fewer than two sampled classes.
     */
    bool rankConsistent = true;
    /**
     * Spearman rank correlation between each memory node's predicted
     * rank (its criticality class: lower class = shorter predicted
     * path) and its measured mean latency, over nodes that sampled.
     * Ties get averaged ranks. +1 is perfect agreement; defined as
     * 1.0 with fewer than two nodes or zero variance on either side.
     */
    double rankCorrelation = 1.0;
    std::string table; ///< human-readable summary of the rows
};

/**
 * Cross-validate the criticality analysis's predicted latency ranks
 * against per-node memory latency measured by the simulator
 * (RunResult::nodeMemLatency, produced under
 * MachineConfig::stallAttribution; indexed by NodeId).
 */
CritRankValidation
validateCriticalityRanks(const Graph &graph,
                         const std::vector<Distribution> &node_mem_latency);

} // namespace nupea

#endif // NUPEA_COMPILER_REPORT_H
