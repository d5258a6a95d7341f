/**
 * @file
 * Closed-form static performance model (ROADMAP: "Analytical
 * fast-path performance model for large-scale DSE").
 *
 * Given a compiled image — DFG + placement + Topology + memory-model
 * config — and a config-independent ExecutionProfile (analysis/
 * profile.h), predictPerformance() estimates fabric cycles and the
 * energy breakdown with no Machine execution. The cycle estimate is
 * the maximum of independent lower bounds plus a pipeline-fill term:
 *
 *  - node throughput:  a PE fires one instruction per fabric cycle,
 *    so the busiest node's firing count bounds the run;
 *  - memory throughput: an LS node sustains at most maxOutstanding
 *    in-flight requests of per-access latency L, so it needs
 *    accesses * max(1, L_fab / maxOutstanding) cycles;
 *  - port/arbiter throughput (Monaco-style NoCs): every request
 *    funnels through single-issue port and arbiter stages on the
 *    system clock; per-stage access sums bound the run (the stages,
 *    NUMA groups and UPEA delay come from MemPath, sim/mem_model.h,
 *    the statement of the memory path the Machine reads too);
 *  - bank throughput: each bank accepts one request per system cycle;
 *  - recurrence: per cyclic SCC, the fires-weighted longest path
 *    (the loop-decider rings the verifier's rate algebra keys on) —
 *    a loop-carried chain serializes one traversal per iteration, so
 *    path weight = sum of fires x latency — plus a per-entry refill
 *    term (static dataflow drains a LoopMerge to its Init state
 *    before admitting the next entry token);
 *  - loop backpressure: per loop in the loop tree, iterations x
 *    (one-iteration body depth / fifoDepth) — shallow consumer FIFOs
 *    cap the in-flight iterations of a loop at roughly fifoDepth, so
 *    a body whose latency exceeds II x fifoDepth throttles the ring.
 *    Kept separate from the recurrence bound: a true loop-carried
 *    recurrence is immune to extra bandwidth or buffering, while
 *    this bound melts away with deeper FIFOs;
 *  - depth: the unweighted critical path of the de-cycled graph,
 *    added once as the pipeline fill/drain cost.
 *
 * Energy uses the exact event counts the profile supplies (firing and
 * emission counts are dataflow semantics, identical to the Machine's)
 * with the Machine's own per-event cost model; only the cache
 * hit/miss split is estimated, from the footprint.
 *
 * Accuracy is validated differentially in tests/test_perf_model.cc
 * with per-workload pinned error bounds; see DESIGN.md "Static
 * performance model" for the achieved errors and the known blind
 * spots (backpressure, FIFO depth, queueing inside a bound's slack).
 */

#ifndef NUPEA_ANALYSIS_PERF_MODEL_H
#define NUPEA_ANALYSIS_PERF_MODEL_H

#include <string_view>
#include <vector>

#include "analysis/profile.h"
#include "compiler/placement.h"
#include "dfg/graph.h"
#include "fabric/topology.h"
#include "memory/memsys.h"
#include "sim/energy.h"
#include "sim/mem_model.h"

namespace nupea
{

/** The MachineConfig subset the estimator consumes. Aggregate-
 *  constructible from a MachineConfig's fields so callers need not
 *  link the simulator:
 *    PerfModelConfig pc{c.mem, c.memsys, c.energy,
 *                       c.clockDivider, c.maxOutstanding,
 *                       c.fifoDepth};
 */
struct PerfModelConfig
{
    MemModelConfig mem;
    MemSysConfig memsys;
    EnergyParams energy;
    int clockDivider = 2;
    int maxOutstanding = 4;
    int fifoDepth = 2;
};

/** The individual cycle lower bounds, in fabric cycles. */
struct PerfBounds
{
    double nodeThroughput = 0.0; ///< busiest node's firing count
    double memThroughput = 0.0;  ///< busiest LS node, outstanding-capped
    double portThroughput = 0.0; ///< busiest mem port / arbiter stage
    double bankThroughput = 0.0; ///< busiest memory bank
    double recurrence = 0.0;      ///< heaviest loop-carried chain
    double loopBackpressure = 0.0; ///< FIFO-capped in-flight iterations
    double depth = 0.0;           ///< de-cycled critical path (fill)
};

/** Initiation-interval bound for one loop recurrence (cyclic SCC). */
struct LoopIIBound
{
    /** The SCC's governing LoopMerge (highest-firing merge). */
    NodeId merge = kInvalidId;
    std::uint64_t iterations = 0; ///< merge firings
    double recurrenceII = 0.0;    ///< fabric cycles per iteration
    double totalCycles = 0.0;     ///< fires-weighted SCC path length
};

/** A complete static prediction for one (image, config) point. */
struct PerfPrediction
{
    double fabricCycles = 0.0;
    double systemCycles = 0.0;
    EnergyBreakdown energy;
    PerfBounds bounds;
    /** Which bound the prediction rests on ("recurrence", ...). */
    std::string_view dominantBound;
    /** Per-loop II bounds, one per cyclic SCC, heaviest first. */
    std::vector<LoopIIBound> loops;
    /** Predicted mean per-access latency, system cycles (request
     *  issue to response at the PE). */
    double avgMemLatency = 0.0;
    double hitRate = 1.0; ///< estimated cache hit rate
};

/**
 * Predict cycles and energy for one placed graph under one config.
 * Pure arithmetic over the profile — no simulation; O(nodes + edges)
 * per call, so scoring thousands of sweep points is cheap. The
 * profile must come from profileGraph() on the same graph.
 */
PerfPrediction predictPerformance(const Graph &graph,
                                  const Placement &placement,
                                  const Topology &topo,
                                  const ExecutionProfile &profile,
                                  const PerfModelConfig &config);

} // namespace nupea

#endif // NUPEA_ANALYSIS_PERF_MODEL_H
