/**
 * @file
 * Place-and-route driver: criticality analysis, placement, routing,
 * timing, plus the two degree policies: the automatic-parallelization
 * ramp (paper Sec. 5: "the compiler iteratively increases the
 * parallelism degree until PnR fails") and the back-off from a
 * hand-tuned degree (paper Sec. 6).
 */

#ifndef NUPEA_COMPILER_PNR_H
#define NUPEA_COMPILER_PNR_H

#include <functional>

#include "compiler/criticality.h"
#include "compiler/placement.h"
#include "compiler/routing.h"
#include "compiler/timing.h"

namespace nupea
{

/** Bundled knobs for one PnR run; only `place` has settable fields. */
struct PnrOptions
{
    PlacerOptions place;
    RouterOptions route;
    TimingOptions timing;
};

/** Everything the simulator needs to run a compiled bitstream. */
struct PnrResult
{
    bool success = false;
    std::string failureReason;
    Placement placement;
    RouteResult route;
    TimingResult timing;
    CriticalityStats crit;
    /** The anneal's move counts and placement cost. */
    PlacerStats placerStats;
};

/**
 * Compile one graph for one fabric. Marks criticality classes on
 * `graph` in place (so the simulator and reports can see them),
 * places, routes, and times. `success` is false when the graph does
 * not fit or routing cannot resolve congestion.
 */
PnrResult placeAndRoute(Graph &graph, const Topology &topo,
                        const PnrOptions &options = PnrOptions{});

/** Builds a workload DFG at a given parallelism degree. */
using GraphFactory = std::function<Graph(int parallelism)>;

/** Result of the parallelism ramp or back-off. */
struct AutoParResult
{
    int parallelism = 1;
    Graph graph;
    PnrResult pnr;
};

/**
 * Raise the parallelism degree until PnR fails and return the last
 * successful compilation (paper Sec. 5): +1 per step from 1 to 8,
 * then +4 (12, 16, ...) up to `max_parallelism`. fatal() if even
 * degree 1 fails.
 */
AutoParResult compileWithAutoParallelism(
    const GraphFactory &factory, const Topology &topo,
    const PnrOptions &options = PnrOptions{}, int max_parallelism = 64);

/**
 * Compile at the hand-tuned degree `preferred`, halving it while PnR
 * fails (preferred, preferred / 2, ..., 1), and return the last
 * attempt. `pnr.success` is false only when degree 1 failed too; the
 * caller decides how to report that.
 */
AutoParResult compileWithBackoff(const GraphFactory &factory,
                                 const Topology &topo, int preferred,
                                 const PnrOptions &options = PnrOptions{});

} // namespace nupea

#endif // NUPEA_COMPILER_PNR_H
