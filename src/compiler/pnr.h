/**
 * @file
 * Place-and-route driver: criticality analysis, placement, routing,
 * timing, plus the automatic-parallelization ramp (paper Sec. 5:
 * "the compiler iteratively increases the parallelism degree until
 * PnR fails").
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

/** Bundled knobs for one PnR run. */
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
    /** Per-chain annealing outcomes (one chain unless the placer ran
     *  a portfolio; see PlacerOptions::portfolio). */
    PortfolioStats placerStats;
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

/** Result of the parallelism ramp. */
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

} // namespace nupea

#endif // NUPEA_COMPILER_PNR_H
