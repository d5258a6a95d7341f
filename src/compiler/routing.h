/**
 * @file
 * Data-NoC routing with negotiated congestion (Pathfinder-style,
 * paper Sec. 5 — effcc's PnR "primarily uses simulated annealing,
 * similar to Pathfinder and VPR").
 *
 * The routing-resource graph abstracts Monaco's track structure
 * (Sec. 4.1: one cardinal, one diagonal and one skip track per tile
 * edge) into three link classes between tiles:
 *   - cardinal: 4-neighbor hops, delay 1.0, capacity = tracks;
 *   - diagonal: 8-neighbor diagonal hops, delay 1.4, capacity =
 *     tracks / 3 (the diagonal track exists once per 3-track group);
 *   - skip:     2-tile cardinal jumps, delay 1.6, capacity =
 *     tracks / 3.
 *
 * Each producer with consumers on other tiles becomes one multicast
 * net over all of its off-tile sink tiles. A net is routed as a tree
 * grown sink by sink with A*, and every net is rerouted under growing
 * history costs until no link is oversubscribed. Routing failure
 * (overuse that never resolves) is how PnR "fails", which drives the
 * automatic-parallelization back-off (Sec. 5).
 */

#ifndef NUPEA_COMPILER_ROUTING_H
#define NUPEA_COMPILER_ROUTING_H

#include <cstdint>
#include <vector>

#include "compiler/placement.h"
#include "dfg/graph.h"
#include "fabric/topology.h"

namespace nupea
{

/** Router constants. Nothing here is settable; the struct remains
 *  so that PnrOptions::route and routeGraph's last argument keep
 *  their shape. */
struct RouterOptions
{
    static constexpr int maxIterations = 60;
    /** History cost added per unit of overuse each iteration. */
    static constexpr double historyIncrement = 0.5;
    /** Present-congestion multiplier for oversubscribed links. */
    static constexpr double presentFactor = 4.0;
    /** Delay of a producer/consumer on the same tile. */
    static constexpr double intraTileDelay = 0.3;
};

/** One routed multicast net: a producer's tree to its sink tiles. */
struct NetRoute
{
    NodeId src = kInvalidId;
    int dstTile = -1;   ///< the sink tile farthest from the producer
    double delay = 0.0; ///< wire delay to the slowest sink
    int hops = 0;       ///< links in the tree
};

/** Outcome of routing a placed graph. */
struct RouteResult
{
    bool success = false;
    int iterations = 0;
    std::size_t overusedLinks = 0; ///< remaining overuse on failure
    double maxNetDelay = 0.0;      ///< wire units, longest net
    double totalWire = 0.0;        ///< sum of claimed links' delays
    std::vector<NetRoute> nets;
    /** Final per-link usage and capacity (same indexing). */
    std::vector<int> linkUsage;
    std::vector<int> linkCapacity;

    /** Highest usage/capacity ratio across links (1.0 = full). */
    double maxUtilization() const;
};

/**
 * Route every inter-tile dataflow edge of a placed graph: one
 * multicast tree per producer, spanning all of its off-tile sink
 * tiles.
 */
RouteResult routeGraph(const Graph &graph, const Topology &topo,
                       const Placement &placement,
                       const RouterOptions &options = RouterOptions{});

} // namespace nupea

#endif // NUPEA_COMPILER_ROUTING_H
