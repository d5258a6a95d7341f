#include "compiler/pnr.h"

#include "common/log.h"

namespace nupea
{

PnrResult
placeAndRoute(Graph &graph, const Topology &topo, const PnrOptions &options)
{
    PnrResult result;
    result.crit = analyzeCriticality(graph);

    // Capacity pre-check: a graph that cannot fit is a PnR failure
    // (drives the parallelism back-off), not a fatal error.
    for (FuClass fu : {FuClass::Arith, FuClass::Control, FuClass::Mem,
                       FuClass::XData}) {
        if (graph.countFu(fu) > topo.totalSlots(fu)) {
            result.failureReason = formatMessage(
                "graph needs ", graph.countFu(fu), " slots of FU class ",
                static_cast<int>(fu), "; fabric has ",
                topo.totalSlots(fu));
            return result;
        }
    }

    result.placement =
        placeGraph(graph, topo, options.place, &result.placerStats);
    result.route = routeGraph(graph, topo, result.placement,
                              options.route);
    if (!result.route.success) {
        result.failureReason =
            formatMessage("routing failed: ", result.route.overusedLinks,
                          " links oversubscribed after ",
                          result.route.iterations, " iterations");
        return result;
    }
    result.timing = analyzeTiming(result.route, options.timing);
    result.success = true;
    return result;
}

AutoParResult
compileWithAutoParallelism(const GraphFactory &factory,
                           const Topology &topo, const PnrOptions &options,
                           int max_parallelism)
{
    AutoParResult best;
    bool have_best = false;

    // Fine steps at low degrees, coarser beyond 8; stop at the first
    // failure, keeping the last success (paper Sec. 5).
    for (int p = 1; p <= max_parallelism; p = p < 8 ? p + 1 : p + 4) {
        Graph g = factory(p);
        PnrResult pnr = placeAndRoute(g, topo, options);
        if (!pnr.success)
            break;
        best.parallelism = p;
        best.graph = std::move(g);
        best.pnr = std::move(pnr);
        have_best = true;
    }

    if (!have_best)
        fatal("workload does not fit the fabric even at parallelism 1");
    return best;
}

AutoParResult
compileWithBackoff(const GraphFactory &factory, const Topology &topo,
                   int preferred, const PnrOptions &options)
{
    AutoParResult last;
    for (int p = preferred; p >= 1; p /= 2) {
        last.parallelism = p;
        last.graph = factory(p);
        last.pnr = placeAndRoute(last.graph, topo, options);
        if (last.pnr.success)
            break;
    }
    return last;
}

} // namespace nupea
