#include "verify/legality.h"

#include <array>
#include <unordered_set>

#include "common/log.h"

namespace nupea
{

namespace
{

constexpr std::array<FuClass, 4> kFuClasses = {
    FuClass::Arith, FuClass::Control, FuClass::Mem, FuClass::XData};

std::string_view
fuName(FuClass fu)
{
    switch (fu) {
      case FuClass::Arith: return "arith";
      case FuClass::Control: return "control";
      case FuClass::Mem: return "memory";
      case FuClass::XData: return "xdata";
    }
    return "?";
}

} // namespace

void
checkPlacement(const Graph &graph, const Topology &topo,
               const Placement &placement, DiagnosticReport &report)
{
    if (placement.pos.size() != graph.numNodes()) {
        report.add(DiagId::PlaceSize,
                   formatMessage("placement assigns ",
                                 placement.pos.size(), " tiles for ",
                                 graph.numNodes(), " nodes"));
        return; // per-node checks below would index out of range
    }

    // usage[tile][fu class], compared against the tile's slots.
    std::vector<std::array<int, kFuClasses.size()>> usage(
        static_cast<std::size_t>(topo.numTiles()),
        std::array<int, kFuClasses.size()>{});

    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        const Node &n = graph.node(id);
        Coord c = placement.of(id);
        if (!topo.inBounds(c)) {
            report.addNode(DiagId::PlaceOffFabric, graph, id,
                           formatMessage(opName(n.op), " placed at (",
                                         c.row, ",", c.col,
                                         ") outside the ", topo.rows(),
                                         "x", topo.cols(), " fabric"));
            continue;
        }
        FuClass fu = opTraits(n.op).fu;
        usage[static_cast<std::size_t>(topo.tileIndex(c))]
             [static_cast<std::size_t>(fu)]++;

        if (fu == FuClass::Mem && !topo.isLs(c)) {
            report.addNode(
                DiagId::PlaceMemNonLs, graph, id,
                formatMessage(opName(n.op), " placed at (", c.row, ",",
                              c.col, "), which has no memory FU"));
        } else if (fu == FuClass::Mem) {
            int port = topo.portOf(c);
            if (port < 0 || port >= topo.memPorts()) {
                report.addNode(
                    DiagId::PlacePortRange, graph, id,
                    formatMessage(opName(n.op), " at (", c.row, ",",
                                  c.col, ") maps to memory port ", port,
                                  " of ", topo.memPorts()));
            }
        }
    }

    for (int tile = 0; tile < topo.numTiles(); ++tile) {
        Coord c = topo.tileCoord(tile);
        FuSlots slots = topo.slots(c);
        for (FuClass fu : kFuClasses) {
            int used = usage[static_cast<std::size_t>(tile)]
                            [static_cast<std::size_t>(fu)];
            int cap = slots.forClass(fu);
            if (used > cap) {
                report.add(
                    DiagId::PlaceOverCap,
                    formatMessage("tile (", c.row, ",", c.col,
                                  ") hosts ", used, " ", fuName(fu),
                                  " instructions but has ", cap,
                                  " slots"));
            }
        }
    }
}

void
checkRouting(const Graph &graph, const Topology &topo,
             const Placement &placement, const RouteResult &route,
             DiagnosticReport &report)
{
    if (placement.pos.size() != graph.numNodes())
        return; // checkPlacement already reported place.size

    if (!route.success) {
        report.add(DiagId::RouteFailed,
                   formatMessage("router gave up after ",
                                 route.iterations, " iterations with ",
                                 route.overusedLinks,
                                 " oversubscribed links"));
    }

    std::size_t overused = 0;
    for (std::size_t i = 0; i < route.linkUsage.size(); ++i) {
        if (i < route.linkCapacity.size() &&
            route.linkUsage[i] > route.linkCapacity[i])
            ++overused;
    }
    if (overused > 0) {
        report.add(DiagId::RouteOveruse,
                   formatMessage(overused, " data-NoC links carry more "
                                           "nets than they have tracks"));
    }

    // The router builds one multicast net per producer covering all
    // of its off-tile consumer tiles; the exported NetRoute records
    // that producer plus its farthest sink tile. Mirror that model:
    // every producer with an off-tile consumer must own a net, and
    // every net's recorded sink tile must be one of its producer's
    // actual consumer tiles.
    std::vector<std::unordered_set<int>> sink_tiles(graph.numNodes());
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        int dst_tile = topo.inBounds(placement.of(id))
                           ? topo.tileIndex(placement.of(id))
                           : -1;
        for (const InputConn &in : graph.node(id).inputs) {
            if (in.isImm || in.src == kInvalidId ||
                in.src >= graph.numNodes())
                continue;
            Coord src_pos = placement.of(in.src);
            if (!topo.inBounds(src_pos) || dst_tile < 0)
                continue; // off-fabric endpoints reported elsewhere
            if (topo.tileIndex(src_pos) == dst_tile)
                continue; // intra-tile hop: no net needed
            sink_tiles[in.src].insert(dst_tile);
        }
    }

    std::unordered_set<NodeId> routed_producers;
    for (const NetRoute &net : route.nets) {
        if (net.src >= graph.numNodes()) {
            report.add(DiagId::RouteStaleNet,
                       formatMessage("routed net names producer ",
                                     net.src,
                                     ", beyond the placed graph"));
            continue;
        }
        routed_producers.insert(net.src);
        if (!sink_tiles[net.src].count(net.dstTile)) {
            report.addNode(
                DiagId::RouteStaleNet, graph, net.src,
                formatMessage("routed net ends at tile ", net.dstTile,
                              ", which hosts no consumer of this "
                              "producer"));
        }
    }

    for (NodeId src = 0; src < graph.numNodes(); ++src) {
        if (!sink_tiles[src].empty() && !routed_producers.count(src)) {
            report.addNode(
                DiagId::RouteMissingNet, graph, src,
                formatMessage("producer fans out to ",
                              sink_tiles[src].size(),
                              " other tile(s) but has no routed net"));
        }
    }
}

} // namespace nupea
