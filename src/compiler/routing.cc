#include "compiler/routing.h"

#include <algorithm>
#include <cstdlib>
#include <functional>

#include "common/log.h"

namespace nupea
{

namespace
{

/**
 * The routing-resource graph for one fabric, one array per link
 * field. Each tile's out-links are created consecutively, so tile t
 * owns link ids [outBegin[t], outBegin[t + 1]).
 */
struct RRGraph
{
    std::vector<int> from;
    std::vector<int> to;
    std::vector<double> delay;
    std::vector<int> capacity;
    std::vector<int> outBegin;
    /** Tile coordinates, for the A* heuristic. */
    std::vector<int> row;
    std::vector<int> col;

    explicit RRGraph(const Topology &topo)
    {
        const int rows = topo.rows();
        const int cols = topo.cols();
        const int tracks = topo.dataTracks();

        auto add = [&](Coord a, Coord b, double d, int cap) {
            if (!topo.inBounds(a) || !topo.inBounds(b) || cap <= 0)
                return;
            from.push_back(topo.tileIndex(a));
            to.push_back(topo.tileIndex(b));
            delay.push_back(d);
            capacity.push_back(cap);
        };

        // Monaco's track mix (Sec. 4.1): per 3-track group, one
        // cardinal, one diagonal, one skip track. At least one
        // diagonal when any second track exists.
        const int diag_cap = tracks >= 2 ? std::max(1, tracks / 3) : 0;
        const int skip_cap = tracks / 3;
        for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
                outBegin.push_back(static_cast<int>(from.size()));
                row.push_back(r);
                col.push_back(c);
                Coord here{r, c};
                add(here, {r + 1, c}, 1.0, tracks);
                add(here, {r - 1, c}, 1.0, tracks);
                add(here, {r, c + 1}, 1.0, tracks);
                add(here, {r, c - 1}, 1.0, tracks);
                add(here, {r + 1, c + 1}, 1.4, diag_cap);
                add(here, {r + 1, c - 1}, 1.4, diag_cap);
                add(here, {r - 1, c + 1}, 1.4, diag_cap);
                add(here, {r - 1, c - 1}, 1.4, diag_cap);
                add(here, {r + 2, c}, 1.6, skip_cap);
                add(here, {r - 2, c}, 1.6, skip_cap);
                add(here, {r, c + 2}, 1.6, skip_cap);
                add(here, {r, c - 2}, 1.6, skip_cap);
            }
        }
        outBegin.push_back(static_cast<int>(from.size()));
    }

    std::size_t numLinks() const { return from.size(); }

    int
    manhattan(int a, int b) const
    {
        auto ai = static_cast<std::size_t>(a);
        auto bi = static_cast<std::size_t>(b);
        return std::abs(row[ai] - row[bi]) + std::abs(col[ai] - col[bi]);
    }
};

/** A* search state; the open list is a min-heap on f. */
struct SearchNode
{
    double f = 0.0;
    double g = 0.0;
    int tile = 0;

    bool
    operator>(const SearchNode &other) const
    {
        return f > other.f;
    }
};

/** Per-tile A* state, valid only while `stamp` is the current
 *  search's generation; any other tile reads as unreached (g = 1e30,
 *  no incoming link). Generations are 64-bit and never wrap. */
struct TileVisit
{
    double g = 0.0;
    int cameFrom = -1;
    std::uint64_t stamp = 0;
};

/** A multicast net: one producer, all its off-tile sink tiles. */
struct Net
{
    NodeId src = kInvalidId;
    int srcTile = 0;
    std::vector<int> dstTiles;
    int span = 0; ///< max Manhattan distance to any sink
};

} // namespace

RouteResult
routeGraph(const Graph &graph, const Topology &topo,
           const Placement &placement, const RouterOptions &options)
{
    RRGraph rr(topo);

    // Collect multicast nets: one per producer with off-tile sinks.
    // Sinks on the producer's own tile use intra-tile wiring only.
    // Sorted (producer, sink tile) pairs give producers and each
    // producer's sinks in ascending order.
    std::vector<Net> nets;
    {
        std::vector<std::pair<NodeId, int>> sinks;
        for (NodeId id = 0; id < graph.numNodes(); ++id) {
            int dst_tile = topo.tileIndex(placement.of(id));
            for (const InputConn &in : graph.node(id).inputs) {
                if (in.isImm || in.src == kInvalidId)
                    continue;
                if (topo.tileIndex(placement.of(in.src)) != dst_tile)
                    sinks.emplace_back(in.src, dst_tile);
            }
        }
        std::sort(sinks.begin(), sinks.end());
        sinks.erase(std::unique(sinks.begin(), sinks.end()), sinks.end());
        for (std::size_t i = 0; i < sinks.size();) {
            Net net;
            net.src = sinks[i].first;
            net.srcTile = topo.tileIndex(placement.of(net.src));
            for (; i < sinks.size() && sinks[i].first == net.src; ++i) {
                net.dstTiles.push_back(sinks[i].second);
                net.span = std::max(
                    net.span, rr.manhattan(net.srcTile, sinks[i].second));
            }
            // Route near sinks first so far sinks reuse the tree.
            std::sort(net.dstTiles.begin(), net.dstTiles.end(),
                      [&](int a, int b) {
                          return rr.manhattan(net.srcTile, a) <
                                 rr.manhattan(net.srcTile, b);
                      });
            nets.push_back(std::move(net));
        }
    }

    // Widest-span nets first: they have the fewest routing choices.
    std::sort(nets.begin(), nets.end(),
              [](const Net &a, const Net &b) { return a.span > b.span; });

    const std::size_t num_links = rr.numLinks();
    std::vector<double> history(num_links, 0.0);
    std::vector<int> usage(num_links, 0);
    /** delay * (1 + history): a link's cost while it has room. */
    std::vector<double> base_cost(num_links);
    for (std::size_t li = 0; li < num_links; ++li)
        base_cost[li] = rr.delay[li] * (1.0 + history[li]);
    /** base_cost times the present-congestion penalty one more
     *  claim would pay at the current usage. */
    std::vector<double> live_cost(num_links);
    /** Per net: claimed link ids and per-sink source-to-sink delay. */
    std::vector<std::vector<int>> net_links(nets.size());
    std::vector<double> net_delay(nets.size(), 0.0);

    RouteResult result;

    const std::size_t num_tiles =
        static_cast<std::size_t>(topo.numTiles());
    std::vector<TileVisit> visit(num_tiles);
    std::uint64_t search = 0;
    /** Tiles on the current net's tree carry its stamp. */
    std::vector<std::uint64_t> tree_stamp(num_tiles, 0);
    std::uint64_t tree = 0;
    /** Raw wire delay from the producer along the net's tree. */
    std::vector<double> tree_delay(num_tiles);
    std::vector<int> tree_tiles;
    std::vector<SearchNode> open;
    std::vector<int> path;
    const std::greater<SearchNode> heap_order;

    for (int iter = 1; iter <= options.maxIterations; ++iter) {
        std::fill(usage.begin(), usage.end(), 0);
        live_cost = base_cost;

        for (std::size_t ni = 0; ni < nets.size(); ++ni) {
            const Net &net = nets[ni];
            net_links[ni].clear();
            net_delay[ni] = 0.0;

            // Grow a routing tree from the source to every sink,
            // reusing (and not re-charging) this net's own links.
            ++tree;
            auto in_tree = [&](int t) {
                return tree_stamp[static_cast<std::size_t>(t)] == tree;
            };
            tree_stamp[static_cast<std::size_t>(net.srcTile)] = tree;
            tree_delay[static_cast<std::size_t>(net.srcTile)] = 0.0;
            tree_tiles.assign(1, net.srcTile);

            for (int sink : net.dstTiles) {
                if (in_tree(sink)) {
                    net_delay[ni] = std::max(
                        net_delay[ni],
                        tree_delay[static_cast<std::size_t>(sink)]);
                    continue;
                }
                ++search;

                const auto goal = static_cast<std::size_t>(sink);
                auto heuristic = [&](int tile) {
                    // Cheapest per-distance cost is the diagonal
                    // track at 0.7/unit; admissible.
                    return 0.7 * rr.manhattan(tile, sink);
                };

                open.clear();
                for (int t : tree_tiles) {
                    auto ti = static_cast<std::size_t>(t);
                    visit[ti] = TileVisit{tree_delay[ti], -1, search};
                    open.push_back(SearchNode{
                        tree_delay[ti] + heuristic(t), tree_delay[ti],
                        t});
                    std::push_heap(open.begin(), open.end(), heap_order);
                }

                while (!open.empty()) {
                    std::pop_heap(open.begin(), open.end(), heap_order);
                    SearchNode cur = open.back();
                    open.pop_back();
                    if (cur.tile == sink)
                        break;
                    // Every pushed tile carries this search's stamp.
                    if (cur.g >
                        visit[static_cast<std::size_t>(cur.tile)].g +
                            1e-12)
                        continue;
                    const auto ct = static_cast<std::size_t>(cur.tile);
                    for (int li = rr.outBegin[ct]; li < rr.outBegin[ct + 1];
                         ++li) {
                        const auto l = static_cast<std::size_t>(li);
                        double g2 = cur.g + live_cost[l];
                        TileVisit &next =
                            visit[static_cast<std::size_t>(rr.to[l])];
                        double best =
                            next.stamp == search ? next.g : 1e30;
                        if (g2 < best - 1e-12) {
                            next = TileVisit{g2, li, search};
                            open.push_back(SearchNode{
                                g2 + heuristic(rr.to[l]), g2, rr.to[l]});
                            std::push_heap(open.begin(), open.end(),
                                           heap_order);
                        }
                    }
                }

                NUPEA_ASSERT(visit[goal].stamp == search &&
                                 visit[goal].cameFrom != -1,
                             "net unreachable; routing graph disconnected");

                // Walk back to the attachment point, claiming links.
                path.clear();
                int tile = sink;
                while (!in_tree(tile)) {
                    int link_id =
                        visit[static_cast<std::size_t>(tile)].cameFrom;
                    path.push_back(link_id);
                    tile = rr.from[static_cast<std::size_t>(link_id)];
                }
                // `tile` is the attach point; extend the tree.
                double d = tree_delay[static_cast<std::size_t>(tile)];
                for (auto it = path.rbegin(); it != path.rend(); ++it) {
                    const auto l = static_cast<std::size_t>(*it);
                    int over = ++usage[l] + 1 - rr.capacity[l];
                    if (over > 0) {
                        live_cost[l] = base_cost[l] *
                                       (1.0 + options.presentFactor * over);
                    }
                    net_links[ni].push_back(*it);
                    d += rr.delay[l];
                    auto to = static_cast<std::size_t>(rr.to[l]);
                    tree_stamp[to] = tree;
                    tree_delay[to] = d;
                    tree_tiles.push_back(rr.to[l]);
                }
                net_delay[ni] = std::max(net_delay[ni], tree_delay[goal]);
            }
        }

        // Check for overuse and grow history costs.
        std::size_t overused = 0;
        for (std::size_t li = 0; li < num_links; ++li) {
            if (usage[li] > rr.capacity[li]) {
                ++overused;
                history[li] += options.historyIncrement *
                               (usage[li] - rr.capacity[li]);
                base_cost[li] = rr.delay[li] * (1.0 + history[li]);
            }
        }

        result.iterations = iter;
        result.overusedLinks = overused;
        if (overused == 0) {
            result.success = true;
            break;
        }
    }

    // Export final link occupancy for analysis and testing.
    result.linkUsage = usage;
    result.linkCapacity = rr.capacity;

    // Gather per-net timing (raw wire delay, no penalty terms).
    result.maxNetDelay = options.intraTileDelay;
    result.totalWire = 0.0;
    result.nets.clear();
    result.nets.reserve(nets.size());
    for (std::size_t ni = 0; ni < nets.size(); ++ni) {
        NetRoute route;
        route.src = nets[ni].src;
        route.dstTile =
            nets[ni].dstTiles.empty() ? -1 : nets[ni].dstTiles.back();
        route.delay = net_delay[ni];
        route.hops = static_cast<int>(net_links[ni].size());
        for (int link_id : net_links[ni])
            result.totalWire += rr.delay[static_cast<std::size_t>(link_id)];
        result.maxNetDelay = std::max(result.maxNetDelay, route.delay);
        result.nets.push_back(route);
    }

    return result;
}

} // namespace nupea
