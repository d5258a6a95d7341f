#include "compiler/placement.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/log.h"
#include "verify/legality.h"

namespace nupea
{

std::string_view
placeModeName(PlaceMode mode)
{
    switch (mode) {
      case PlaceMode::DomainUnaware: return "domain-unaware";
      case PlaceMode::DomainAware: return "only-domain-aware";
      case PlaceMode::CriticalityAware: return "effcc";
    }
    return "?";
}

double
critWeight(PlaceMode mode, Criticality crit)
{
    switch (mode) {
      case PlaceMode::DomainUnaware:
        return 0.0;
      case PlaceMode::DomainAware:
        return 6.0; // domain preference, criticality-blind
      case PlaceMode::CriticalityAware:
        switch (crit) {
          case Criticality::Critical: return 24.0;
          case Criticality::InnerLoop: return 6.0;
          case Criticality::OtherMem: return 1.0;
          case Criticality::None: return 0.0;
        }
    }
    return 0.0;
}

namespace
{

constexpr int kNumFuClasses = 4;

/** The annealing temperature schedule's endpoints. */
constexpr double kTBegin = 12.0;
constexpr double kTEnd = 0.05;

int
fuIndex(FuClass fu)
{
    return static_cast<int>(fu);
}

/**
 * Read-only lookups for one placeGraph call. The annealer's cost and
 * legality checks read these instead of the graph's node records and
 * the topology's per-tile queries.
 */
struct PlacerTables
{
    /** @{ Per node. */
    std::vector<FuClass> fu;
    std::vector<std::uint8_t> isMemory;
    /** memWeight * critWeight(mode, crit). */
    std::vector<double> memWeight;
    /** Neighbours of node `id` are nbr[nbrBegin[id], nbrBegin[id + 1]):
     *  its connected inputs' producers up to inEnd[id], in input
     *  order, then its fanout consumers in fanout order. */
    std::vector<std::uint32_t> nbrBegin;
    std::vector<std::uint32_t> inEnd;
    std::vector<NodeId> nbr;
    /** @} */

    /** @{ Per tile (row-major index). */
    std::vector<FuSlots> slots;
    /** arbHops + columnPreference * col: a memory node's distance
     *  cost before its weight. */
    std::vector<double> tileMemCost;
    /** @} */

    PlacerTables(const Graph &graph, const Topology &topo,
                 const PlacerOptions &options)
    {
        const std::vector<std::vector<PortRef>> &fanout = graph.fanout();
        nbrBegin.push_back(0);
        for (NodeId id = 0; id < graph.numNodes(); ++id) {
            const Node &n = graph.node(id);
            const OpTraits &traits = opTraits(n.op);
            fu.push_back(traits.fu);
            isMemory.push_back(traits.isMemory);
            memWeight.push_back(options.memWeight *
                                critWeight(options.mode, n.crit));
            for (const InputConn &in : n.inputs) {
                if (!in.isImm && in.src != kInvalidId)
                    nbr.push_back(in.src);
            }
            inEnd.push_back(static_cast<std::uint32_t>(nbr.size()));
            for (const PortRef &dst : fanout[id])
                nbr.push_back(dst.node);
            nbrBegin.push_back(static_cast<std::uint32_t>(nbr.size()));
        }
        for (int t = 0; t < topo.numTiles(); ++t) {
            Coord c = topo.tileCoord(t);
            slots.push_back(topo.slots(c));
            tileMemCost.push_back(topo.arbHops(c) +
                                  options.columnPreference * c.col);
        }
    }
};

/** One tile's occupants of one FU class, in insertion order. */
struct SlotList
{
    std::array<NodeId, FuSlots::kMaxPerClass> ids{};
    std::uint8_t size = 0;

    void
    push(NodeId id)
    {
        NUPEA_ASSERT(size < ids.size(), "slot list overflow");
        ids[size++] = id;
    }

    /** Remove `id`, keeping the others in order. */
    void
    erase(NodeId id)
    {
        std::uint8_t i = 0;
        while (i < size && ids[i] != id)
            ++i;
        NUPEA_ASSERT(i < size);
        for (--size; i < size; ++i)
            ids[i] = ids[i + 1];
    }
};

/** Working state for the initial placement and the anneal. */
class PlacerState
{
  public:
    PlacerState(const Graph &graph, const Topology &topo,
                const PlacerOptions &options, const PlacerTables &tables)
        : graph_(graph), topo_(topo), options_(options), tables_(tables),
          rng_(options.seed),
          schedTotal_(static_cast<std::uint64_t>(
                          options.iterationsPerNode) *
                      graph.numNodes()),
          pos_(graph.numNodes(), Coord{-1, -1}),
          occupants_(static_cast<std::size_t>(topo.numTiles()))
    {}

    Placement placement() const { return Placement{pos_}; }
    std::uint64_t moves() const { return schedTotal_; }
    std::uint64_t accepted() const { return accepted_; }

    double
    nodeMemCost(NodeId id, Coord tile) const
    {
        if (!tables_.isMemory[id])
            return 0.0;
        return tables_.memWeight[id] * tables_.tileMemCost[tileOf(tile)];
    }

    /** Wirelength of all edges incident to `id` given positions. */
    double
    incidentWirelen(NodeId id) const
    {
        // Integer sums convert exactly, so this equals summing the
        // distances as doubles.
        int total = 0;
        for (std::uint32_t i = tables_.nbrBegin[id];
             i < tables_.nbrBegin[id + 1]; ++i)
            total += pos_[tables_.nbr[i]].manhattan(pos_[id]);
        return total * options_.wirelenWeight;
    }

    bool
    hasFreeSlot(Coord tile, FuClass fu) const
    {
        std::size_t t = tileOf(tile);
        return occupants_[t][static_cast<std::size_t>(fuIndex(fu))].size <
               tables_.slots[t].forClass(fu);
    }

    void
    put(NodeId id, Coord tile)
    {
        FuClass fu = tables_.fu[id];
        NUPEA_ASSERT(hasFreeSlot(tile, fu), "no free ",
                     static_cast<int>(fu), " slot at ", tile.str());
        slotList(tile, fu).push(id);
        pos_[id] = tile;
    }

    void
    remove(NodeId id)
    {
        slotList(pos_[id], tables_.fu[id]).erase(id);
        pos_[id] = Coord{-1, -1};
    }

    /** Nearest tile to `target` with a free slot of class `fu`. */
    Coord
    nearestFree(Coord target, FuClass fu) const
    {
        int max_d = topo_.rows() + topo_.cols();
        for (int d = 0; d <= max_d; ++d) {
            for (int dr = -d; dr <= d; ++dr) {
                int rem = d - (dr < 0 ? -dr : dr);
                for (int dc : {-rem, rem}) {
                    Coord c{target.row + dr, target.col + dc};
                    if (topo_.inBounds(c) && hasFreeSlot(c, fu))
                        return c;
                    if (rem == 0)
                        break; // avoid checking (dr, 0) twice
                }
            }
        }
        fatal("fabric has no free slot of the required FU class "
              "anywhere (graph too large?)");
    }

    void initialPlace();
    void anneal();

  private:
    std::size_t
    tileOf(Coord tile) const
    {
        return static_cast<std::size_t>(topo_.tileIndex(tile));
    }

    SlotList &
    slotList(Coord tile, FuClass fu)
    {
        return occupants_[tileOf(tile)]
                         [static_cast<std::size_t>(fuIndex(fu))];
    }

    double
    tempAt(std::uint64_t i) const
    {
        return kTBegin * std::pow(kTEnd / kTBegin,
                                  static_cast<double>(i) /
                                      static_cast<double>(schedTotal_));
    }

    /** Full objective of the current positions (same model as the
     *  free placementCost(), over pos_ without copying). */
    double
    fullCost() const
    {
        double cost = 0.0;
        for (NodeId id = 0; id < graph_.numNodes(); ++id) {
            for (std::uint32_t i = tables_.nbrBegin[id];
                 i < tables_.inEnd[id]; ++i) {
                cost += options_.wirelenWeight *
                        pos_[tables_.nbr[i]].manhattan(pos_[id]);
            }
            if (tables_.isMemory[id])
                cost += nodeMemCost(id, pos_[id]);
        }
        return cost;
    }
    /** Random occupant of `tile` with FU class `fu`, or kInvalidId. */
    NodeId
    randomOccupant(Coord tile, FuClass fu)
    {
        const SlotList &list = slotList(tile, fu);
        if (list.size == 0)
            return kInvalidId;
        return list.ids[rng_.below(list.size)];
    }

    /** Subtract the wirelength of each edge from `src` into `dst`. */
    void
    subtractEdges(double &cost, NodeId src, NodeId dst) const
    {
        for (std::uint32_t i = tables_.nbrBegin[dst]; i < tables_.inEnd[dst];
             ++i) {
            if (tables_.nbr[i] == src) {
                cost -= options_.wirelenWeight *
                        pos_[src].manhattan(pos_[dst]);
            }
        }
    }

    /** Cost touched by moving `a` (and optionally `b`). */
    double
    localCost(NodeId a, NodeId b)
    {
        double cost = incidentWirelen(a) + nodeMemCost(a, pos_[a]);
        if (b != kInvalidId) {
            cost += incidentWirelen(b) + nodeMemCost(b, pos_[b]);
            // Edges between a and b are counted from both sides;
            // subtract the duplicate so deltas stay consistent.
            subtractEdges(cost, a, b);
            subtractEdges(cost, b, a);
        }
        return cost;
    }

    const Graph &graph_;
    const Topology &topo_;
    const PlacerOptions &options_;
    const PlacerTables &tables_;
    Rng rng_;
    std::uint64_t schedTotal_; ///< moves in the annealing schedule
    std::uint64_t accepted_ = 0;
    std::vector<Coord> pos_;
    /** occupants_[tile][fuClass] = node list. */
    std::vector<std::array<SlotList, kNumFuClasses>> occupants_;
};

void
PlacerState::initialPlace()
{
    // 1. Memory instructions first, into LS tiles in preference order
    //    (paper Sec. 5: "LS are placed first, favoring domains").
    std::vector<NodeId> mem_nodes;
    for (NodeId id = 0; id < graph_.numNodes(); ++id) {
        if (tables_.fu[id] == FuClass::Mem)
            mem_nodes.push_back(id);
    }

    std::vector<Coord> ls_tiles = topo_.lsTilesByPreference();
    if (options_.mode == PlaceMode::DomainUnaware) {
        // No incentive to be near memory: scatter the LS tiles.
        for (std::size_t i = ls_tiles.size(); i > 1; --i)
            std::swap(ls_tiles[i - 1], ls_tiles[rng_.below(i)]);
    } else if (options_.mode == PlaceMode::CriticalityAware) {
        // Most-critical first so they land in the fastest domains.
        std::stable_sort(mem_nodes.begin(), mem_nodes.end(),
                         [this](NodeId a, NodeId b) {
                             return static_cast<int>(graph_.node(a).crit) <
                                    static_cast<int>(graph_.node(b).crit);
                         });
    }

    std::size_t next_tile = 0;
    for (NodeId id : mem_nodes) {
        NUPEA_ASSERT(next_tile < ls_tiles.size(),
                     "more memory instructions than LS tiles");
        put(id, ls_tiles[next_tile++]);
    }

    // 2. Everything else breadth-first through defs and uses, close
    //    to the centroid of already-placed neighbors.
    std::vector<NodeId> order;
    std::vector<std::uint8_t> seen(graph_.numNodes(), 0);
    for (NodeId id : mem_nodes) {
        order.push_back(id);
        seen[id] = 1;
    }
    // Seed with any nodes if the graph has no memory ops at all.
    for (NodeId id = 0; id < graph_.numNodes() && order.empty(); ++id) {
        order.push_back(id);
        seen[id] = 1;
    }
    for (std::size_t head = 0; head < order.size(); ++head) {
        NodeId id = order[head];
        for (std::uint32_t i = tables_.nbrBegin[id];
             i < tables_.nbrBegin[id + 1]; ++i) {
            NodeId nb = tables_.nbr[i];
            if (!seen[nb]) {
                seen[nb] = 1;
                order.push_back(nb);
            }
        }
    }
    // Disconnected leftovers (rare).
    for (NodeId id = 0; id < graph_.numNodes(); ++id) {
        if (!seen[id])
            order.push_back(id);
    }

    for (NodeId id : order) {
        if (pos_[id].row >= 0)
            continue; // memory ops already placed
        // Centroid of placed neighbors.
        int sum_r = 0, sum_c = 0, count = 0;
        for (std::uint32_t i = tables_.nbrBegin[id];
             i < tables_.nbrBegin[id + 1]; ++i) {
            Coord nb = pos_[tables_.nbr[i]];
            if (nb.row >= 0) {
                sum_r += nb.row;
                sum_c += nb.col;
                ++count;
            }
        }
        Coord target;
        if (count > 0) {
            target = Coord{sum_r / count, sum_c / count};
        } else {
            target = Coord{
                static_cast<std::int32_t>(rng_.below(
                    static_cast<std::uint64_t>(topo_.rows()))),
                static_cast<std::int32_t>(rng_.below(
                    static_cast<std::uint64_t>(topo_.cols())))};
        }
        put(id, nearestFree(target, tables_.fu[id]));
    }
}

void
PlacerState::anneal()
{
    const std::size_t n = graph_.numNodes();
    double cost = fullCost(); // tracked incrementally below
    for (std::uint64_t i = 0; i < schedTotal_; ++i) {
        NodeId a = static_cast<NodeId>(rng_.below(n));
        FuClass fu = tables_.fu[a];
        Coord from = pos_[a];
        Coord to{static_cast<std::int32_t>(rng_.below(
                     static_cast<std::uint64_t>(topo_.rows()))),
                 static_cast<std::int32_t>(rng_.below(
                     static_cast<std::uint64_t>(topo_.cols())))};
        if (to == from)
            continue;
        if (tables_.slots[tileOf(to)].forClass(fu) == 0)
            continue;

        NodeId b = kInvalidId;
        if (!hasFreeSlot(to, fu)) {
            b = randomOccupant(to, fu);
            if (b == kInvalidId || b == a)
                continue;
        }

        double before = localCost(a, b);
        // Apply the move.
        remove(a);
        if (b != kInvalidId)
            remove(b);
        put(a, to);
        if (b != kInvalidId)
            put(b, from);
        double after = localCost(a, b);

        double delta = after - before;
        // The temperature (a std::pow) matters only uphill.
        if (delta > 0 &&
            rng_.uniform() >= std::exp(-delta / tempAt(i))) {
            // Revert.
            remove(a);
            if (b != kInvalidId)
                remove(b);
            put(a, from);
            if (b != kInvalidId)
                put(b, to);
        } else {
            // localCost covers exactly the edges a move can change
            // (a-b duplicates subtracted), so its delta equals the
            // full-objective delta and the incremental sum tracks
            // placementCost(), as the drift assertion below checks.
            cost += delta;
            ++accepted_;
        }
    }

    // Drift assertion: the incremental cost must match a full
    // recompute, or localCost() has diverged from the objective.
    double full = fullCost();
    NUPEA_ASSERT(std::abs(cost - full) <=
                     1e-6 * std::max(1.0, std::abs(full)),
                 "annealer cost drift: incremental ", cost,
                 " vs full recompute ", full);
}

} // namespace

double
placementCost(const Graph &graph, const Topology &topo,
              const Placement &placement, const PlacerOptions &options)
{
    double cost = 0.0;
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        const Node &n = graph.node(id);
        for (const InputConn &in : n.inputs) {
            if (!in.isImm && in.src != kInvalidId) {
                cost += options.wirelenWeight *
                        placement.pos[in.src].manhattan(placement.pos[id]);
            }
        }
        if (opTraits(n.op).isMemory) {
            Coord tile = placement.pos[id];
            cost += options.memWeight * critWeight(options.mode, n.crit) *
                    (topo.arbHops(tile) +
                     options.columnPreference * tile.col);
        }
    }
    return cost;
}

Placement
placeGraph(const Graph &graph, const Topology &topo,
           const PlacerOptions &options, PlacerStats *stats)
{
    if (options.portfolio.chains != 1)
        fatal("PlacerOptions::portfolio.chains must be 1 (one anneal), "
              "got ", options.portfolio.chains);

    // Fail fast when the graph cannot fit.
    for (FuClass fu : {FuClass::Arith, FuClass::Control, FuClass::Mem,
                       FuClass::XData}) {
        std::size_t need = graph.countFu(fu);
        std::size_t have = topo.totalSlots(fu);
        if (need > have) {
            fatal("graph needs ", need, " slots of FU class ",
                  fuIndex(fu), " but fabric ", topo.name(), " has ",
                  have);
        }
    }

    const PlacerTables tables(graph, topo, options);
    PlacerState state(graph, topo, options, tables);
    state.initialPlace();
    state.anneal();

    Placement result = state.placement();
    DiagnosticReport report;
    checkPlacement(graph, topo, result, report);
    if (report.hasErrors())
        panic("placer produced an illegal placement:\n",
              report.renderText());
    if (stats) {
        stats->chains.assign(
            1, PlacerChainStats{state.moves(), state.accepted()});
        stats->winnerCost = placementCost(graph, topo, result, options);
    }
    return result;
}

} // namespace nupea
