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

/** Moves per temperature bracket: the anneal evaluates the schedule
 *  once per block, at the block's end. */
constexpr std::uint64_t kTempBlock = 64;

/**
 * `u >= exp(-delta / annealTemperature(i, total))` for `delta` > 0,
 * given tHi >= that temperature >= tLo. exp(-delta / T) rises with T,
 * so a draw at or above the bound at tHi rejects and one below the
 * bound at tLo accepts; the 1e-12 margins cover the last-bit rounding
 * of pow and exp. Only a draw between the two bounds needs the exact
 * temperature.
 */
bool
rejectsUphill(double u, double delta, double tHi, double tLo,
              std::uint64_t i, std::uint64_t total)
{
    if (u >= std::exp(-delta / tHi) * (1 + 1e-12))
        return true;
    if (u < std::exp(-delta / tLo) * (1 - 1e-12))
        return false;
    return u >= std::exp(-delta / annealTemperature(i, total));
}

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

    /** Move `id` behind the others, keeping their order. */
    void
    moveToBack(NodeId id)
    {
        erase(id);
        push(id);
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

    /**
     * Objective change of moving `a` from `from` to `to` and, when `b`
     * is given, `b` from `to` to `from`, priced without making the
     * move. Each side sums the edges incident to a and b, plus their
     * memory terms: exactly the terms a move can change, so the delta
     * is the full objective's. An a-b edge is in both neighbour lists
     * (as a's input and in b's fanout, or the reverse), so each of
     * a's list entries naming b is one duplicate to subtract; its
     * length, like a self edge's zero, is the same before and after.
     * Wirelength is an integer sum, which converts exactly.
     */
    double
    moveDelta(NodeId a, NodeId b, Coord from, Coord to) const
    {
        const double w = options_.wirelenWeight;
        int a_before = 0, a_after = 0, dups = 0;
        for (std::uint32_t i = tables_.nbrBegin[a];
             i < tables_.nbrBegin[a + 1]; ++i) {
            NodeId k = tables_.nbr[i];
            Coord p = k == a ? to : k == b ? from : pos_[k];
            a_before += pos_[k].manhattan(from);
            a_after += p.manhattan(to);
            dups += k == b;
        }
        double before = a_before * w + nodeMemCost(a, from);
        double after = a_after * w + nodeMemCost(a, to);
        if (b == kInvalidId)
            return after - before;

        int b_before = 0, b_after = 0;
        for (std::uint32_t i = tables_.nbrBegin[b];
             i < tables_.nbrBegin[b + 1]; ++i) {
            NodeId k = tables_.nbr[i];
            Coord p = k == b ? from : k == a ? to : pos_[k];
            b_before += pos_[k].manhattan(to);
            b_after += p.manhattan(from);
        }
        before += b_before * w + nodeMemCost(b, to);
        after += b_after * w + nodeMemCost(b, from);
        const double dup = w * from.manhattan(to);
        for (int k = 0; k < dups; ++k) {
            before -= dup;
            after -= dup;
        }
        return after - before;
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
    // The temperature falls with i; each 64-move block brackets its
    // moves' temperatures between its ends. pow(x, 0) is exactly 1,
    // so the first block starts at kTBegin.
    double t_hi = kTBegin;
    double t_lo = kTBegin;
    for (std::uint64_t i = 0; i < schedTotal_; ++i) {
        if (i % kTempBlock == 0) {
            t_hi = t_lo;
            t_lo = annealTemperature(i + kTempBlock, schedTotal_);
        }
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

        double delta = moveDelta(a, b, from, to);
        if (delta > 0 && rejectsUphill(rng_.uniform(), delta, t_hi, t_lo,
                                       i, schedTotal_)) {
            // A rejected move still re-queues a (and b) at the back of
            // its slot list, as making and reverting it would:
            // randomOccupant() indexes by that order.
            slotList(from, fu).moveToBack(a);
            if (b != kInvalidId)
                slotList(to, fu).moveToBack(b);
            continue;
        }
        remove(a);
        if (b != kInvalidId)
            remove(b);
        put(a, to);
        if (b != kInvalidId)
            put(b, from);
        cost += delta;
        ++accepted_;
    }

    // Drift assertion: the incremental cost must match a full
    // recompute, or moveDelta() has diverged from the objective.
    double full = fullCost();
    NUPEA_ASSERT(std::abs(cost - full) <=
                     1e-6 * std::max(1.0, std::abs(full)),
                 "annealer cost drift: incremental ", cost,
                 " vs full recompute ", full);
}

} // namespace

double
annealTemperature(std::uint64_t i, std::uint64_t total)
{
    return kTBegin * std::pow(kTEnd / kTBegin, static_cast<double>(i) /
                                                   static_cast<double>(total));
}

bool
metropolisRejects(double u, double delta, std::uint64_t i,
                  std::uint64_t total)
{
    std::uint64_t begin = i - i % kTempBlock;
    return rejectsUphill(u, delta, annealTemperature(begin, total),
                         annealTemperature(begin + kTempBlock, total), i,
                         total);
}

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
    if (options.iterationsPerNode < 0)
        fatal("PlacerOptions::iterationsPerNode must be >= 0, got ",
              options.iterationsPerNode);

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
