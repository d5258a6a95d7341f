#include "compiler/placement.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "common/log.h"
#include "sim/trace.h"

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

/** The historical annealing temperature schedule endpoints. Chain 0
 *  always uses kTBegin; later portfolio chains perturb their start. */
constexpr double kTBegin = 12.0;
constexpr double kTEnd = 0.05;

int
fuIndex(FuClass fu)
{
    return static_cast<int>(fu);
}

/**
 * Derive chain k's RNG seed from the base seed (splitmix64 finalizer
 * over a golden-ratio stride). Chain 0 keeps the base seed verbatim
 * so its stream is the historical single-seed placer's.
 */
std::uint64_t
mixChainSeed(std::uint64_t base, std::uint64_t chain)
{
    std::uint64_t z = base + 0x9E3779B97F4A7C15ull * chain;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * Read-only lookups for one placeGraph call, shared by its chains.
 * The annealer's cost and legality checks read these instead of the
 * graph's node records and the topology's per-tile queries.
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

/** One annealing chain: working state for initial placement and a
 *  resumable, epoch-sliced anneal with incremental cost tracking. */
class PlacerState
{
  public:
    PlacerState(const Graph &graph, const Topology &topo,
                const PlacerOptions &options, const PlacerTables &tables,
                std::uint64_t seed, double t_begin, double p_local)
        : graph_(graph), topo_(topo), options_(options), tables_(tables),
          rng_(seed), tBegin_(t_begin), pLocal_(p_local),
          schedTotal_(static_cast<std::uint64_t>(
                          options.iterationsPerNode) *
                      graph.numNodes()),
          pos_(graph.numNodes(), Coord{-1, -1}),
          occupants_(static_cast<std::size_t>(topo.numTiles()))
    {}

    const Placement
    placement() const
    {
        Placement p;
        p.pos = pos_;
        return p;
    }

    const std::vector<Coord> &positions() const { return pos_; }
    double cost() const { return cost_; }
    std::uint64_t accepted() const { return accepted_; }
    std::uint64_t moveIndex() const { return moveIndex_; }

    /** Temperature the next move will anneal at. Moves past the
     *  chain's own schedule (reclaimed budget) run fully quenched. */
    double
    currentTemp() const
    {
        return tempAt(moveIndex_);
    }

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
    void annealMoves(std::uint64_t count);

    /** Seed the incremental cost tracker from a full recompute;
     *  call once after initialPlace(). */
    void
    initCost()
    {
        cost_ = fullCost();
    }

    /**
     * Drift assertion (anneal end): the incremental cost bookkeeping
     * must match a full recompute. Catches silent divergence between
     * localCost() deltas and the placementCost() model.
     */
    void
    assertCostInSync() const
    {
        double full = fullCost();
        double tol = 1e-6 * std::max(1.0, std::abs(full));
        NUPEA_ASSERT(std::abs(cost_ - full) <= tol,
                     "annealer cost drift: incremental ", cost_,
                     " vs full recompute ", full);
    }

    Rng &rng() { return rng_; }

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
        if (i >= schedTotal_)
            return kTEnd;
        return tBegin_ *
               std::pow(kTEnd / tBegin_,
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
    double tBegin_;             ///< chain's schedule start temperature
    double pLocal_;             ///< short-range move probability
    std::uint64_t schedTotal_;  ///< chain's own annealing schedule
    std::uint64_t moveIndex_ = 0;
    std::uint64_t accepted_ = 0;
    double cost_ = 0.0; ///< incremental objective (see initCost)
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
PlacerState::annealMoves(std::uint64_t count)
{
    const std::size_t n = graph_.numNodes();
    if (n == 0)
        return;

    const std::uint64_t end = moveIndex_ + count;
    for (; moveIndex_ < end; ++moveIndex_) {
        NodeId a = static_cast<NodeId>(rng_.below(n));
        FuClass fu = tables_.fu[a];
        Coord from = pos_[a];
        Coord to;
        // Diversified chains mix in short-range moves. The gate
        // short-circuits before drawing, so an unperturbed chain
        // (pLocal == 0: chain 0 and every chains=1 run) consumes
        // exactly the historical RNG stream.
        if (pLocal_ > 0.0 && rng_.chance(pLocal_)) {
            to = Coord{from.row +
                           static_cast<std::int32_t>(rng_.below(5)) - 2,
                       from.col +
                           static_cast<std::int32_t>(rng_.below(5)) - 2};
            if (!topo_.inBounds(to))
                continue;
        } else {
            to = Coord{static_cast<std::int32_t>(rng_.below(
                           static_cast<std::uint64_t>(topo_.rows()))),
                       static_cast<std::int32_t>(rng_.below(
                           static_cast<std::uint64_t>(topo_.cols())))};
        }
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
            rng_.uniform() >= std::exp(-delta / tempAt(moveIndex_))) {
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
            // placementCost() — assertCostInSync() enforces this.
            cost_ += delta;
            ++accepted_;
        }
    }
}

} // namespace

bool
placementLegal(const Graph &graph, const Topology &topo,
               const Placement &placement, std::string *why)
{
    if (placement.pos.size() != graph.numNodes()) {
        if (why)
            *why = "placement size mismatch";
        return false;
    }
    std::vector<std::array<int, kNumFuClasses>> used(
        static_cast<std::size_t>(topo.numTiles()), {0, 0, 0, 0});
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        Coord c = placement.pos[id];
        if (!topo.inBounds(c)) {
            if (why)
                *why = formatMessage("node ", id, " off fabric");
            return false;
        }
        FuClass fu = opTraits(graph.node(id).op).fu;
        int idx = topo.tileIndex(c);
        auto &u = used[static_cast<std::size_t>(idx)]
                      [static_cast<std::size_t>(fuIndex(fu))];
        ++u;
        if (u > topo.slots(c).forClass(fu)) {
            if (why) {
                *why = formatMessage("tile ", c.str(),
                                     " over capacity for FU class ",
                                     fuIndex(fu));
            }
            return false;
        }
    }
    return true;
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

namespace
{

/** One chain plus the driver's barrier-side bookkeeping. */
struct ChainRun
{
    std::unique_ptr<PlacerState> state;
    std::uint64_t seed = 0;
    std::uint64_t scheduled = 0; ///< total moves this chain may run
    std::uint64_t executed = 0;
    double bestCost = 0.0;      ///< best epoch-boundary cost
    std::vector<Coord> bestPos; ///< snapshot at bestCost
    bool alive = true;
    int killedAtEpoch = -1;
};

} // namespace

Placement
placeGraph(const Graph &graph, const Topology &topo,
           const PlacerOptions &options, PortfolioStats *stats)
{
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
    const PortfolioOptions &pf = options.portfolio;
    const int chains = std::max(1, pf.chains);
    const std::size_t n = graph.numNodes();
    const std::uint64_t schedule =
        static_cast<std::uint64_t>(options.iterationsPerNode) * n;

    if (chains == 1) {
        // The historical single-seed placer: one unperturbed chain,
        // final state returned (not the best snapshot), bit-for-bit
        // identical RNG stream.
        PlacerState state(graph, topo, options, tables, options.seed,
                          kTBegin, /*p_local=*/0.0);
        state.initialPlace();
        state.initCost();
        state.annealMoves(schedule);
        state.assertCostInSync();

        Placement result = state.placement();
        std::string why;
        if (!placementLegal(graph, topo, result, &why))
            panic("placer produced illegal placement: ", why);
        if (stats) {
            stats->chains.assign(1, PlacerChainStats{});
            PlacerChainStats &cs = stats->chains[0];
            cs.seed = options.seed;
            cs.moves = state.moveIndex();
            cs.accepted = state.accepted();
            cs.finalCost = state.cost();
            cs.bestCost = state.cost();
            cs.winner = true;
            stats->epochs = 0;
            stats->winnerChain = 0;
            stats->winnerCost =
                placementCost(graph, topo, result, options);
        }
        return result;
    }

    // Portfolio mode. Each chain's segment is a pure function of its
    // seed and move schedule, and every barrier decision below is a
    // function of those per-chain results — so the chosen placement
    // is a pure function of the options.
    const std::uint64_t epoch_len = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::max(1, pf.epochMovesPerNode)) *
               n);
    const std::uint64_t max_budget = std::max(
        schedule, static_cast<std::uint64_t>(
                      kMaxChainBudgetFactor * static_cast<double>(schedule)));

    std::vector<ChainRun> runs(static_cast<std::size_t>(chains));
    for (int k = 0; k < chains; ++k) {
        ChainRun &run = runs[static_cast<std::size_t>(k)];
        std::uint64_t seed = options.seed;
        double t_begin = kTBegin;
        double p_local = 0.0;
        if (k > 0) {
            seed = mixChainSeed(options.seed,
                                static_cast<std::uint64_t>(k));
            // Chain-indexed perturbations: start temperature in
            // [0.6, 1.5] x the default, short-range move mix up to
            // 45%. Chain 0 stays the reference schedule.
            std::uint64_t bits = mixChainSeed(seed, 0x70F0ull);
            double u1 = static_cast<double>((bits >> 11) & 0x3FFFFF) /
                        static_cast<double>(0x400000);
            double u2 = static_cast<double>((bits >> 33) & 0x3FFFFF) /
                        static_cast<double>(0x400000);
            t_begin = kTBegin * (0.6 + 0.9 * u1);
            p_local = 0.45 * u2;
        }
        run.seed = seed;
        run.scheduled = schedule;
        run.state = std::make_unique<PlacerState>(
            graph, topo, options, tables, seed, t_begin, p_local);
    }

    // Epoch 0: initial placements + cost seeding.
    for (int k = 0; k < chains; ++k) {
        ChainRun &run = runs[static_cast<std::size_t>(k)];
        run.state->initialPlace();
        run.state->initCost();
        run.bestCost = run.state->cost();
        run.bestPos = run.state->positions();
        if (pf.trace) {
            pf.trace->onPlacerEpoch(k, 0, 0, run.state->currentTemp(),
                                    run.state->cost(), run.bestCost,
                                    /*alive=*/true);
        }
    }

    int epoch = 0;
    for (;;) {
        std::vector<int> running;
        for (int k = 0; k < chains; ++k) {
            const ChainRun &run = runs[static_cast<std::size_t>(k)];
            if (run.alive && run.executed < run.scheduled)
                running.push_back(k);
        }
        if (running.empty())
            break;
        ++epoch;

        // Run each live chain's segment in chain order, then snapshot
        // its improvement for the barrier below.
        for (int k : running) {
            ChainRun &run = runs[static_cast<std::size_t>(k)];
            std::uint64_t step =
                std::min(epoch_len, run.scheduled - run.executed);
            run.state->annealMoves(step);
            run.executed += step;
            double cost = run.state->cost();
            if (cost < run.bestCost) {
                run.bestCost = cost;
                run.bestPos = run.state->positions();
            }
        }

        // Kill rule: the leader (lowest best cost, lowest index on
        // ties) is immune; any other live chain dominated beyond the
        // margin stops here and donates its unspent budget.
        int leader = -1;
        for (int k = 0; k < chains; ++k) {
            const ChainRun &run = runs[static_cast<std::size_t>(k)];
            if (run.alive &&
                (leader < 0 ||
                 run.bestCost <
                     runs[static_cast<std::size_t>(leader)].bestCost))
                leader = k;
        }
        std::uint64_t reclaimed = 0;
        double leader_best =
            runs[static_cast<std::size_t>(leader)].bestCost;
        for (int k = 0; k < chains; ++k) {
            ChainRun &run = runs[static_cast<std::size_t>(k)];
            if (!run.alive || k == leader)
                continue;
            if (run.bestCost > leader_best * (1.0 + pf.killMargin)) {
                run.alive = false;
                run.killedAtEpoch = epoch;
                reclaimed += run.scheduled - run.executed;
                run.scheduled = run.executed;
            }
        }

        // Reassign reclaimed budget to survivors below the cap; the
        // integer-division remainder is dropped (deterministically).
        if (reclaimed > 0) {
            std::vector<int> takers;
            for (int k = 0; k < chains; ++k) {
                const ChainRun &run = runs[static_cast<std::size_t>(k)];
                if (run.alive && run.scheduled < max_budget)
                    takers.push_back(k);
            }
            if (!takers.empty()) {
                std::uint64_t share = reclaimed / takers.size();
                for (int k : takers) {
                    ChainRun &run = runs[static_cast<std::size_t>(k)];
                    run.scheduled =
                        std::min(max_budget, run.scheduled + share);
                }
            }
        }

        if (pf.trace) {
            for (int k : running) {
                const ChainRun &run = runs[static_cast<std::size_t>(k)];
                pf.trace->onPlacerEpoch(
                    k, epoch, run.executed, run.state->currentTemp(),
                    run.state->cost(), run.bestCost, run.alive);
            }
        }
    }

    // Drift assertion for every chain that annealed (killed chains
    // are consistent at the point they stopped).
    for (const ChainRun &run : runs)
        run.state->assertCostInSync();

    // Winner: lowest best cost among survivors, lowest chain index
    // (= seed order) on ties. A killed chain can never win: a kill
    // requires best > leaderBest * (1 + margin) at some barrier, and
    // the surviving minimum only decreases after that.
    int winner = -1;
    for (int k = 0; k < chains; ++k) {
        const ChainRun &run = runs[static_cast<std::size_t>(k)];
        if (run.alive &&
            (winner < 0 ||
             run.bestCost <
                 runs[static_cast<std::size_t>(winner)].bestCost))
            winner = k;
    }
    NUPEA_ASSERT(winner >= 0, "portfolio anneal killed every chain");

    // Verify every surviving chain's placement, not just the winner.
    for (int k = 0; k < chains; ++k) {
        const ChainRun &run = runs[static_cast<std::size_t>(k)];
        if (!run.alive)
            continue;
        Placement p;
        p.pos = run.bestPos;
        std::string why;
        if (!placementLegal(graph, topo, p, &why)) {
            panic("portfolio chain ", k,
                  " produced illegal placement: ", why);
        }
    }

    Placement result;
    result.pos = runs[static_cast<std::size_t>(winner)].bestPos;
    if (stats) {
        stats->chains.assign(static_cast<std::size_t>(chains),
                             PlacerChainStats{});
        for (int k = 0; k < chains; ++k) {
            const ChainRun &run = runs[static_cast<std::size_t>(k)];
            PlacerChainStats &cs =
                stats->chains[static_cast<std::size_t>(k)];
            cs.seed = run.seed;
            cs.moves = run.executed;
            cs.accepted = run.state->accepted();
            cs.finalCost = run.state->cost();
            cs.bestCost = run.bestCost;
            cs.killedAtEpoch = run.killedAtEpoch;
            cs.winner = (k == winner);
        }
        stats->epochs = epoch;
        stats->winnerChain = winner;
        stats->winnerCost = placementCost(graph, topo, result, options);
    }
    return result;
}

} // namespace nupea
