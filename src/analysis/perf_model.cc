#include "analysis/perf_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/log.h"
#include "common/scc.h"

namespace nupea
{

namespace
{

/** Accesses of `m` to lines local to NUMA group `group`. Exact when
 *  the group count divides kLineGroups; uniform fallback else. */
double
localCount(const MemNodeProfile &m, const MemPath &path, int group)
{
    if (kLineGroups % path.numaDomains() != 0)
        return static_cast<double>(m.accesses) / path.numaDomains();
    std::uint64_t count = 0;
    for (int g = 0; g < kLineGroups; ++g) {
        if (path.localLine(static_cast<std::uint64_t>(g), group))
            count += m.lineGroup[static_cast<std::size_t>(g)];
    }
    return static_cast<double>(count);
}

/** Node latency in fabric cycles as seen by a consumer: control is
 *  combinational (0), arithmetic/xdata takes one cycle, memory takes
 *  its per-access fabric latency. */
double
nodeLatency(const Node &n, double access_fab)
{
    const OpTraits &traits = opTraits(n.op);
    if (traits.isMemory)
        return access_fab;
    return traits.combinational ? 0.0 : 1.0;
}

/** True for the input edges that close a loop ring: the LoopMerge
 *  back/ctrl inputs and the Invariant(-Gated) ctrl input. Dropping
 *  them leaves the steering-control form acyclic. */
bool
isBackEdge(const Node &dst, std::size_t port)
{
    if (dst.op == Op::LoopMerge)
        return port >= 1;
    if (dst.op == Op::Invariant || dst.op == Op::InvariantGated)
        return port == 1;
    return false;
}

/** Per-node working state of longestWeightedPath, sized once per
 *  predictPerformance call. Each pass resets exactly the entries of
 *  its members, so the arrays are all-zero between passes. */
struct PathScratch
{
    explicit PathScratch(std::size_t n) : member(n, 0), indeg(n, 0),
                                          dist(n, 0.0)
    {
    }

    std::vector<std::uint8_t> member;
    std::vector<std::uint32_t> indeg;
    std::vector<double> dist;
    std::vector<NodeId> order;
};

/**
 * Longest path over a node subset of the de-cycled graph, with
 * per-node weights. `members` lists the subset in ascending id order;
 * edges whose endpoint is outside the subset are ignored. Kahn's
 * algorithm, O(members + their edges); if a residual cycle survives
 * de-cycling (malformed graph), falls back to the ascending-id sum of
 * all member weights — a safe overestimate.
 */
double
longestWeightedPath(const Graph &graph, const std::vector<NodeId> &members,
                    const std::vector<double> &weight, PathScratch &s)
{
    for (NodeId id : members)
        s.member[id] = 1;
    for (NodeId id : members) {
        const Node &node = graph.node(id);
        for (std::size_t p = 0; p < node.inputs.size(); ++p) {
            const InputConn &in = node.inputs[p];
            if (in.isImm || in.src == kInvalidId || !s.member[in.src])
                continue;
            if (isBackEdge(node, p))
                continue;
            ++s.indeg[id];
        }
    }

    s.order.clear();
    for (NodeId id : members) {
        if (s.indeg[id] == 0) {
            s.order.push_back(id);
            s.dist[id] = weight[id];
        }
    }
    double best = 0.0;
    const auto &fanout = graph.fanout();
    for (std::size_t head = 0; head < s.order.size(); ++head) {
        NodeId id = s.order[head];
        best = std::max(best, s.dist[id]);
        for (const PortRef &dst : fanout[id]) {
            if (!s.member[dst.node] ||
                isBackEdge(graph.node(dst.node), dst.port))
                continue;
            s.dist[dst.node] = std::max(s.dist[dst.node],
                                        s.dist[id] + weight[dst.node]);
            if (--s.indeg[dst.node] == 0)
                s.order.push_back(dst.node);
        }
    }
    if (s.order.size() < members.size()) {
        // Residual cycle: serialize everything (overestimate).
        best = 0.0;
        for (NodeId id : members)
            best += weight[id];
    }
    for (NodeId id : members) {
        s.member[id] = 0;
        s.indeg[id] = 0;
        s.dist[id] = 0.0;
    }
    return best;
}

} // namespace

PerfPrediction
predictPerformance(const Graph &graph, const Placement &placement,
                   const Topology &topo,
                   const ExecutionProfile &profile,
                   const PerfModelConfig &config)
{
    const std::size_t n = graph.numNodes();
    NUPEA_ASSERT(profile.fires.size() == n && profile.memNodes.size() == n,
                 "profile does not match the graph");
    const int divider = std::max(1, config.clockDivider);
    const double div = divider;
    const int max_outstanding = std::max(1, config.maxOutstanding);
    const int line_bytes = std::max(1, config.memsys.cache.lineBytes);
    const MemPath path(config.mem, divider, topo, line_bytes);

    PerfPrediction pred;

    // --- Cache hit rate from the footprint -------------------------
    // Compulsory misses: one per distinct line. Capacity: once the
    // footprint exceeds the cache, the re-reference miss rate is at
    // least the fraction of the footprint that cannot stay resident.
    double accesses = static_cast<double>(profile.totalAccesses);
    if (accesses > 0.0) {
        double distinct = static_cast<double>(profile.distinctLines) *
                          kProfileLineBytes / line_bytes;
        distinct = std::max(1.0, distinct);
        double footprint = distinct * line_bytes;
        double cache_bytes =
            static_cast<double>(config.memsys.cache.sizeBytes);
        double miss = distinct / accesses;
        if (footprint > cache_bytes && cache_bytes > 0.0)
            miss = std::max(miss, 1.0 - cache_bytes / footprint);
        pred.hitRate = std::clamp(1.0 - miss, 0.0, 1.0);
    }
    const double bank_sys =
        pred.hitRate * static_cast<double>(config.memsys.cacheHitLatency) +
        (1.0 - pred.hitRate) *
            static_cast<double>(config.memsys.cacheHitLatency +
                                config.memsys.mainMemLatency);

    // --- Per-memory-node access latency + port/bank loads ----------
    std::vector<double> access_fab(n, 0.0); ///< per-access, fabric cyc
    std::vector<double> remote(n, 0.0);     ///< non-local access count
    std::vector<double> port_load(
        path.arbitrated() ? static_cast<std::size_t>(topo.memPorts()) : 0,
        0.0);
    std::vector<double> arb_load(path.numArbiters(), 0.0);
    std::array<double, kLineGroups> bank_load{};
    const int banks = std::max(1, config.memsys.banks);
    const bool exact_banks = kLineGroups % banks == 0;

    double latency_weighted = 0.0;
    for (NodeId id = 0; id < n; ++id) {
        const MemNodeProfile &m = profile.memNodes[id];
        if (m.accesses == 0)
            continue;
        Coord tile = placement.of(id);
        const int stages = path.arbStages(tile);
        NUPEA_ASSERT(stages >= 0, "memory node off an LS tile");
        double local =
            path.grouped() ? localCount(m, path, path.group(tile)) : 0.0;
        double frac = local / static_cast<double>(m.accesses);
        // One system cycle per arbiter stage each way, plus the remote
        // share of the UPEA delay.
        double net_sys = 2.0 * stages + path.remoteDelay(1.0 - frac);
        remote[id] = static_cast<double>(m.accesses) - local;
        double access_sys = net_sys + bank_sys;
        access_fab[id] = std::max(1.0, access_sys / div);
        latency_weighted += access_sys * static_cast<double>(m.accesses);

        if (path.arbitrated()) {
            int ls_row = topo.lsRowIndex(tile.row);
            port_load[static_cast<std::size_t>(topo.portOf(tile))] +=
                remote[id];
            for (int d = 1; d <= stages; ++d)
                arb_load[path.arbIndex(ls_row, d)] += remote[id];
        }
        if (exact_banks) {
            for (int g = 0; g < kLineGroups; ++g)
                bank_load[static_cast<std::size_t>(g % banks)] +=
                    static_cast<double>(
                        m.lineGroup[static_cast<std::size_t>(g)]);
        }
    }
    if (accesses > 0.0)
        pred.avgMemLatency = latency_weighted / accesses;

    // --- Throughput bounds -----------------------------------------
    PerfBounds &b = pred.bounds;
    for (NodeId id = 0; id < n; ++id) {
        b.nodeThroughput = std::max(
            b.nodeThroughput, static_cast<double>(profile.fires[id]));
        const MemNodeProfile &m = profile.memNodes[id];
        if (m.accesses > 0)
            b.memThroughput = std::max(
                b.memThroughput,
                static_cast<double>(m.accesses) *
                    std::max(1.0, access_fab[id] / max_outstanding));
    }
    for (double load : port_load)
        b.portThroughput = std::max(b.portThroughput, load / div);
    for (double load : arb_load)
        b.portThroughput = std::max(b.portThroughput, load / div);
    if (exact_banks) {
        for (int bank = 0; bank < banks; ++bank)
            b.bankThroughput =
                std::max(b.bankThroughput,
                         bank_load[static_cast<std::size_t>(bank)] / div);
    } else {
        b.bankThroughput = accesses / banks / div;
    }

    // --- Recurrence bound: fires-weighted paths inside cyclic SCCs -
    std::vector<double> lat(n, 0.0);
    std::vector<double> fires_weight(n, 0.0);
    for (NodeId id = 0; id < n; ++id) {
        lat[id] = nodeLatency(graph.node(id), access_fab[id]);
        fires_weight[id] =
            static_cast<double>(profile.fires[id]) * lat[id];
    }

    std::vector<std::vector<std::uint32_t>> adj(n);
    const auto &fanout = graph.fanout();
    for (NodeId id = 0; id < n; ++id) {
        adj[id].reserve(fanout[id].size());
        for (const PortRef &dst : fanout[id])
            adj[id].push_back(dst.node);
    }
    SccResult scc = computeScc(adj);
    PathScratch scratch(n);
    // Members of each cyclic SCC, ascending.
    std::vector<std::vector<NodeId>> scc_members(scc.numComponents());
    for (NodeId id = 0; id < n; ++id)
        if (scc.cyclic[scc.component[id]])
            scc_members[scc.component[id]].push_back(id);
    for (std::uint32_t comp = 0; comp < scc.numComponents(); ++comp) {
        if (!scc.cyclic[comp])
            continue;
        const std::vector<NodeId> &members = scc_members[comp];
        NodeId best_merge = kInvalidId;
        std::uint64_t merge_fires = 0;
        for (NodeId id : members) {
            if (graph.node(id).op == Op::LoopMerge &&
                profile.fires[id] >= merge_fires) {
                best_merge = id;
                merge_fires = profile.fires[id];
            }
        }
        double total =
            longestWeightedPath(graph, members, fires_weight, scratch);

        // Static dataflow serializes loop entries: a LoopMerge must
        // drain back to its Init state before the next entry token is
        // admitted, so every entry pays one trip of pipeline refill on
        // top of the steady-state iteration cost. The entry count is
        // the firing count of the merge's init-value producer (its
        // port-0 source, when that source sits outside the ring).
        double iter_lat = longestWeightedPath(graph, members, lat, scratch);
        double entries = 1.0;
        if (best_merge != kInvalidId) {
            const Node &mn = graph.node(best_merge);
            if (!mn.inputs.empty()) {
                const InputConn &init = mn.inputs[0];
                if (!init.isImm && init.src != kInvalidId &&
                    scc.component[init.src] != comp)
                    entries = std::max(
                        1.0,
                        static_cast<double>(profile.fires[init.src]));
            }
        }
        double cycles = total + entries * iter_lat;
        b.recurrence = std::max(b.recurrence, cycles);

        LoopIIBound loop;
        loop.merge = best_merge;
        loop.iterations = merge_fires;
        loop.totalCycles = cycles;
        if (merge_fires > 0)
            loop.recurrenceII =
                total / static_cast<double>(merge_fires);
        pred.loops.push_back(loop);
    }
    std::sort(pred.loops.begin(), pred.loops.end(),
              [](const LoopIIBound &x, const LoopIIBound &y) {
                  return x.totalCycles > y.totalCycles;
              });

    // --- Loop backpressure: shallow FIFOs cap in-flight iterations -
    // A loop's decider fans out to every ring in the body; once the
    // slowest consumer's input ring (depth fifoDepth) fills, the whole
    // ring throttles to at most ~fifoDepth iterations in flight. With
    // a one-iteration body latency of depth_1, the sustained II is at
    // least depth_1 / fifoDepth, so the loop needs at least
    // iterations * depth_1 / fifoDepth cycles. Computed per loop of
    // the Builder's loop tree (Node::loop tags the innermost scope),
    // over that loop's own straight-line body — inner loops carry
    // their own bound. Measured directly: the five dense/DNN
    // workloads' cycle error collapses from ~3-6x to ~15% when the
    // Machine runs with fifoDepth 16 (see DESIGN.md).
    const double fifo_depth = std::max(1, config.fifoDepth);
    // Members of each loop, ascending; kInvalidId (no loop) is skipped.
    std::vector<std::vector<NodeId>> loop_members(graph.numLoops());
    for (NodeId id = 0; id < n; ++id)
        if (graph.node(id).loop < graph.numLoops())
            loop_members[graph.node(id).loop].push_back(id);
    for (LoopId l = 0; l < graph.numLoops(); ++l) {
        const std::vector<NodeId> &body = loop_members[l];
        std::uint64_t iters = 0;
        for (NodeId id : body) {
            if (graph.node(id).op == Op::LoopMerge)
                iters = std::max(iters, profile.fires[id]);
        }
        if (iters == 0)
            continue;
        double depth_1 = longestWeightedPath(graph, body, lat, scratch);
        b.loopBackpressure =
            std::max(b.loopBackpressure, static_cast<double>(iters) *
                                             depth_1 / fifo_depth);
    }

    // --- Pipeline-fill depth over the whole de-cycled graph --------
    std::vector<NodeId> all(n);
    std::iota(all.begin(), all.end(), NodeId{0});
    b.depth = longestWeightedPath(graph, all, lat, scratch);

    // --- Combine ---------------------------------------------------
    struct Named
    {
        double value;
        std::string_view name;
    };
    const Named named[] = {
        {b.nodeThroughput, "node-throughput"},
        {b.memThroughput, "mem-throughput"},
        {b.portThroughput, "port-throughput"},
        {b.bankThroughput, "bank-throughput"},
        {b.recurrence, "recurrence"},
        {b.loopBackpressure, "loop-backpressure"},
    };
    double binding = 0.0;
    pred.dominantBound = "depth";
    for (const Named &nb : named) {
        if (nb.value > binding) {
            binding = nb.value;
            pred.dominantBound = nb.name;
        }
    }
    pred.fabricCycles = binding + b.depth;
    pred.systemCycles = pred.fabricCycles * div;

    // --- Energy ----------------------------------------------------
    for (NodeId id = 0; id < n; ++id) {
        const Node &node = graph.node(id);
        const OpTraits &traits = opTraits(node.op);
        double fires = static_cast<double>(profile.fires[id]);
        double fire_cost = 0.0;
        switch (traits.fu) {
          case FuClass::Arith: fire_cost = config.energy.arithFire; break;
          case FuClass::Control:
            fire_cost = config.energy.controlFire;
            break;
          case FuClass::Mem: fire_cost = config.energy.memIssue; break;
          case FuClass::XData: fire_cost = config.energy.xdataFire; break;
        }
        if (traits.fu == FuClass::Mem)
            pred.energy.memory += fires * fire_cost;
        else
            pred.energy.compute += fires * fire_cost;

        double hop_sum = 0.0;
        Coord src = placement.of(id);
        for (const PortRef &dst : fanout[id])
            hop_sum += config.energy.noCHopPerToken *
                       src.manhattan(placement.of(dst.node));
        pred.energy.network +=
            static_cast<double>(profile.emits[id]) * hop_sum;

        const MemNodeProfile &m = profile.memNodes[id];
        if (m.accesses > 0) {
            double stages = path.energyStages(placement.of(id));
            pred.energy.memory +=
                config.energy.arbHop * stages * remote[id];
            pred.energy.memory +=
                static_cast<double>(m.accesses) *
                (pred.hitRate * config.energy.cacheHit +
                 (1.0 - pred.hitRate) * config.energy.cacheMiss);
        }
    }

    return pred;
}

} // namespace nupea
