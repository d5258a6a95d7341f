#include "compiler/criticality.h"

#include "common/scc.h"

namespace nupea
{

CriticalityStats
analyzeCriticality(Graph &graph)
{
    // Read through a const view and write only `crit`, so the fanout
    // cache the graph's last structural check built stays valid.
    const Graph &g = graph;
    const std::size_t n = g.numNodes();

    // Dataflow adjacency (producer -> consumer) over value edges.
    std::vector<std::vector<std::uint32_t>> adj(n);
    for (NodeId id = 0; id < n; ++id) {
        for (const InputConn &in : g.node(id).inputs) {
            if (!in.isImm && in.src != kInvalidId)
                adj[in.src].push_back(id);
        }
    }

    SccResult scc = computeScc(adj);

    // A recurrence is a cyclic component carrying a loop merge.
    std::vector<bool> comp_is_recurrence(scc.numComponents(), false);
    for (NodeId id = 0; id < n; ++id) {
        if (g.node(id).op == Op::LoopMerge &&
            scc.cyclic[scc.component[id]]) {
            comp_is_recurrence[scc.component[id]] = true;
        }
    }

    CriticalityStats stats;
    for (std::uint32_t comp = 0; comp < scc.numComponents(); ++comp)
        stats.recurrences += comp_is_recurrence[comp];

    for (NodeId id = 0; id < n; ++id) {
        const Node &node = g.node(id);
        if (!opTraits(node.op).isMemory) {
            graph.setCrit(id, Criticality::None);
            continue;
        }
        if (comp_is_recurrence[scc.component[id]]) {
            graph.setCrit(id, Criticality::Critical);
            ++stats.critical;
        } else if (node.loop != kInvalidId &&
                   !g.loopInfo(node.loop).hasChildren) {
            graph.setCrit(id, Criticality::InnerLoop);
            ++stats.innerLoop;
        } else {
            graph.setCrit(id, Criticality::OtherMem);
            ++stats.otherMem;
        }
    }
    return stats;
}

} // namespace nupea
