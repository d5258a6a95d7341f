#include "analysis/hazards.h"

#include <algorithm>
#include <vector>

#include "common/log.h"

namespace nupea
{

namespace
{

/** perf.recurrence-bound fires when the recurrence bound exceeds
 *  every throughput bound by this factor. */
constexpr double kRecurrenceDominanceFactor = 4.0;
/** perf.bank-hotspot fires when the busiest port's load exceeds the
 *  mean active-port load by this factor. */
constexpr double kHotspotFactor = 4.0;

} // namespace

DiagnosticReport
analyzePlacementHazards(const Graph &graph, const Placement &placement,
                        const Topology &topo,
                        const ExecutionProfile &profile,
                        const PerfPrediction &prediction)
{
    DiagnosticReport report;
    const std::size_t n = graph.numNodes();
    NUPEA_ASSERT(profile.memNodes.size() == n,
                 "profile does not match the graph");

    // --- perf.recurrence-bound -------------------------------------
    const PerfBounds &b = prediction.bounds;
    double throughput =
        std::max({b.nodeThroughput, b.memThroughput, b.portThroughput,
                  b.bankThroughput});
    // Only when the recurrence is the run's actual story: it must
    // dwarf every throughput bound AND top the FIFO-backpressure
    // bound — a backpressure-limited loop is fixed with deeper
    // FIFOs, not less recurrence.
    if (b.recurrence > 0.0 && throughput > 0.0 &&
        b.recurrence >= kRecurrenceDominanceFactor * throughput &&
        b.recurrence >= b.loopBackpressure &&
        !prediction.loops.empty()) {
        const LoopIIBound &loop = prediction.loops.front();
        std::string msg = formatMessage(
            "loop recurrence bounds the run at ", loop.totalCycles,
            " fabric cycles (II ", loop.recurrenceII, "), ",
            b.recurrence / throughput,
            "x the best throughput bound; extra bandwidth cannot help");
        if (loop.merge != kInvalidId)
            report.addNode(DiagId::PerfRecurrenceBound, graph, loop.merge,
                           std::move(msg));
        else
            report.add(DiagId::PerfRecurrenceBound, std::move(msg));
    }

    // --- Port loads and per-column traffic -------------------------
    std::vector<double> port_load(
        static_cast<std::size_t>(std::max(0, topo.memPorts())), 0.0);
    std::vector<NodeId> port_top(port_load.size(), kInvalidId);
    std::vector<std::uint64_t> col_load(
        static_cast<std::size_t>(topo.cols()), 0);
    bool slow_classified = false; ///< classified traffic in domain >= 1
    NodeId slow_example = kInvalidId;
    for (NodeId id = 0; id < n; ++id) {
        const MemNodeProfile &m = profile.memNodes[id];
        if (m.accesses == 0)
            continue;
        Coord tile = placement.of(id);
        int domain = topo.domainOf(tile);
        if (domain < 0)
            continue;
        col_load[static_cast<std::size_t>(tile.col)] += m.accesses;
        int port = topo.portOf(tile);
        if (port >= 0 && port < static_cast<int>(port_load.size())) {
            auto p = static_cast<std::size_t>(port);
            port_load[p] += static_cast<double>(m.accesses);
            if (port_top[p] == kInvalidId ||
                m.accesses > profile.memNodes[port_top[p]].accesses)
                port_top[p] = id;
        }
        if (domain >= 1 && graph.node(id).crit != Criticality::None &&
            !slow_classified) {
            slow_classified = true;
            slow_example = id;
        }
    }

    // --- perf.bank-hotspot -----------------------------------------
    double total = 0.0, peak = 0.0;
    std::size_t active = 0, peak_port = 0;
    for (std::size_t p = 0; p < port_load.size(); ++p) {
        if (port_load[p] <= 0.0)
            continue;
        total += port_load[p];
        ++active;
        if (port_load[p] > peak) {
            peak = port_load[p];
            peak_port = p;
        }
    }
    if (active >= 2) {
        double mean = total / static_cast<double>(active);
        if (peak >= kHotspotFactor * mean) {
            report.addNode(
                DiagId::PerfBankHotspot, graph, port_top[peak_port],
                formatMessage("memory port ", peak_port, " carries ", peak,
                              " accesses, ", peak / mean,
                              "x the mean active-port load (", mean, ")"));
        }
    }

    // --- perf.underutilized-column ---------------------------------
    if (slow_classified) {
        for (int col = 0; col < topo.cols(); ++col) {
            // A D0 column: some LS row has this column in domain 0.
            bool is_d0 = false;
            for (int row = 0; row < topo.rows() && !is_d0; ++row) {
                Coord c{row, col};
                is_d0 = topo.isLs(c) && topo.domainOf(c) == 0;
            }
            if (!is_d0 || col_load[static_cast<std::size_t>(col)] != 0)
                continue;
            report.addNode(
                DiagId::PerfUnderutilizedColumn, graph, slow_example,
                formatMessage(
                    "fast-domain column ", col,
                    " carries no memory traffic while classified memory "
                    "instructions sit in slower domains"));
            break; // one finding is enough to flag the placement
        }
    }

    return report;
}

} // namespace nupea
