#include "compiler/report.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

namespace nupea
{

namespace
{

/** Average ranks (1-based, ties averaged) of `values`. */
std::vector<double>
averageRanks(const std::vector<double> &values)
{
    const std::size_t n = values.size();
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return values[a] < values[b];
              });
    std::vector<double> rank(n, 0.0);
    std::size_t i = 0;
    while (i < n) {
        std::size_t j = i;
        while (j + 1 < n && values[order[j + 1]] == values[order[i]])
            ++j;
        double mean = (static_cast<double>(i) + static_cast<double>(j)) /
                          2.0 +
                      1.0;
        for (std::size_t k = i; k <= j; ++k)
            rank[order[k]] = mean;
        i = j + 1;
    }
    return rank;
}

/** Pearson correlation of two equal-length series (1.0 when either
 *  side has no variance or there are fewer than two points). */
double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    const std::size_t n = x.size();
    if (n < 2)
        return 1.0;
    double mx = 0.0, my = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        mx += x[i];
        my += y[i];
    }
    mx /= static_cast<double>(n);
    my /= static_cast<double>(n);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sxy += (x[i] - mx) * (y[i] - my);
        sxx += (x[i] - mx) * (x[i] - mx);
        syy += (y[i] - my) * (y[i] - my);
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 1.0;
    return sxy / std::sqrt(sxx * syy);
}

} // namespace

std::string
placementMap(const Graph &graph, const Topology &topo,
             const Placement &placement)
{
    // Rank per tile: higher wins the single display character.
    // 0 empty, 1 arith, 2 control, 3 other-mem, 4 inner, 5 critical.
    std::vector<int> rank(static_cast<std::size_t>(topo.numTiles()), 0);
    std::vector<int> count(static_cast<std::size_t>(topo.numTiles()), 0);

    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        const Node &n = graph.node(id);
        auto tile = static_cast<std::size_t>(
            topo.tileIndex(placement.of(id)));
        ++count[tile];
        int r = 1;
        if (opTraits(n.op).fu == FuClass::Control)
            r = 2;
        if (opTraits(n.op).isMemory) {
            switch (n.crit) {
              case Criticality::Critical: r = 5; break;
              case Criticality::InnerLoop: r = 4; break;
              default: r = 3; break;
            }
        }
        rank[tile] = std::max(rank[tile], r);
    }

    static const char kGlyph[] = {'.', 'a', 'c', 'M', 'I', 'C'};
    std::ostringstream os;
    for (int r = 0; r < topo.rows(); ++r) {
        for (int c = 0; c < topo.cols(); ++c) {
            auto tile =
                static_cast<std::size_t>(topo.tileIndex({r, c}));
            char glyph = kGlyph[rank[tile]];
            // Mark multi-instruction compute tiles.
            if (rank[tile] > 0 && rank[tile] < 3 && count[tile] > 1)
                glyph = '*';
            os << glyph << ' ';
        }
        os << "|";
        if (topo.lsRowIndex(r) >= 0)
            os << " LS row " << topo.lsRowIndex(r);
        os << "\n";
    }
    os << "(C=critical, I=inner-loop, M=other memory; column 0 is "
          "nearest memory)\n";
    return os.str();
}

std::string
domainSummary(const Graph &graph, const Topology &topo,
              const Placement &placement)
{
    std::ostringstream os;
    for (Criticality c : {Criticality::Critical, Criticality::InnerLoop,
                          Criticality::OtherMem}) {
        std::vector<int> per_domain(
            static_cast<std::size_t>(topo.numDomains()), 0);
        int total = 0;
        for (NodeId id = 0; id < graph.numNodes(); ++id) {
            if (graph.node(id).crit != c)
                continue;
            ++per_domain[static_cast<std::size_t>(
                topo.domainOf(placement.of(id)))];
            ++total;
        }
        if (total == 0)
            continue;
        os << criticalityName(c) << ":";
        for (int d = 0; d < topo.numDomains(); ++d)
            os << " D" << d << "="
               << per_domain[static_cast<std::size_t>(d)];
        os << "\n";
    }
    return os.str();
}

CritRankValidation
validateCriticalityRanks(const Graph &graph,
                         const std::vector<Distribution> &node_mem_latency)
{
    CritRankValidation v;
    for (Criticality c : {Criticality::Critical, Criticality::InnerLoop,
                          Criticality::OtherMem}) {
        CritClassLatency row;
        row.crit = c;
        double sum = 0.0;
        for (NodeId id = 0; id < graph.numNodes(); ++id) {
            const Node &n = graph.node(id);
            if (!opTraits(n.op).isMemory || n.crit != c)
                continue;
            ++row.nodes;
            if (id < node_mem_latency.size()) {
                const Distribution &d = node_mem_latency[id];
                row.samples += d.count();
                sum += d.sum();
            }
        }
        if (row.nodes == 0)
            continue;
        if (row.samples > 0)
            row.meanLatency = sum / static_cast<double>(row.samples);
        v.classes.push_back(row);
    }

    // Per-node Spearman: predicted rank is the criticality class
    // (lower = faster promised path), measured is the node's mean
    // latency over its own samples.
    std::vector<double> predicted, measured;
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        const Node &n = graph.node(id);
        if (!opTraits(n.op).isMemory || n.crit == Criticality::None)
            continue;
        if (id >= node_mem_latency.size() ||
            node_mem_latency[id].count() == 0)
            continue;
        const Distribution &d = node_mem_latency[id];
        predicted.push_back(static_cast<double>(n.crit));
        measured.push_back(d.sum() / static_cast<double>(d.count()));
    }
    v.rankCorrelation =
        pearson(averageRanks(predicted), averageRanks(measured));

    // Predicted order is fastest-first, so measured means must be
    // non-decreasing across the classes that actually sampled.
    double prev = -1.0;
    for (const CritClassLatency &row : v.classes) {
        if (row.samples == 0)
            continue;
        if (row.meanLatency + 1e-9 < prev)
            v.rankConsistent = false;
        prev = row.meanLatency;
    }

    std::ostringstream os;
    os << "criticality rank validation (measured mem latency, system "
          "cycles):\n";
    if (v.classes.empty())
        os << "  (no classified memory nodes)\n";
    for (const CritClassLatency &row : v.classes) {
        os << "  " << criticalityName(row.crit) << ": nodes="
           << row.nodes << " samples=" << row.samples;
        if (row.samples > 0) {
            os << " mean=" << row.meanLatency;
        } else {
            os << " mean=n/a";
        }
        os << "\n";
    }
    os << "  measured ranks match prediction: "
       << (v.rankConsistent ? "yes" : "NO") << "\n";
    os << "  per-node rank correlation: " << v.rankCorrelation << "\n";
    v.table = os.str();
    return v;
}

} // namespace nupea
