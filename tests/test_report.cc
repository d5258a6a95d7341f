/**
 * @file
 * Tests for the PnR report utilities (placement map, per-domain
 * criticality summary and criticality-rank cross-validation).
 */

#include <gtest/gtest.h>

#include <map>

#include "bench/bench_util.h"
#include "compiler/pnr.h"
#include "compiler/report.h"
#include "test_support.h"

namespace nupea
{
namespace
{

TEST(Report, MapShowsCriticalLoadNearMemory)
{
    auto k = test::buildPointerChase(64, 8);
    Topology topo = Topology::makeMonaco(8, 8);
    PnrResult pnr = placeAndRoute(k.graph, topo);
    ASSERT_TRUE(pnr.success);

    std::string map = placementMap(k.graph, topo, pnr.placement);
    // One line per fabric row plus the legend.
    int newlines = 0;
    for (char ch : map)
        newlines += (ch == '\n');
    EXPECT_EQ(newlines, topo.rows() + 1);
    EXPECT_NE(map.find('C'), std::string::npos); // critical load shown
    EXPECT_NE(map.find("LS row"), std::string::npos);

    // The 'C' must be in the leftmost (nearest-memory) column block:
    // find its column within its row.
    std::size_t pos = map.find('C');
    std::size_t line_start = map.rfind('\n', pos);
    line_start = line_start == std::string::npos ? 0 : line_start + 1;
    auto col = static_cast<int>((pos - line_start) / 2);
    EXPECT_LE(col, 2) << "critical load not in D0 columns";
}

TEST(Report, MapMarksEmptyTiles)
{
    Builder b;
    b.sink(b.add(b.source(1), b.source(2)));
    Graph g = b.takeGraph();
    Topology topo = Topology::makeMonaco(8, 8);
    PnrResult pnr = placeAndRoute(g, topo);
    ASSERT_TRUE(pnr.success);
    std::string map = placementMap(g, topo, pnr.placement);
    EXPECT_NE(map.find('.'), std::string::npos);
}

TEST(Report, DomainSummaryListsClasses)
{
    auto k = test::buildStreamJoin(64, 8, 128, 8);
    Topology topo = Topology::makeMonaco(12, 12);
    PnrResult pnr = placeAndRoute(k.graph, topo);
    ASSERT_TRUE(pnr.success);
    std::string summary = domainSummary(k.graph, topo, pnr.placement);
    EXPECT_NE(summary.find("critical:"), std::string::npos);
    EXPECT_NE(summary.find("D0="), std::string::npos);
}

TEST(Report, DomainSummarySkipsEmptyClasses)
{
    // No memory ops at all: summary is empty.
    Builder b;
    b.sink(b.add(b.source(1), b.source(2)));
    Graph g = b.takeGraph();
    Topology topo = Topology::makeMonaco(8, 8);
    PnrResult pnr = placeAndRoute(g, topo);
    ASSERT_TRUE(pnr.success);
    EXPECT_TRUE(domainSummary(g, topo, pnr.placement).empty());
}

/**
 * Pinned regression: the criticality analysis's per-node latency
 * ranks must stay positively correlated with measured per-load
 * latency (Spearman) for every registered workload, above a
 * committed per-workload floor. A drop below the floor means a
 * criticality or placement change degraded the analysis — tighten
 * the floor when the correlation improves, never loosen it to make
 * a regression pass. Floors sit ~0.1 under the values measured at
 * pin time (Monaco 12x12, criticality-aware placement, seed 1).
 */
TEST(Report, CriticalityRankCorrelationPinnedFloors)
{
    static const std::map<std::string, double> kFloors = {
        {"dmv", 0.15},      {"jacobi2d", 0.90}, {"heat3d", 0.90},
        {"spmv", 0.70},     {"spmspm", 0.75},   {"spmspv", 0.65},
        {"spadd", 0.55},    {"tc", 0.35},       {"mergesort", 0.90},
        {"fft", 0.45},      {"ad", 0.70},       {"ic", 0.20},
        {"vww", 0.35},
    };
    Topology topo = Topology::makeMonaco(12, 12);
    for (const std::string &name : workloadNames()) {
        bench::CompileOptions copts;
        copts.saIterationsPerNode = 40;
        bench::CompiledWorkload cw =
            bench::compileWorkload(name, topo, copts);
        MachineConfig config =
            bench::primaryConfig(MemModel::Monaco, 0);
        config.stallAttribution = true;
        bench::BenchRun run = bench::runCompiled(cw, config);
        ASSERT_FALSE(run.nodeMemLatency.empty()) << name;

        CritRankValidation v =
            validateCriticalityRanks(cw.graph, run.nodeMemLatency);
        auto it = kFloors.find(name);
        double floor = it == kFloors.end() ? 0.15 : it->second;
        EXPECT_GE(v.rankCorrelation, floor)
            << name << ": per-node rank correlation regressed\n"
            << v.table;
    }
}

} // namespace
} // namespace nupea
