/**
 * @file
 * Differential regression suite for the Machine hot-path rework.
 *
 * The arena token rings, fused readiness/fire dispatch, and
 * incremental stall attribution are all pure data-layout and
 * bookkeeping changes: simulated results must be bit-identical to
 * the straightforward implementation, with attribution on or off.
 * Three guardrails pin that down for every registered workload:
 *
 *  1. Pinned golden stats (fabric cycles, memory requests, firings,
 *     energy total) for all 13 workloads under the paper's primary
 *     Monaco config — the full-coverage version of the three-app
 *     sample in test_golden_stats.
 *  2. Attribution differential: the same point run with
 *     stallAttribution on and off must agree on every shared stat —
 *     the attribution machinery may add `stall.*` counters but can
 *     never perturb the simulation.
 *  3. Per-node stall conservation: with attribution on, each node's
 *     per-reason cycle counts partition the fabric-cycle timeline
 *     exactly (sum over reasons == fabricCycles), which is the
 *     invariant the incremental span-closing path must maintain.
 *
 * The exact checks of `bench_perf_smoke --guard` (bench/perf_guard.h)
 * are tested here too, on synthetic baselines with no wall clock.
 */

#include <gtest/gtest.h>

#include "bench/perf_guard.h"
#include "bench/sweep_runner.h"

namespace nupea
{
namespace
{

using namespace nupea::bench;

/** Pinned per-workload results on monaco-12x12 with the paper's
 *  CriticalityAware placement under primaryConfig(Monaco, 0).
 *  Regenerate only for an *intentional* model change. */
struct Golden
{
    const char *name;
    Cycle fabricCycles;
    std::uint64_t memRequests; ///< loads + stores
    std::uint64_t firings;
    double energyTotal;
};

const Golden kGolden[] = {
    {"dmv", 607, 3240, 24552, 77459.2},
    {"jacobi2d", 750, 2592, 22165, 71900.8},
    {"heat3d", 1231, 2000, 15702, 51880.7},
    {"spmv", 363, 1341, 9788, 29625.15},
    {"spmspm", 6303, 12660, 118314, 366543.95},
    {"spmspv", 3900, 8276, 69633, 229714.3},
    {"spadd", 1533, 2602, 18529, 62295.35},
    {"tc", 414, 411, 5534, 14784.2},
    {"mergesort", 1729, 1077, 18781, 54532.2},
    {"fft", 360, 800, 6524, 22250.15},
    {"ad", 724, 1616, 13166, 40853.3},
    {"ic", 6576, 4294, 64258, 172433.3},
    {"vww", 6778, 2538, 40140, 99948.4},
};

/** Compile every golden workload once, in golden order. */
const std::vector<CompiledWorkload> &
compiledGoldens()
{
    static const std::vector<CompiledWorkload> compiled = [] {
        Topology topo = Topology::makeMonaco(12, 12);
        SweepRunner runner; // default jobs: PnR dominates this suite
        std::vector<CompileSpec> specs;
        for (const Golden &g : kGolden) {
            CompileOptions copts;
            copts.mode = PlaceMode::CriticalityAware;
            specs.push_back({g.name, topo, copts});
        }
        return compileAll(runner, specs);
    }();
    return compiled;
}

TEST(PerfRegress, PinnedGoldenStatsAllWorkloads)
{
    const std::vector<CompiledWorkload> &compiled = compiledGoldens();
    for (std::size_t i = 0; i < std::size(kGolden); ++i) {
        const Golden &g = kGolden[i];
        BenchRun r =
            runCompiled(compiled[i], primaryConfig(MemModel::Monaco, 0));
        EXPECT_TRUE(r.verified) << g.name;
        EXPECT_EQ(r.fabricCycles, g.fabricCycles) << g.name;
        EXPECT_EQ(r.loads + r.stores, g.memRequests) << g.name;
        EXPECT_EQ(r.firings, g.firings) << g.name;
        EXPECT_NEAR(r.energy.total(), g.energyTotal, 1e-3) << g.name;
    }
}

TEST(PerfRegress, AttributionOnAndOffAreBitIdentical)
{
    const std::vector<CompiledWorkload> &compiled = compiledGoldens();
    for (std::size_t i = 0; i < std::size(kGolden); ++i) {
        const char *name = kGolden[i].name;
        MachineConfig config = primaryConfig(MemModel::Monaco, 0);
        config.stallAttribution = false;
        BenchRun off = runCompiled(compiled[i], config);
        config.stallAttribution = true;
        BenchRun on = runCompiled(compiled[i], config);

        EXPECT_EQ(off.fabricCycles, on.fabricCycles) << name;
        EXPECT_EQ(off.systemCycles, on.systemCycles) << name;
        EXPECT_EQ(off.loads, on.loads) << name;
        EXPECT_EQ(off.stores, on.stores) << name;
        EXPECT_EQ(off.firings, on.firings) << name;
        EXPECT_EQ(off.verified, on.verified) << name;
        // Accumulation order is identical within one run, so even
        // the energy doubles must match bit-for-bit.
        EXPECT_EQ(off.energy.compute, on.energy.compute) << name;
        EXPECT_EQ(off.energy.network, on.energy.network) << name;
        EXPECT_EQ(off.energy.memory, on.energy.memory) << name;
        // Attribution adds stall.* counters but must not change any
        // counter both runs share.
        for (const auto &[key, value] : off.stats.counters()) {
            EXPECT_EQ(on.stats.counter(key), value)
                << name << " counter " << key;
        }
    }
}

TEST(PerfRegress, PerNodeStallCyclesPartitionTheTimeline)
{
    const std::vector<CompiledWorkload> &compiled = compiledGoldens();
    for (std::size_t i = 0; i < std::size(kGolden); ++i) {
        const char *name = kGolden[i].name;
        MachineConfig config = primaryConfig(MemModel::Monaco, 0);
        config.stallAttribution = true;
        BenchRun r = runCompiled(compiled[i], config);

        ASSERT_FALSE(r.nodeStalls.empty()) << name;
        const auto fabric = static_cast<std::uint64_t>(r.fabricCycles);
        for (std::size_t id = 0; id < r.nodeStalls.size(); ++id) {
            EXPECT_EQ(r.nodeStalls[id].total(), fabric)
                << name << " node " << id;
        }
    }
}

TEST(PerfGuard, ExactCheckComparesAPinnedZero)
{
    // A pure output pinned at 0 is a value to compare, not a missing
    // key to skip.
    const std::string baseline = R"({"router": {"router_iterations": 0}})";
    const ExactCheck check{"router_iterations", "%.0f",
                           "the router's negotiation changed", 6.0};
    ::testing::internal::CaptureStderr();
    bool passed = passesExactCheck(check, baseline);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(passed);
    EXPECT_NE(err.find("router_iterations 6 differs from the baseline's 0"),
              std::string::npos)
        << err;

    // A baseline that predates the key still skips its check.
    EXPECT_TRUE(passesExactCheck(check, R"({"router": {}})"));
}

TEST(PerfGuard, PointChecksNameTheFirstDifferingPoint)
{
    const std::string baseline = R"({"points": [
    {"label": "dmv/monaco", "wall_seconds": 0.002, "fabric_cycles": 607, "firings": 24552},
    {"label": "dmv/upea1", "wall_seconds": 0.002, "fabric_cycles": 602, "firings": 24552}
  ]})";
    auto point = [](const char *label, Cycle fabric, std::uint64_t fires) {
        PointResult p;
        p.label = label;
        p.run.fabricCycles = fabric;
        p.run.firings = fires;
        return p;
    };
    auto verdict = [&](const std::vector<PointResult> &points) {
        ::testing::internal::CaptureStderr();
        bool passed = passesPointChecks(points, baseline);
        std::string err = ::testing::internal::GetCapturedStderr();
        return passed ? std::string("pass") : err;
    };

    EXPECT_EQ(verdict({point("dmv/monaco", 607, 24552),
                       point("dmv/upea1", 602, 24552)}),
              "pass");
    std::string err = verdict({point("dmv/monaco", 607, 24552),
                               point("dmv/upea1", 602, 24553)});
    EXPECT_NE(err.find("point dmv/upea1 firings 24553 differs from the "
                       "baseline's 24552"),
              std::string::npos)
        << err;
    err = verdict({point("dmv/monaco", 608, 24552)});
    EXPECT_NE(err.find("point dmv/monaco fabric_cycles 608"),
              std::string::npos)
        << err;
    err = verdict({point("dmv/upea2", 658, 24552)});
    EXPECT_NE(err.find("baseline has no fabric_cycles for point dmv/upea2"),
              std::string::npos)
        << err;

    // A baseline without per-point rows skips the checks.
    EXPECT_TRUE(passesPointChecks({point("dmv/monaco", 1, 1)}, "{}"));
}

} // namespace
} // namespace nupea
