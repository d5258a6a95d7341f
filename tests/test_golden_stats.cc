/**
 * @file
 * Golden-number regression suite for the parallel sweep runner.
 *
 * Two guardrails:
 *  1. Pinned simulated stats (fabric cycles, memory-request counts,
 *     firings, energy totals) for three small workloads under both a
 *     NUPEA-unaware and the full effcc PlaceMode, on Monaco and on
 *     the UPEA2 and NUMA-UPEA2 baselines — any change to the
 *     simulator, compiler, or the harness's new image-cloning run
 *     path shows up as an exact-number diff here.
 *  2. Serial-vs-parallel equivalence: the same sweep executed with
 *     --jobs 1 and --jobs 8 must produce bit-identical per-point
 *     stats, proving the parallel runner cannot perturb results.
 *
 * Unit tests for the SweepRunner scheduler itself live in
 * test_sweep_runner.cc; both files carry the `tsan` ctest label and
 * are the core of the build-tsan preset.
 */

#include <gtest/gtest.h>

#include "bench/sweep_runner.h"

namespace nupea
{
namespace
{

using namespace nupea::bench;

/** One UPEA baseline's run of a Golden compilation. The doubles are
 *  exact: the memory energy is a sum of small integers. */
struct BaselineGolden
{
    Cycle fabricCycles;
    double energyMemory;
};

/** Pinned per-(workload, mode) simulated results on monaco-12x12
 *  under primaryConfig(Monaco, 0), and of the same compilation under
 *  UPEA2 and NUMA-UPEA2 (same requests and firings). Regenerate by
 *  printing the stats from a fresh run (%.17g for the doubles) if an
 *  *intentional* model change lands. */
struct Golden
{
    const char *name;
    PlaceMode mode;
    Cycle fabricCycles;
    std::uint64_t memRequests; ///< loads + stores
    std::uint64_t firings;
    double energyTotal;
    BaselineGolden upea2, numaUpea2;
};

const Golden kGolden[] = {
    {"dmv", PlaceMode::DomainUnaware, 673, 3240, 24552, 77521.6,
     {658, 17775}, {644, 16187}},
    {"dmv", PlaceMode::CriticalityAware, 607, 3240, 24552, 77459.2,
     {658, 17775}, {661, 16241}},
    {"spmspv", PlaceMode::DomainUnaware, 5466, 8276, 69633, 210769.5,
     {4933, 43270}, {4891, 38734}},
    {"spmspv", PlaceMode::CriticalityAware, 3900, 8276, 69633,
     229714.3, {4933, 43270}, {4877, 38820}},
    {"mergesort", PlaceMode::DomainUnaware, 2102, 1077, 18781,
     56903.6, {2152, 5505}, {2103, 4971}},
    {"mergesort", PlaceMode::CriticalityAware, 1729, 1077, 18781,
     54532.2, {2152, 5505}, {2115, 4953}},
};

TEST(GoldenStats, PinnedWorkloadNumbers)
{
    Topology topo = Topology::makeMonaco(12, 12);
    for (const Golden &g : kGolden) {
        CompileOptions copts;
        copts.mode = g.mode;
        CompiledWorkload cw = compileWorkload(g.name, topo, copts);
        BenchRun r = runCompiled(cw, primaryConfig(MemModel::Monaco, 0));

        std::string ctx = formatMessage(g.name, "/",
                                        placeModeName(g.mode));
        EXPECT_TRUE(r.verified) << ctx;
        EXPECT_EQ(r.fabricCycles, g.fabricCycles) << ctx;
        EXPECT_EQ(r.loads + r.stores, g.memRequests) << ctx;
        EXPECT_EQ(r.firings, g.firings) << ctx;
        EXPECT_NEAR(r.energy.total(), g.energyTotal, 1e-3) << ctx;

        const std::pair<MemModel, const BaselineGolden &> baselines[] = {
            {MemModel::Upea, g.upea2}, {MemModel::NumaUpea, g.numaUpea2}};
        for (const auto &[model, want] : baselines) {
            BenchRun b = runCompiled(cw, primaryConfig(model, 2));
            std::string bctx = formatMessage(
                ctx, model == MemModel::Upea ? "/upea2" : "/numa-upea2");
            EXPECT_TRUE(b.verified) << bctx;
            EXPECT_EQ(b.fabricCycles, want.fabricCycles) << bctx;
            EXPECT_EQ(b.loads + b.stores, g.memRequests) << bctx;
            EXPECT_EQ(b.firings, g.firings) << bctx;
            EXPECT_EQ(b.energy.memory, want.energyMemory) << bctx;
        }
    }
}

/** The sweep both halves of the equivalence test execute. */
std::vector<RunSpec>
equivalenceSweep(const std::vector<CompiledWorkload> &compiled)
{
    std::vector<RunSpec> specs;
    for (const CompiledWorkload &cw : compiled) {
        const std::string &app = cw.workload->name();
        specs.push_back(
            {&cw, primaryConfig(MemModel::Monaco, 0), app + "/monaco"});
        specs.push_back(
            {&cw, primaryConfig(MemModel::Upea, 2), app + "/upea2"});
        specs.push_back({&cw, primaryConfig(MemModel::NumaUpea, 2),
                         app + "/numa-upea2"});
    }
    return specs;
}

TEST(GoldenStats, SerialAndParallelSweepsAreBitIdentical)
{
    Topology topo = Topology::makeMonaco(12, 12);
    SweepRunner serial(SweepOptions{1});
    SweepRunner parallel(SweepOptions{8});

    std::vector<CompileSpec> cspecs;
    for (const char *name : {"dmv", "spmspv", "mergesort"})
        cspecs.push_back({name, topo, CompileOptions{}});
    std::vector<CompiledWorkload> compiled = compileAll(serial, cspecs);

    std::vector<RunSpec> specs = equivalenceSweep(compiled);
    SweepResult a = runSweep(serial, specs);
    SweepResult b = runSweep(parallel, specs);

    ASSERT_EQ(a.points.size(), specs.size());
    ASSERT_EQ(b.points.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const BenchRun &s = a.points[i].run;
        const BenchRun &p = b.points[i].run;
        const std::string &ctx = a.points[i].label;
        EXPECT_EQ(s.fabricCycles, p.fabricCycles) << ctx;
        EXPECT_EQ(s.systemCycles, p.systemCycles) << ctx;
        EXPECT_EQ(s.loads, p.loads) << ctx;
        EXPECT_EQ(s.stores, p.stores) << ctx;
        EXPECT_EQ(s.firings, p.firings) << ctx;
        EXPECT_EQ(s.verified, p.verified) << ctx;
        // Energy accumulates in identical order within one run, so
        // even the doubles must match bit-for-bit.
        EXPECT_EQ(s.energy.compute, p.energy.compute) << ctx;
        EXPECT_EQ(s.energy.network, p.energy.network) << ctx;
        EXPECT_EQ(s.energy.memory, p.energy.memory) << ctx;
        EXPECT_EQ(s.avgMemLatency, p.avgMemLatency) << ctx;
        // Full machine stat sets: every counter, same values.
        EXPECT_EQ(s.stats.counters(), p.stats.counters()) << ctx;
    }
}

} // namespace
} // namespace nupea
