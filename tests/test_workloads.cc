/**
 * @file
 * Workload correctness: every Table 1 kernel is (a) executed by the
 * untimed interpreter and (b) compiled with full PnR and run on the
 * cycle-level Monaco machine; both must reproduce the host reference
 * memory image exactly, at parallelism 1 and at a higher degree.
 */

#include <gtest/gtest.h>

#include "compiler/pnr.h"
#include "dfg/interp.h"
#include "sim/machine.h"
#include "test_support.h"
#include "workloads/data_gen.h"
#include "workloads/workload.h"

namespace nupea
{
namespace
{

constexpr std::size_t kMemBytes = 4 * 1024 * 1024;

class WorkloadInterp : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadInterp, MatchesHostReferenceAtP1)
{
    auto wl = makeWorkload(GetParam());
    BackingStore store(kMemBytes);
    wl->init(store);
    Graph g = wl->build(1);
    ASSERT_TRUE(test::wellFormed(g));

    Interp interp(g, store.raw());
    auto r = interp.run();
    ASSERT_TRUE(r.clean) << (r.problems.empty() ? "" : r.problems[0]);

    std::string why;
    EXPECT_TRUE(wl->verify(store, &why)) << why;
}

TEST_P(WorkloadInterp, MatchesHostReferenceAtP4)
{
    auto wl = makeWorkload(GetParam());
    BackingStore store(kMemBytes);
    wl->init(store);
    Graph g = wl->build(4);
    ASSERT_TRUE(test::wellFormed(g));

    Interp interp(g, store.raw());
    auto r = interp.run();
    ASSERT_TRUE(r.clean) << (r.problems.empty() ? "" : r.problems[0]);

    std::string why;
    EXPECT_TRUE(wl->verify(store, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadInterp,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

class WorkloadMachine : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadMachine, SimulatedRunMatchesHostReference)
{
    auto wl = makeWorkload(GetParam());
    BackingStore store(kMemBytes);
    wl->init(store);

    // Modest parallelism keeps the PnR fast in tests.
    int p = std::min(4, std::max(1, wl->preferredParallelism()));
    Graph g = wl->build(p);
    ASSERT_TRUE(test::wellFormed(g));

    Topology topo = Topology::makeMonaco(12, 12);
    PnrOptions popts;
    popts.place.iterationsPerNode = 60; // test-speed annealing
    PnrResult pnr = placeAndRoute(g, topo, popts);
    if (!pnr.success && p > 1) {
        p = 1;
        g = wl->build(1);
        pnr = placeAndRoute(g, topo, popts);
    }
    ASSERT_TRUE(pnr.success) << pnr.failureReason;

    MachineConfig cfg;
    cfg.memsys.memBytes = store.size();
    cfg.clockDivider = pnr.timing.clockDivider;
    Machine machine(g, pnr.placement, topo, cfg, store);
    RunResult r = machine.run();
    ASSERT_TRUE(r.finished) << r.problem;
    ASSERT_TRUE(r.clean) << r.problem;
    EXPECT_GT(r.fabricCycles, 0u);

    std::string why;
    EXPECT_TRUE(wl->verify(store, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadMachine,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) { return info.param; });

TEST(WorkloadRegistry, ThirteenWorkloads)
{
    EXPECT_EQ(workloadNames().size(), 13u);
    for (const auto &name : workloadNames()) {
        auto wl = makeWorkload(name);
        EXPECT_EQ(wl->name(), name);
        EXPECT_FALSE(wl->description().empty());
        EXPECT_FALSE(wl->paperInput().empty());
        EXPECT_FALSE(wl->scaledInput().empty());
    }
}

TEST(WorkloadRegistry, UnknownNameIsFatal)
{
    EXPECT_THROW(makeWorkload("nosuch"), FatalError);
}

TEST(WorkloadRegistry, InitIsDeterministic)
{
    // Two inits must produce identical memory images so a graph can
    // be compiled once and re-run on fresh stores.
    auto wl1 = makeWorkload("spmspv");
    auto wl2 = makeWorkload("spmspv");
    BackingStore s1(kMemBytes), s2(kMemBytes);
    wl1->init(s1);
    wl2->init(s2);
    EXPECT_EQ(s1.raw(), s2.raw());
}

TEST(WorkloadRegistry, SeedChangesData)
{
    auto wl1 = makeWorkload("spmv", 1);
    auto wl2 = makeWorkload("spmv", 2);
    BackingStore s1(kMemBytes), s2(kMemBytes);
    wl1->init(s1);
    wl2->init(s2);
    EXPECT_NE(s1.raw(), s2.raw());
}

TEST(WorkloadCriticality, SparseKernelsHaveCriticalLoads)
{
    // The paper's core claim: the stream-join kernels carry
    // class (a) loads, the dense kernels mostly do not.
    for (const char *name : {"spmspv", "spmspm", "spadd", "tc",
                             "mergesort"}) {
        auto wl = makeWorkload(name);
        BackingStore store(kMemBytes);
        wl->init(store);
        Graph g = wl->build(1);
        auto stats = analyzeCriticality(g);
        EXPECT_GT(stats.critical, 0u) << name;
    }
    // dmv's loads are inner-loop only.
    auto wl = makeWorkload("dmv");
    BackingStore store(kMemBytes);
    wl->init(store);
    Graph g = wl->build(1);
    auto stats = analyzeCriticality(g);
    EXPECT_EQ(stats.critical, 0u);
    EXPECT_GT(stats.innerLoop, 0u);
}

// ----- data_gen edge cases ---------------------------------------------

TEST(DataGen, ZeroRowCsrIsWellFormed)
{
    Rng rng(5);
    CsrMatrix m = randomCsr(rng, 0, 7, 0.5);
    EXPECT_EQ(m.rows, 0);
    EXPECT_EQ(m.cols, 7);
    ASSERT_EQ(m.rowPtr.size(), 1u); // rows + 1
    EXPECT_EQ(m.rowPtr[0], 0);
    EXPECT_EQ(m.nnz(), 0);

    // Transposing a 0x7 matrix yields a well-formed empty 7x0.
    CsrMatrix t = transposeCsr(m);
    EXPECT_EQ(t.rows, 7);
    EXPECT_EQ(t.cols, 0);
    ASSERT_EQ(t.rowPtr.size(), 8u);
    for (Word p : t.rowPtr)
        EXPECT_EQ(p, 0);
    EXPECT_EQ(t.nnz(), 0);

    // And it still drives the host references without reading past
    // the (empty) index arrays.
    EXPECT_TRUE(refSpmv(m, std::vector<Word>(7, 1)).empty());
}

TEST(DataGen, ZeroColumnCsrIsWellFormed)
{
    Rng rng(5);
    CsrMatrix m = randomCsr(rng, 4, 0, 0.9);
    EXPECT_EQ(m.rows, 4);
    EXPECT_EQ(m.cols, 0);
    ASSERT_EQ(m.rowPtr.size(), 5u);
    for (Word p : m.rowPtr)
        EXPECT_EQ(p, 0);
    EXPECT_EQ(m.nnz(), 0);

    CsrMatrix t = transposeCsr(m);
    EXPECT_EQ(t.rows, 0);
    EXPECT_EQ(t.cols, 4);
    ASSERT_EQ(t.rowPtr.size(), 1u);
    EXPECT_EQ(t.rowPtr[0], 0);

    EXPECT_EQ(refSpmv(m, {}), std::vector<Word>(4, 0));
}

TEST(DataGen, TransposeRoundTripsOnEdgeShapes)
{
    // Double transpose is the identity (CSR column lists are sorted),
    // including on degenerate 1xN / Nx1 shapes.
    Rng rng(11);
    for (auto [r, c] : {std::pair{1, 9}, {9, 1}, {1, 1}, {5, 3}}) {
        CsrMatrix m = randomCsr(rng, r, c, 0.7);
        CsrMatrix tt = transposeCsr(transposeCsr(m));
        EXPECT_EQ(tt.rowPtr, m.rowPtr) << r << "x" << c;
        EXPECT_EQ(tt.colIdx, m.colIdx) << r << "x" << c;
        EXPECT_EQ(tt.values, m.values) << r << "x" << c;
    }
}

TEST(DataGen, SizeOneDenseArrays)
{
    Rng rng(3);
    std::vector<Word> v = randomVector(rng, 1);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_GE(v[0], -8);
    EXPECT_LE(v[0], 8);

    // 1x1 matrix-vector product: y[0] = a[0] * x[0].
    std::vector<Word> y = refDenseMv({3}, 1, {-7});
    ASSERT_EQ(y.size(), 1u);
    EXPECT_EQ(y[0], -21);

    EXPECT_TRUE(randomVector(rng, 0).empty());
}

TEST(DataGen, SeedStableAcrossPlatforms)
{
    // xoshiro256** is pure integer arithmetic, so the same seed must
    // yield the same stream everywhere; these goldens pin the
    // generator against accidental reseeding or distribution changes
    // that would silently invalidate committed BENCH goldens.
    Rng rng(42);
    const std::vector<Word> v = randomVector(rng, 6);
    const std::vector<Word> expect_v = {-7, 6, 3, 7, -1, -4};
    EXPECT_EQ(v, expect_v);

    Rng rng2(42);
    EXPECT_EQ(randomVector(rng2, 6), v) << "same seed, same stream";

    Rng rng3(43);
    CsrMatrix m = randomCsr(rng3, 3, 4, 0.5);
    const std::vector<Word> expect_ptr = {0, 1, 5, 6};
    const std::vector<Word> expect_idx = {3, 0, 1, 2, 3, 3};
    const std::vector<Word> expect_val = {-1, 6, 5, 1, -4, -8};
    EXPECT_EQ(m.rowPtr, expect_ptr);
    EXPECT_EQ(m.colIdx, expect_idx);
    EXPECT_EQ(m.values, expect_val);
}

TEST(WorkloadCriticality, StencilOrderingCreatesRecurrence)
{
    // jacobi2d/fft: the inter-step barrier token puts memory
    // instructions on a recurrence (paper Sec. 7.1).
    for (const char *name : {"jacobi2d", "heat3d", "fft"}) {
        auto wl = makeWorkload(name);
        BackingStore store(kMemBytes);
        wl->init(store);
        Graph g = wl->build(1);
        auto stats = analyzeCriticality(g);
        EXPECT_GT(stats.critical, 0u) << name;
    }
}

} // namespace
} // namespace nupea
