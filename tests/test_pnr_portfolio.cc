/**
 * @file
 * Portfolio-placer guardrails (compiler/placement.h):
 *
 *  - determinism: two runs of the chains=4 portfolio must pick the
 *    byte-identical placement and per-chain stats — for every
 *    registered workload and for 20 seeded random generator shapes;
 *  - single-seed compatibility: chains=1 is the historical placer
 *    bit-for-bit, with the stats/trace hooks inert;
 *  - quality: the 4-chain portfolio's basket cost never exceeds the
 *    single seed's (the Fig. 12 acceptance criterion);
 *  - bookkeeping: winnerCost is the exact placementCost of the
 *    returned placement, per-chain budgets respect the
 *    kMaxChainBudgetFactor cap, killed chains never win, and the epoch
 *    trace hook fires exactly when a portfolio runs;
 *  - plumbing: compileAll resolves the CompileOptions::pnrChains
 *    sentinel from the sweep runner's --pnr-chains.
 *
 * Labeled `pnr-portfolio` (its own ctest preset) combined with
 * `ubsan`/`tsan` so both sanitizer presets run the placer and the
 * compileAll batch that drives it.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "bench/sweep_runner.h"
#include "compiler/criticality.h"
#include "compiler/placement.h"
#include "sim/trace.h"
#include "workloads/gen/gen_workload.h"

namespace nupea
{
namespace
{

using namespace nupea::bench;

/** A workload graph with criticality classes marked, ready for
 *  placeGraph — what placeAndRoute hands the placer. */
Graph
markedGraph(Workload &wl, int parallelism = 1)
{
    BackingStore store(MemSysConfig{}.memBytes);
    wl.init(store);
    Graph graph = wl.build(parallelism);
    analyzeCriticality(graph);
    return graph;
}

/** Keep per-test cost modest; determinism holds at any effort. */
PlacerOptions
fastOptions(int chains, int epoch_moves_per_node = 5)
{
    PlacerOptions opts;
    opts.iterationsPerNode = 30;
    opts.portfolio.chains = chains;
    opts.portfolio.epochMovesPerNode = epoch_moves_per_node;
    return opts;
}

void
expectSamePlacement(const Placement &a, const Placement &b,
                    const std::string &who)
{
    ASSERT_EQ(a.pos.size(), b.pos.size()) << who;
    for (std::size_t i = 0; i < a.pos.size(); ++i) {
        EXPECT_EQ(a.pos[i].row, b.pos[i].row) << who << " node " << i;
        EXPECT_EQ(a.pos[i].col, b.pos[i].col) << who << " node " << i;
    }
}

void
expectSameStats(const PortfolioStats &a, const PortfolioStats &b,
                const std::string &who)
{
    ASSERT_EQ(a.chains.size(), b.chains.size()) << who;
    EXPECT_EQ(a.epochs, b.epochs) << who;
    EXPECT_EQ(a.winnerChain, b.winnerChain) << who;
    EXPECT_EQ(a.winnerCost, b.winnerCost) << who;
    for (std::size_t k = 0; k < a.chains.size(); ++k) {
        EXPECT_EQ(a.chains[k].seed, b.chains[k].seed) << who << k;
        EXPECT_EQ(a.chains[k].moves, b.chains[k].moves) << who << k;
        EXPECT_EQ(a.chains[k].accepted, b.chains[k].accepted)
            << who << k;
        EXPECT_EQ(a.chains[k].finalCost, b.chains[k].finalCost)
            << who << k;
        EXPECT_EQ(a.chains[k].bestCost, b.chains[k].bestCost)
            << who << k;
        EXPECT_EQ(a.chains[k].killedAtEpoch, b.chains[k].killedAtEpoch)
            << who << k;
        EXPECT_EQ(a.chains[k].winner, b.chains[k].winner) << who << k;
    }
}

/** The portfolio result is a pure function of the options: two runs
 *  pick byte-identical placements with identical per-chain stats. */
void
checkRunToRunDeterminism(const Graph &graph, const Topology &topo,
                         const std::string &who)
{
    PlacerOptions opts = fastOptions(4);
    PortfolioStats first_stats, second_stats;
    Placement first = placeGraph(graph, topo, opts, &first_stats);
    EXPECT_TRUE(placementLegal(graph, topo, first)) << who;
    Placement second = placeGraph(graph, topo, opts, &second_stats);
    expectSamePlacement(first, second, who);
    expectSameStats(first_stats, second_stats, who);
}

TEST(PnrPortfolio, DeterministicAcrossPoolWidthsAllWorkloads)
{
    Topology topo = Topology::makeMonaco(12, 12);
    for (const std::string &name : workloadNames()) {
        auto wl = makeWorkload(name);
        Graph graph = markedGraph(*wl);
        checkRunToRunDeterminism(graph, topo, name);
    }
}

TEST(PnrPortfolio, DeterministicAcrossPoolWidthsGeneratedShapes)
{
    Topology topo = Topology::makeMonaco(12, 12);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        GeneratorSpec spec = GeneratorSpec::random(rng);
        auto wl = makeGeneratedWorkload(spec, /*seed=*/42);
        Graph graph = markedGraph(*wl);
        checkRunToRunDeterminism(
            graph, topo,
            formatMessage("seed=", seed, " spec=", spec.name()));
    }
}

TEST(PnrPortfolio, SingleChainIgnoresPortfolioHooks)
{
    // chains=1 is the pinned historical placer: handing it a trace
    // sink and a stats out-param must not perturb the anneal.
    Topology topo = Topology::makeMonaco(12, 12);
    auto wl = makeWorkload("dmv");
    Graph graph = markedGraph(*wl);

    PlacerOptions plain = fastOptions(1);
    Placement base = placeGraph(graph, topo, plain);

    TraceSink null_trace;
    PlacerOptions hooked = fastOptions(1);
    hooked.portfolio.trace = &null_trace;
    PortfolioStats stats;
    Placement got = placeGraph(graph, topo, hooked, &stats);

    expectSamePlacement(base, got, "chains=1 hooks");
    ASSERT_EQ(stats.chains.size(), 1u);
    EXPECT_EQ(stats.epochs, 0);
    EXPECT_EQ(stats.winnerChain, 0);
    EXPECT_TRUE(stats.chains[0].winner);
    EXPECT_EQ(stats.chains[0].killedAtEpoch, -1);
    EXPECT_DOUBLE_EQ(stats.winnerCost,
                     placementCost(graph, topo, got, hooked));
}

TEST(PnrPortfolio, PortfolioBasketNeverWorseThanSingleSeed)
{
    // The acceptance criterion behind bench_fig12_pnr's portfolio
    // section: over the whole registered basket, 4 chains must find
    // placements at least as good as the single seed's.
    Topology topo = Topology::makeMonaco(12, 12);
    double sum_single = 0.0, sum_portfolio = 0.0;
    for (const std::string &name : workloadNames()) {
        auto wl = makeWorkload(name);
        Graph graph = markedGraph(*wl);

        PortfolioStats single, portfolio;
        placeGraph(graph, topo, fastOptions(1), &single);
        placeGraph(graph, topo, fastOptions(4, 10), &portfolio);
        sum_single += single.winnerCost;
        sum_portfolio += portfolio.winnerCost;
    }
    EXPECT_LE(sum_portfolio, sum_single);
}

TEST(PnrPortfolio, WinnerCostIsExactCostOfReturnedPlacement)
{
    Topology topo = Topology::makeMonaco(12, 12);
    for (const std::string &name : {std::string("spmv"),
                                    std::string("mergesort")}) {
        auto wl = makeWorkload(name);
        Graph graph = markedGraph(*wl);
        for (int chains : {1, 4}) {
            PlacerOptions opts = fastOptions(chains);
            PortfolioStats stats;
            Placement got = placeGraph(graph, topo, opts, &stats);
            EXPECT_TRUE(placementLegal(graph, topo, got)) << name;
            EXPECT_DOUBLE_EQ(stats.winnerCost,
                             placementCost(graph, topo, got, opts))
                << name << " chains=" << chains;
            ASSERT_GE(stats.winnerChain, 0) << name;
            ASSERT_LT(static_cast<std::size_t>(stats.winnerChain),
                      stats.chains.size())
                << name;
            const PlacerChainStats &w =
                stats.chains[static_cast<std::size_t>(
                    stats.winnerChain)];
            EXPECT_TRUE(w.winner) << name;
            EXPECT_EQ(w.killedAtEpoch, -1)
                << name << ": a killed chain won";
            EXPECT_EQ(w.bestCost, stats.winnerCost) << name;
        }
    }
}

TEST(PnrPortfolio, KillsRespectBudgetCapAndWinnerQuality)
{
    // killMargin=0 kills every chain strictly behind the leader, so
    // kills and budget reassignment both exercise. (A chain tied
    // with the leader survives — on small graphs all chains share
    // the deterministic initial-placement cost as their best, so
    // this test uses mergesort, whose chains diverge below it.) No
    // chain may exceed the kMaxChainBudgetFactor cap, and the winner's
    // best must be the minimum over surviving chains.
    Topology topo = Topology::makeMonaco(12, 12);
    auto wl = makeWorkload("mergesort");
    Graph graph = markedGraph(*wl);

    PlacerOptions opts = fastOptions(4);
    opts.portfolio.killMargin = 0.0;
    PortfolioStats stats;
    Placement got = placeGraph(graph, topo, opts, &stats);
    EXPECT_TRUE(placementLegal(graph, topo, got));

    const std::uint64_t schedule =
        static_cast<std::uint64_t>(opts.iterationsPerNode) *
        graph.numNodes();
    const double cap =
        kMaxChainBudgetFactor * static_cast<double>(schedule);
    int killed = 0;
    double best_surviving = 0.0;
    bool have_survivor = false;
    for (const PlacerChainStats &c : stats.chains) {
        EXPECT_LE(static_cast<double>(c.moves), cap + 1.0)
            << "chain over the kMaxChainBudgetFactor cap";
        if (c.killedAtEpoch >= 0) {
            ++killed;
            EXPECT_FALSE(c.winner);
        } else if (!have_survivor ||
                   c.bestCost < best_surviving) {
            best_surviving = c.bestCost;
            have_survivor = true;
        }
    }
    ASSERT_TRUE(have_survivor);
    EXPECT_GT(killed, 0) << "killMargin=0 should kill laggards";
    EXPECT_DOUBLE_EQ(stats.winnerCost, best_surviving);
    EXPECT_GT(stats.epochs, 0);
}

/** Counts placer epoch reports (sim/trace.h hook). */
class CountingTrace : public TraceSink
{
  public:
    int calls = 0;
    int max_chain = -1;

    void
    onPlacerEpoch(int chain, int, std::uint64_t, double, double,
                  double, bool) override
    {
        ++calls;
        max_chain = std::max(max_chain, chain);
    }
};

TEST(PnrPortfolio, TraceHookFiresOnlyForPortfolios)
{
    Topology topo = Topology::makeMonaco(12, 12);
    auto wl = makeWorkload("dmv");
    Graph graph = markedGraph(*wl);

    CountingTrace quiet;
    PlacerOptions single = fastOptions(1);
    single.portfolio.trace = &quiet;
    placeGraph(graph, topo, single);
    EXPECT_EQ(quiet.calls, 0) << "chains=1 must not emit epochs";

    CountingTrace busy;
    PlacerOptions many = fastOptions(4);
    many.portfolio.trace = &busy;
    placeGraph(graph, topo, many);
    EXPECT_GT(busy.calls, 0);
    EXPECT_EQ(busy.max_chain, 3);
}

TEST(PnrPortfolio, CompileAllResolvesSweepChainSentinel)
{
    // CompileOptions::pnrChains == 0 inherits --pnr-chains from the
    // runner; an explicit 1 pins the single-seed placer.
    SweepOptions sopts{2};
    sopts.pnrChains = 3;
    SweepRunner runner(sopts);
    Topology topo = Topology::makeMonaco(12, 12);

    CompileOptions inherit;        // pnrChains = 0 (sentinel)
    CompileOptions pinned;
    pinned.pnrChains = 1;
    std::vector<CompileSpec> specs{{"dmv", topo, inherit},
                                   {"dmv", topo, pinned}};
    std::vector<CompiledWorkload> out = compileAll(runner, specs);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].pnr.placerStats.chains.size(), 3u);
    EXPECT_EQ(out[1].pnr.placerStats.chains.size(), 1u);

    // The portfolio compile is still a legal, verified placement of
    // the same graph shape the pinned compile produced.
    EXPECT_TRUE(placementLegal(out[0].graph, out[0].topo,
                               out[0].pnr.placement));
    EXPECT_EQ(out[0].graph.numNodes(), out[1].graph.numNodes());
}

} // namespace
} // namespace nupea
