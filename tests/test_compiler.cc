/**
 * @file
 * Compiler tests: criticality analysis, placement (all three modes),
 * routing, timing, and the PnR driver with automatic parallelism.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "compiler/pnr.h"
#include "memory/memsys.h"
#include "test_support.h"
#include "workloads/workload.h"

namespace nupea
{
namespace
{

using test::buildArraySum;
using test::buildPointerChase;
using test::buildStreamJoin;

TEST(CriticalityAnalysis, PointerChaseLoadIsCritical)
{
    auto k = buildPointerChase(64, 8);
    auto stats = analyzeCriticality(k.graph);
    EXPECT_GE(stats.recurrences, 1u);
    EXPECT_EQ(stats.critical, 1u);
    bool found = false;
    for (const Node &n : k.graph.nodes()) {
        if (n.op == Op::Load) {
            EXPECT_EQ(n.crit, Criticality::Critical);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(CriticalityAnalysis, ArraySumLoadIsInnerLoopNotCritical)
{
    // The load feeds only the accumulator; the loop-governing
    // recurrence is i++, which has no memory on it.
    auto k = buildArraySum(64, 8);
    auto stats = analyzeCriticality(k.graph);
    EXPECT_EQ(stats.critical, 0u);
    EXPECT_EQ(stats.innerLoop, 1u);
}

TEST(CriticalityAnalysis, StreamJoinLoadsAreCritical)
{
    // Both index loads gate the iterator updates (paper Fig. 5).
    auto k = buildStreamJoin(64, 8, 128, 8);
    auto stats = analyzeCriticality(k.graph);
    EXPECT_EQ(stats.critical, 2u);
}

TEST(CriticalityAnalysis, OuterLoopMemoryIsOtherMem)
{
    // A load in an outer loop body (not innermost, not on the
    // recurrence) must be class (c).
    Builder b;
    auto base = b.source(64);
    auto exits = b.forLoop(
        b.source(0), b.source(2), 1, {b.source(0)},
        [&](Builder &b, Builder::Value i,
            const std::vector<Builder::Value> &c) {
            auto v = b.load(b.add(base, b.mul(i, Word{4})), {},
                            "outer-load");
            auto inner = b.forLoop(
                b.source(0), b.source(2), 1, {c[0]},
                [&](Builder &b, Builder::Value,
                    const std::vector<Builder::Value> &c2) {
                    return std::vector<Builder::Value>{
                        b.add(c2[0], v)};
                });
            return std::vector<Builder::Value>{inner[0]};
        });
    b.sink(exits[0]);
    Graph g = b.takeGraph();
    auto stats = analyzeCriticality(g);
    EXPECT_EQ(stats.critical, 0u);
    EXPECT_EQ(stats.otherMem, 1u);
}

TEST(CriticalityAnalysis, Idempotent)
{
    auto k = buildStreamJoin(64, 8, 128, 8);
    auto s1 = analyzeCriticality(k.graph);
    auto s2 = analyzeCriticality(k.graph);
    EXPECT_EQ(s1.critical, s2.critical);
    EXPECT_EQ(s1.innerLoop, s2.innerLoop);
    EXPECT_EQ(s1.otherMem, s2.otherMem);
}

TEST(Placement, LegalAndDeterministic)
{
    auto k = buildStreamJoin(64, 32, 256, 32);
    analyzeCriticality(k.graph);
    Topology topo = Topology::makeMonaco(12, 12);
    PlacerOptions opts;
    opts.seed = 7;
    Placement p1 = placeGraph(k.graph, topo, opts);
    PlacerStats stats;
    Placement p2 = placeGraph(k.graph, topo, opts, &stats);
    EXPECT_TRUE(test::legalPlacement(k.graph, topo, p1));
    EXPECT_EQ(p1.pos, p2.pos) << "same seed must give same placement";

    // One anneal of the whole schedule; asking for stats does not
    // perturb it, and the reported cost is the returned placement's.
    ASSERT_EQ(stats.chains.size(), 1u);
    EXPECT_EQ(stats.chains[0].moves,
              static_cast<std::uint64_t>(opts.iterationsPerNode) *
                  k.graph.numNodes());
    EXPECT_LE(stats.chains[0].accepted, stats.chains[0].moves);
    EXPECT_EQ(stats.winnerCost, placementCost(k.graph, topo, p2, opts));

    // portfolio.chains accepts only 1: any other count is refused,
    // not silently run as one anneal.
    opts.portfolio.chains = 2;
    EXPECT_THROW(placeGraph(k.graph, topo, opts), FatalError);

    // A negative move count is refused, not scheduled as ~2^64 moves.
    opts.portfolio.chains = 1;
    opts.iterationsPerNode = -1;
    EXPECT_THROW(placeGraph(k.graph, topo, opts), FatalError);
}

TEST(Placement, BracketedMetropolisMatchesDirectTest)
{
    // The anneal's bracketed decision must be the direct test
    // u >= exp(-delta / T(i)) on every draw, across schedule lengths,
    // block boundaries, draws at the threshold and one and two ULPs
    // either side of it, u = 0, and deltas whose exp underflows.
    const std::uint64_t totals[] = {1,    2,    63,     64,      65,     127,
                                    4096, 9600, 123457, 1972260, 7502400};
    Rng rng(20);
    std::uint64_t checked = 0, mismatches = 0;
    auto check = [&](double u, double delta, std::uint64_t i,
                     std::uint64_t total) {
        bool direct = u >= std::exp(-delta / annealTemperature(i, total));
        ++checked;
        if (metropolisRejects(u, delta, i, total) != direct &&
            ++mismatches <= 5) {
            ADD_FAILURE() << "u=" << u << " delta=" << delta << " i=" << i
                          << " total=" << total << " direct=" << direct;
        }
    };
    for (std::uint64_t total : totals) {
        for (int draw = 0; draw < 16000; ++draw) {
            std::uint64_t i = rng.below(total);
            if (draw % 4 == 1)
                i -= i % 64; // a block's first move
            else if (draw % 4 == 2)
                i = std::min(total - 1, i | 63); // a block's last move
            double t = annealTemperature(i, total);
            // delta / T log-uniform over [1e-6, 2e3]: exp underflows
            // to a subnormal above ~708 and to 0 above ~745.
            double delta = t * std::pow(10.0, -6.0 + 9.3 * rng.uniform());
            double threshold = std::exp(-delta / t);
            double below1 = std::nextafter(threshold, 0.0);
            double above1 = std::nextafter(threshold, 1.0);
            for (double u : {rng.uniform(), threshold, below1,
                             std::nextafter(below1, 0.0), above1,
                             std::nextafter(above1, 1.0), 0.0})
                check(u, delta, i, total);
        }
    }
    EXPECT_GE(checked, 1000000u);
    EXPECT_EQ(mismatches, 0u);
}

TEST(Placement, MemoryOpsLandOnLsTiles)
{
    auto k = buildStreamJoin(64, 32, 256, 32);
    analyzeCriticality(k.graph);
    Topology topo = Topology::makeMonaco(12, 12);
    Placement p = placeGraph(k.graph, topo, PlacerOptions{});
    for (NodeId id = 0; id < k.graph.numNodes(); ++id) {
        if (opTraits(k.graph.node(id).op).isMemory) {
            EXPECT_TRUE(topo.isLs(p.of(id)));
        }
    }
}

TEST(Placement, CriticalityAwarePrefersFastDomains)
{
    // Mixed kernel: critical chase loads plus many non-critical
    // loads. Under the effcc mode, critical loads must sit in
    // domains no slower than the average non-critical load.
    Builder b;
    auto base = b.source(64);
    // Critical pointer chase.
    auto chase = b.forLoop(
        b.source(0), b.source(4), 1, {b.source(64)},
        [&](Builder &b, Builder::Value,
            const std::vector<Builder::Value> &c) {
            return std::vector<Builder::Value>{b.load(c[0])};
        });
    b.sink(chase[0]);
    // Non-critical array sums (many inner-loop loads).
    for (int copy = 0; copy < 6; ++copy) {
        auto exits = b.forLoop(
            b.source(0), b.source(4), 1, {b.source(0)},
            [&](Builder &b, Builder::Value i,
                const std::vector<Builder::Value> &c) {
                auto v = b.load(b.add(base, b.mul(i, Word{4})));
                return std::vector<Builder::Value>{b.add(c[0], v)};
            });
        b.sink(exits[0]);
    }
    Graph g = b.takeGraph();
    analyzeCriticality(g);

    Topology topo = Topology::makeMonaco(12, 12);
    PlacerOptions opts;
    opts.mode = PlaceMode::CriticalityAware;
    Placement p = placeGraph(g, topo, opts);

    double crit_domain_sum = 0, crit_count = 0;
    double other_domain_sum = 0, other_count = 0;
    for (NodeId id = 0; id < g.numNodes(); ++id) {
        const Node &n = g.node(id);
        if (!opTraits(n.op).isMemory)
            continue;
        if (n.crit == Criticality::Critical) {
            crit_domain_sum += topo.domainOf(p.of(id));
            ++crit_count;
        } else {
            other_domain_sum += topo.domainOf(p.of(id));
            ++other_count;
        }
    }
    ASSERT_GT(crit_count, 0);
    ASSERT_GT(other_count, 0);
    EXPECT_LE(crit_domain_sum / crit_count,
              other_domain_sum / other_count);
    // The single critical load should be in D0.
    EXPECT_DOUBLE_EQ(crit_domain_sum / crit_count, 0.0);
}

TEST(Placement, CostOrdersDomainsForCriticalLoads)
{
    auto k = buildPointerChase(64, 4);
    analyzeCriticality(k.graph);
    Topology topo = Topology::makeMonaco(12, 12);
    PlacerOptions opts;
    Placement p = placeGraph(k.graph, topo, opts);

    // Move the critical load to a far domain: cost must rise.
    NodeId load_id = kInvalidId;
    for (NodeId id = 0; id < k.graph.numNodes(); ++id) {
        if (k.graph.node(id).op == Op::Load)
            load_id = id;
    }
    ASSERT_NE(load_id, kInvalidId);
    double base_cost = placementCost(k.graph, topo, p, opts);
    Placement far = p;
    // Find a free far-domain LS tile.
    for (int idx = 0; idx < topo.numTiles(); ++idx) {
        Coord c = topo.tileCoord(idx);
        if (topo.isLs(c) && topo.domainOf(c) == topo.numDomains() - 1) {
            far.pos[load_id] = c;
            break;
        }
    }
    double far_cost = placementCost(k.graph, topo, far, opts);
    EXPECT_GT(far_cost, base_cost);
}

TEST(Placement, ModeNames)
{
    EXPECT_EQ(placeModeName(PlaceMode::DomainUnaware), "domain-unaware");
    EXPECT_EQ(placeModeName(PlaceMode::DomainAware), "only-domain-aware");
    EXPECT_EQ(placeModeName(PlaceMode::CriticalityAware), "effcc");
}

TEST(Placement, CritWeightOrdering)
{
    EXPECT_GT(critWeight(PlaceMode::CriticalityAware,
                         Criticality::Critical),
              critWeight(PlaceMode::CriticalityAware,
                         Criticality::InnerLoop));
    EXPECT_GT(critWeight(PlaceMode::CriticalityAware,
                         Criticality::InnerLoop),
              critWeight(PlaceMode::CriticalityAware,
                         Criticality::OtherMem));
    EXPECT_EQ(critWeight(PlaceMode::DomainUnaware,
                         Criticality::Critical),
              0.0);
    // Domain-aware mode is criticality-blind.
    EXPECT_EQ(critWeight(PlaceMode::DomainAware, Criticality::Critical),
              critWeight(PlaceMode::DomainAware, Criticality::OtherMem));
}

TEST(Placement, GraphTooLargeIsFatal)
{
    // More memory nodes than a 2x2 fabric has LS slots.
    auto k = buildStreamJoin(64, 8, 128, 8);
    analyzeCriticality(k.graph);
    Topology tiny = Topology::makeMonaco(2, 2);
    EXPECT_THROW(placeGraph(k.graph, tiny, PlacerOptions{}), FatalError);
}

TEST(Routing, RoutesPlacedKernel)
{
    auto k = buildStreamJoin(64, 16, 128, 16);
    analyzeCriticality(k.graph);
    Topology topo = Topology::makeMonaco(12, 12);
    Placement p = placeGraph(k.graph, topo, PlacerOptions{});
    RouteResult r = routeGraph(k.graph, topo, p);
    EXPECT_TRUE(r.success);
    EXPECT_GT(r.maxNetDelay, 0.0);
    EXPECT_GT(r.totalWire, 0.0);
    EXPECT_FALSE(r.nets.empty());
}

TEST(Routing, MoreTracksNeverWorse)
{
    auto k = buildStreamJoin(64, 16, 128, 16);
    analyzeCriticality(k.graph);
    Topology t2 = Topology::makeMonaco(8, 8, 2);
    Topology t7 = Topology::makeMonaco(8, 8, 7);
    PlacerOptions opts;
    opts.seed = 3;
    Placement p = placeGraph(k.graph, t2, opts);
    RouteResult r2 = routeGraph(k.graph, t2, p);
    RouteResult r7 = routeGraph(k.graph, t7, p);
    ASSERT_TRUE(r2.success);
    ASSERT_TRUE(r7.success);
    EXPECT_LE(r7.maxNetDelay, r2.maxNetDelay + 1e-9);
}

TEST(Routing, SuccessImpliesCapacityRespected)
{
    auto k = buildStreamJoin(64, 16, 128, 16);
    analyzeCriticality(k.graph);
    Topology topo = Topology::makeMonaco(8, 8, 2);
    Placement p = placeGraph(k.graph, topo, PlacerOptions{});
    RouteResult r = routeGraph(k.graph, topo, p);
    ASSERT_TRUE(r.success);
    ASSERT_EQ(r.linkUsage.size(), r.linkCapacity.size());
    bool carried = false;
    for (std::size_t i = 0; i < r.linkUsage.size(); ++i) {
        EXPECT_LE(r.linkUsage[i], r.linkCapacity[i]) << "link " << i;
        carried = carried || r.linkUsage[i] > 0;
    }
    EXPECT_TRUE(carried);
}

TEST(Routing, FanoutSharesTreeLinks)
{
    // A single producer fanning out to many consumers on one far
    // column must consume far fewer links than independent routes
    // would (multicast tree sharing).
    Builder b;
    auto x = b.source(5);
    std::vector<NodeId> sinks;
    for (int i = 0; i < 8; ++i)
        sinks.push_back(b.sink(b.add(x, Word{i})));
    Graph g = b.takeGraph();
    Topology topo = Topology::makeMonaco(12, 12);
    Placement p;
    p.pos.assign(g.numNodes(), Coord{0, 0});
    // Source at (0,0); the adds spread down column 10; sinks beside.
    int row = 0;
    for (NodeId id = 0; id < g.numNodes(); ++id) {
        if (opIsBinaryArith(g.node(id).op))
            p.pos[id] = Coord{row++, 10};
        else if (g.node(id).op == Op::Sink)
            p.pos[id] = p.pos[g.node(id).inputs[0].src];
    }
    RouteResult r = routeGraph(g, topo, p);
    ASSERT_TRUE(r.success);
    int used_links = 0;
    for (int u : r.linkUsage)
        used_links += u;
    // Independent routing would need ~8 * ~10 = 80 link claims; a
    // shared tree needs roughly 10 + 8 extensions.
    EXPECT_LT(used_links, 40);
}

TEST(Routing, NetDelayAtLeastDistance)
{
    // A single two-node net across the fabric: delay >= cheapest
    // per-unit cost times distance.
    Builder b;
    auto x = b.source(1);
    NodeId snk = b.sink(b.add(x, Word{1}));
    (void)snk;
    Graph g = b.takeGraph();
    Topology topo = Topology::makeMonaco(8, 8);
    Placement p;
    p.pos.assign(g.numNodes(), Coord{0, 0});
    // Spread: source at (0,0), add at (7,7), sink at (7,7).
    for (NodeId id = 0; id < g.numNodes(); ++id) {
        if (g.node(id).op != Op::Source)
            p.pos[id] = Coord{7, 7};
    }
    RouteResult r = routeGraph(g, topo, p);
    ASSERT_TRUE(r.success);
    EXPECT_GE(r.maxNetDelay, 0.7 * 14 - 1e-9);
}

TEST(Timing, DividerScalesWithDelay)
{
    RouteResult r;
    r.maxNetDelay = 3.0;
    TimingOptions opts; // budget 4, peDelay 1
    EXPECT_EQ(analyzeTiming(r, opts).clockDivider, 1);
    r.maxNetDelay = 6.9;
    EXPECT_EQ(analyzeTiming(r, opts).clockDivider, 2);
    r.maxNetDelay = 11.2;
    EXPECT_EQ(analyzeTiming(r, opts).clockDivider, 4);
}

TEST(Timing, DividerClamped)
{
    RouteResult r;
    r.maxNetDelay = 1e6;
    TimingOptions opts;
    EXPECT_EQ(analyzeTiming(r, opts).clockDivider, opts.maxDivider);
    r.maxNetDelay = 0.0;
    EXPECT_EQ(analyzeTiming(r, opts).clockDivider, 1);
}

TEST(Pnr, EndToEndSucceeds)
{
    auto k = buildStreamJoin(64, 16, 128, 16);
    Topology topo = Topology::makeMonaco(12, 12);
    PnrResult r = placeAndRoute(k.graph, topo);
    ASSERT_TRUE(r.success) << r.failureReason;
    EXPECT_GE(r.timing.clockDivider, 1);
    EXPECT_EQ(r.crit.critical, 2u);
    EXPECT_TRUE(test::legalPlacement(k.graph, topo, r.placement));
}

TEST(Pnr, FailureReportedNotFatal)
{
    auto k = buildStreamJoin(64, 16, 128, 16);
    Topology tiny = Topology::makeMonaco(2, 2);
    PnrResult r = placeAndRoute(k.graph, tiny);
    EXPECT_FALSE(r.success);
    EXPECT_FALSE(r.failureReason.empty());
}

/** Independent array-sum loops replicated P times; a 6x6 fabric
 *  fits a few copies but not 64. */
Graph
replicatedArraySums(int p)
{
    Builder b;
    auto base = b.source(64);
    for (int copy = 0; copy < p; ++copy) {
        auto exits = b.forLoop(
            b.source(0), b.source(4), 1, {b.source(0)},
            [&](Builder &b, Builder::Value i,
                const std::vector<Builder::Value> &c) {
                auto v = b.load(b.add(base, b.mul(i, Word{4})));
                return std::vector<Builder::Value>{b.add(c[0], v)};
            });
        b.sink(exits[0]);
    }
    return b.takeGraph();
}

TEST(Pnr, AutoParallelismRampsUntilFailure)
{
    const GraphFactory factory = replicatedArraySums;
    Topology topo = Topology::makeMonaco(6, 6);
    AutoParResult r = compileWithAutoParallelism(factory, topo);
    EXPECT_TRUE(r.pnr.success);
    EXPECT_GE(r.parallelism, 1);
    EXPECT_LT(r.parallelism, 64);
    // The ramp stopped because the degree it tried next failed: +1
    // per step up to 8, then +4. Past the cap it never tried one.
    int next = r.parallelism < 8 ? r.parallelism + 1 : r.parallelism + 4;
    if (next <= 64) {
        Graph tried = factory(next);
        EXPECT_FALSE(placeAndRoute(tried, topo).success);
    }
    // Twice the chosen degree needs twice the slots and wires of a
    // design that already fills the fabric, so it cannot fit either.
    Graph doubled = factory(r.parallelism * 2);
    PnrResult fail = placeAndRoute(doubled, topo);
    EXPECT_FALSE(fail.success);
}

TEST(Pnr, BackoffHalvesUntilSuccess)
{
    const GraphFactory factory = replicatedArraySums;
    Topology topo = Topology::makeMonaco(6, 6);
    const int preferred = 64;
    AutoParResult r = compileWithBackoff(factory, topo, preferred);
    ASSERT_TRUE(r.pnr.success) << r.pnr.failureReason;
    // The degree is preferred / 2^k, and the graph is the one built
    // at that degree.
    int degree = preferred;
    while (degree > r.parallelism)
        degree /= 2;
    EXPECT_EQ(degree, r.parallelism);
    EXPECT_LT(r.parallelism, preferred);
    EXPECT_EQ(r.graph.numNodes(), factory(r.parallelism).numNodes());
    // It backed off because twice that degree failed.
    Graph doubled = factory(r.parallelism * 2);
    EXPECT_FALSE(placeAndRoute(doubled, topo).success);

    // Where nothing fits, the last attempt is degree 1 and it failed.
    AutoParResult none =
        compileWithBackoff(factory, Topology::makeMonaco(2, 2), preferred);
    EXPECT_EQ(none.parallelism, 1);
    EXPECT_FALSE(none.pnr.success);
    EXPECT_FALSE(none.pnr.failureReason.empty());
}

TEST(Pnr, CongestedOutcomesPinned)
{
    // spmspv on a 2-track Monaco 16x16 with the fig16/17 placer
    // settings: degree 7 routes only after many negotiation rounds
    // and degree 8 never resolves. Every value is exact, so any
    // change to congested routing or to the annealer shows here.
    struct Pin
    {
        int degree;
        bool success;
        int iterations;
        std::size_t overusedLinks;
        double totalWire;
        double maxNetDelay;
        long linkUsageSum;
        std::uint64_t accepted;
        double winnerCost;
    };
    const Pin pins[] = {
        {7, true, 44, 0, 1510.0000000000064, 10.200000000000001, 1348,
         3807, 2058.0},
        {8, false, 60, 13, 1751.4000000000096, 15.800000000000002, 1557,
         4018, 2485.1999999999998},
    };

    std::unique_ptr<Workload> wl = makeWorkload("spmspv");
    BackingStore store(MemSysConfig{}.memBytes);
    wl->init(store);
    Topology topo = Topology::makeMonaco(16, 16, 2);
    PnrOptions opts;
    opts.place.seed = 1;
    opts.place.iterationsPerNode = 80;
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.degree);
        Graph g = wl->build(pin.degree);
        PnrResult r = placeAndRoute(g, topo, opts);
        EXPECT_EQ(r.success, pin.success);
        EXPECT_EQ(r.route.iterations, pin.iterations);
        EXPECT_EQ(r.route.overusedLinks, pin.overusedLinks);
        EXPECT_EQ(r.route.totalWire, pin.totalWire);
        EXPECT_EQ(r.route.maxNetDelay, pin.maxNetDelay);
        long usage = 0;
        for (int u : r.route.linkUsage)
            usage += u;
        EXPECT_EQ(usage, pin.linkUsageSum);
        ASSERT_EQ(r.placerStats.chains.size(), 1u);
        EXPECT_EQ(r.placerStats.chains[0].accepted, pin.accepted);
        EXPECT_EQ(r.placerStats.winnerCost, pin.winnerCost);
    }
}

} // namespace
} // namespace nupea
