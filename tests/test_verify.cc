/**
 * @file
 * Static-verifier tests: one deliberately broken graph per diagnostic
 * ID (asserting a *located* finding), "silent on goldens" checks for
 * the Builder kernels and all 13 workloads, and diagnostics-engine
 * tests (catalog stability, text rendering).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/pnr.h"
#include "fabric/topology.h"
#include "memory/memsys.h"
#include "test_support.h"
#include "verify/verify.h"
#include "workloads/workload.h"

namespace nupea
{
namespace
{

using test::buildArraySum;
using test::buildPointerChase;
using test::buildStreamJoin;

/** Hand-built counting loop (for i = 0; i < N; i += 1), wired
 *  directly against the Graph API so tamper tests can break exactly
 *  one invariant at a time. */
struct HandLoop
{
    Graph g;
    NodeId src = kInvalidId;   ///< Source holding N
    NodeId merge = kInvalidId; ///< induction merge
    NodeId inv = kInvalidId;   ///< Invariant repeating N
    NodeId dec = kInvalidId;   ///< Lt decider
    NodeId steer = kInvalidId; ///< SteerTrue into the body
    NodeId inc = kInvalidId;   ///< i + 1 (back edge)
    NodeId exit = kInvalidId;  ///< SteerFalse exit value
    NodeId sink = kInvalidId;
};

HandLoop
makeCountLoop()
{
    HandLoop h;
    Graph &g = h.g;
    h.src = g.addNode(Op::Source, 0, "N");
    g.node(h.src).imm = 8;
    h.merge = g.addNode(Op::LoopMerge, 3, "i");
    h.inv = g.addNode(Op::Invariant, 2, "N.rep");
    h.dec = g.addNode(Op::Lt, 2, "cond");
    h.steer = g.addNode(Op::SteerTrue, 2, "i.body");
    h.inc = g.addNode(Op::Add, 2, "i.next");
    h.exit = g.addNode(Op::SteerFalse, 2, "i.exit");
    h.sink = g.addNode(Op::Sink, 1, "out");

    g.setImm(h.merge, 0, 0);
    g.connect(h.merge, 1, h.inc);
    g.connect(h.merge, 2, h.dec);
    g.connect(h.inv, 0, h.src);
    g.connect(h.inv, 1, h.dec);
    g.connect(h.dec, 0, h.merge);
    g.connect(h.dec, 1, h.inv);
    g.connect(h.steer, 0, h.dec);
    g.connect(h.steer, 1, h.merge);
    g.connect(h.inc, 0, h.steer);
    g.setImm(h.inc, 1, 1);
    g.connect(h.exit, 0, h.dec);
    g.connect(h.exit, 1, h.merge);
    g.connect(h.sink, 0, h.exit);
    return h;
}

/** The diagnostic for `id`, asserting it exists and sits on `node`. */
const Diagnostic &
located(const DiagnosticReport &report, DiagId id, NodeId node)
{
    static const Diagnostic kNone;
    const Diagnostic *d = report.find(id);
    EXPECT_NE(d, nullptr)
        << "missing " << diagIdName(id) << "\n" << report.renderText();
    if (d == nullptr)
        return kNone;
    EXPECT_EQ(d->node, node) << report.renderText();
    return *d;
}

// ---------------------------------------------------------------------
// Diagnostics engine.

TEST(VerifyDiagnostics, CatalogIsCompleteAndStable)
{
    std::vector<std::string_view> names;
    for (int i = 0; i < kNumDiagIds; ++i) {
        auto id = static_cast<DiagId>(i);
        std::string_view name = diagIdName(id);
        EXPECT_FALSE(name.empty());
        EXPECT_FALSE(diagIdDescription(id).empty());
        bool prefixed = name.rfind("struct.", 0) == 0 ||
                        name.rfind("rate.", 0) == 0 ||
                        name.rfind("place.", 0) == 0 ||
                        name.rfind("route.", 0) == 0 ||
                        name.rfind("perf.", 0) == 0;
        EXPECT_TRUE(prefixed) << name;
        names.push_back(name);
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()),
              names.end())
        << "duplicate diagnostic id";

    // Spot-check the ids tests and docs key on.
    EXPECT_EQ(diagIdName(DiagId::RateBackEdge), "rate.back-edge");
    EXPECT_EQ(diagIdName(DiagId::PlaceOverCap), "place.fu-capacity");
    EXPECT_EQ(diagIdSeverity(DiagId::StructUnusedOutput),
              Severity::Warning);
    EXPECT_EQ(diagIdSeverity(DiagId::RouteStaleNet), Severity::Warning);
    EXPECT_EQ(diagIdSeverity(DiagId::RateDeadlockCycle),
              Severity::Error);
}

TEST(VerifyDiagnostics, RenderTextAndJsonCarryProvenance)
{
    HandLoop h = makeCountLoop();
    DiagnosticReport report;
    report.addNode(DiagId::StructArity, h.g, h.dec, "test message");
    report.add(DiagId::RouteFailed, "graph-level message");

    std::string text = report.renderText();
    EXPECT_NE(text.find("error[struct.arity] node 3 'cond'"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("error[route.failed]: graph-level message"),
              std::string::npos)
        << text;

    EXPECT_EQ(report.errorCount(), 2u);
    EXPECT_TRUE(report.hasErrors());
    DiagnosticReport other;
    other.addNode(DiagId::StructUnusedOutput, h.g, h.inc, "w");
    report.append(other);
    EXPECT_EQ(report.warningCount(), 1u);
}

// ---------------------------------------------------------------------
// Silent on well-formed graphs.

TEST(VerifySilent, HandBuiltLoopIsSilent)
{
    HandLoop h = makeCountLoop();
    DiagnosticReport report = verifyGraph(h.g);
    EXPECT_TRUE(report.empty()) << report.renderText();
}

TEST(VerifySilent, BuilderGoldenKernelsAreSilent)
{
    Graph kernels[] = {buildArraySum(0x1000, 8).graph,
                       buildPointerChase(0x2000, 4).graph,
                       buildStreamJoin(0x1000, 6, 0x2000, 6).graph};
    for (Graph &g : kernels) {
        DiagnosticReport report = verifyGraph(g);
        EXPECT_TRUE(report.empty()) << report.renderText();
    }
}

// ---------------------------------------------------------------------
// Structural rules: one broken graph per diagnostic id.

TEST(VerifyStructural, BadOpcode)
{
    HandLoop h = makeCountLoop();
    h.g.node(h.inc).op = static_cast<Op>(200);
    located(verifyGraph(h.g), DiagId::StructBadOpcode, h.inc);
}

TEST(VerifyStructural, Arity)
{
    Graph g;
    NodeId a = g.addNode(Op::Add, 2, "half-add");
    g.setImm(a, 0, 1);
    g.setImm(a, 1, 2);
    g.node(a).inputs.resize(1); // addNode itself asserts arity
    located(verifyGraph(g), DiagId::StructArity, a);
}

TEST(VerifyStructural, PortUnconnected)
{
    HandLoop h = makeCountLoop();
    h.g.node(h.inc).inputs[1] = InputConn{};
    located(verifyGraph(h.g), DiagId::StructPortUnconnected, h.inc);
}

TEST(VerifyStructural, PortBadRef)
{
    HandLoop h = makeCountLoop();
    h.g.node(h.inc).inputs[1] = InputConn::fromNode(999);
    located(verifyGraph(h.g), DiagId::StructPortBadRef, h.inc);
}

TEST(VerifyStructural, SinkConsumed)
{
    HandLoop h = makeCountLoop();
    NodeId bad = h.g.addNode(Op::Add, 2, "eats-sink");
    h.g.connect(bad, 0, h.sink);
    h.g.setImm(bad, 1, 1);
    NodeId s2 = h.g.addNode(Op::Sink, 1);
    h.g.connect(s2, 0, bad);
    located(verifyGraph(h.g), DiagId::StructSinkConsumed, bad);
}

TEST(VerifyStructural, CritOnNonMem)
{
    HandLoop h = makeCountLoop();
    h.g.node(h.inc).crit = Criticality::Critical;
    located(verifyGraph(h.g), DiagId::StructCritNonMem, h.inc);
}

TEST(VerifyStructural, LoopRef)
{
    HandLoop h = makeCountLoop();
    h.g.node(h.merge).loop = 7; // no loops registered
    h.g.node(h.merge).loopDepth = 1;
    located(verifyGraph(h.g), DiagId::StructLoopRef, h.merge);
}

TEST(VerifyStructural, LoopDepth)
{
    HandLoop h = makeCountLoop();
    LoopId loop = h.g.addLoop(kInvalidId); // depth 1
    h.g.node(h.merge).loop = loop;
    h.g.node(h.merge).loopDepth = 2;
    located(verifyGraph(h.g), DiagId::StructLoopDepth, h.merge);

    HandLoop h2 = makeCountLoop();
    h2.g.node(h2.inc).loopDepth = 1; // depth without a loop
    located(verifyGraph(h2.g), DiagId::StructLoopDepth, h2.inc);
}

TEST(VerifyStructural, MergeCtrlImm)
{
    HandLoop h = makeCountLoop();
    h.g.node(h.merge).inputs[2] = InputConn::fromImm(1);
    EXPECT_TRUE(verifyGraph(h.g).has(DiagId::StructMergeCtrlImm));
    located(verifyGraph(h.g), DiagId::StructMergeCtrlImm, h.merge);
}

TEST(VerifyStructural, InvariantCtrlImm)
{
    HandLoop h = makeCountLoop();
    h.g.node(h.inv).inputs[1] = InputConn::fromImm(1);
    located(verifyGraph(h.g), DiagId::StructInvarCtrlImm, h.inv);
}

TEST(VerifyStructural, CombCycle)
{
    // Two steers feeding each other: a combinational ring with no
    // merge to pace it.
    Graph g;
    NodeId ctrl = g.addNode(Op::Source, 0, "ctrl");
    NodeId s1 = g.addNode(Op::SteerTrue, 2, "s1");
    NodeId s2 = g.addNode(Op::SteerTrue, 2, "s2");
    g.connect(s1, 0, ctrl);
    g.connect(s1, 1, s2);
    g.connect(s2, 0, ctrl);
    g.connect(s2, 1, s1);
    EXPECT_TRUE(verifyGraph(g).has(DiagId::StructCombCycle));
}

TEST(VerifyStructural, UnusedOutput)
{
    HandLoop h = makeCountLoop();
    NodeId dead = h.g.addNode(Op::Mul, 2, "dead");
    h.g.connect(dead, 0, h.src);
    h.g.setImm(dead, 1, 3);
    DiagnosticReport report = verifyGraph(h.g);
    located(report, DiagId::StructUnusedOutput, dead);
    EXPECT_EQ(report.errorCount(), 0u) << report.renderText();
}

TEST(VerifyStructural, Unreachable)
{
    // Two Adds waiting on each other: neither can ever fire.
    Graph g;
    NodeId a = g.addNode(Op::Add, 2, "a");
    NodeId b = g.addNode(Op::Add, 2, "b");
    g.connect(a, 0, b);
    g.setImm(a, 1, 1);
    g.connect(b, 0, a);
    g.setImm(b, 1, 1);
    EXPECT_TRUE(verifyGraph(g).has(DiagId::StructUnreachable));
}

TEST(VerifyStructural, SteerConstCtrl)
{
    HandLoop h = makeCountLoop();
    h.g.node(h.steer).inputs[0] = InputConn::fromImm(1);
    located(verifyGraph(h.g), DiagId::StructSteerConstCtrl, h.steer);
}

// ---------------------------------------------------------------------
// Token-rate / deadlock rules.

TEST(VerifyRates, AllImm)
{
    Graph g;
    NodeId a = g.addNode(Op::Add, 2, "const-add");
    g.setImm(a, 0, 1);
    g.setImm(a, 1, 2);
    NodeId s = g.addNode(Op::Sink, 1);
    g.connect(s, 0, a);
    located(verifyGraph(g), DiagId::RateAllImm, a);
}

TEST(VerifyRates, DeadlockCycle)
{
    // Non-combinational ring (two Adds) with no merge or invariant:
    // statically dead before the first token.
    Graph g;
    NodeId a = g.addNode(Op::Add, 2, "a");
    NodeId b = g.addNode(Op::Add, 2, "b");
    g.connect(a, 0, b);
    g.setImm(a, 1, 1);
    g.connect(b, 0, a);
    g.setImm(b, 1, 1);
    EXPECT_TRUE(verifyGraph(g).has(DiagId::RateDeadlockCycle));
}

TEST(VerifyRates, Mismatch)
{
    // Combine a once-per-invocation value with a per-condition loop
    // value in one Add: one side leaks.
    HandLoop h = makeCountLoop();
    NodeId bad = h.g.addNode(Op::Add, 2, "leaky");
    h.g.connect(bad, 0, h.src);   // rate once
    h.g.connect(bad, 1, h.merge); // rate cond(dec)
    NodeId s2 = h.g.addNode(Op::Sink, 1);
    h.g.connect(s2, 0, bad);
    DiagnosticReport report = verifyGraph(h.g);
    const Diagnostic &d = located(report, DiagId::RateMismatch, bad);
    EXPECT_NE(d.message.find("once"), std::string::npos) << d.message;
}

TEST(VerifyRates, BackEdge)
{
    // Back edge driven by a Source: once per program, not once per
    // iteration — the merge starves after the first pass.
    HandLoop h = makeCountLoop();
    NodeId rogue = h.g.addNode(Op::Source, 0, "rogue");
    h.g.node(h.merge).inputs[1] = InputConn::fromNode(rogue);
    located(verifyGraph(h.g), DiagId::RateBackEdge, h.merge);
}

TEST(VerifyRates, CtrlRate)
{
    // Decider computed from a *steered* (body-rate) value: it emits k
    // decisions where the merge needs k+1.
    Graph g;
    NodeId m = g.addNode(Op::LoopMerge, 3, "i");
    NodeId st = g.addNode(Op::SteerTrue, 2, "i.body");
    NodeId inc = g.addNode(Op::Add, 2, "i.next");
    NodeId dec = g.addNode(Op::Ne, 2, "cond");
    g.setImm(m, 0, 0);
    g.connect(m, 1, inc);
    g.connect(m, 2, dec);
    g.connect(st, 0, dec);
    g.connect(st, 1, m);
    g.connect(inc, 0, st);
    g.setImm(inc, 1, 1);
    g.connect(dec, 0, st); // body-rate input into the decider
    g.setImm(dec, 1, 8);
    located(verifyGraph(g), DiagId::RateCtrlRate, dec);
}

TEST(VerifyRates, DeciderMixed)
{
    // Two merges tagged with the same loop id but steered by two
    // different deciders.
    Graph g;
    LoopId loop = g.addLoop(kInvalidId);
    for (int k = 0; k < 2; ++k) {
        NodeId m = g.addNode(Op::LoopMerge, 3,
                             k == 0 ? "i" : "j");
        NodeId st = g.addNode(Op::SteerTrue, 2);
        NodeId inc = g.addNode(Op::Add, 2);
        NodeId dec = g.addNode(Op::Lt, 2);
        g.setImm(m, 0, 0);
        g.connect(m, 1, inc);
        g.connect(m, 2, dec);
        g.connect(st, 0, dec);
        g.connect(st, 1, m);
        g.connect(inc, 0, st);
        g.setImm(inc, 1, 1);
        g.connect(dec, 0, m);
        g.setImm(dec, 1, 8);
        g.node(m).loop = loop;
        g.node(m).loopDepth = 1;
    }
    EXPECT_TRUE(verifyGraph(g).has(DiagId::RateDeciderMixed));
}

TEST(VerifyRates, NonTerminatingLoop)
{
    // Decider compares two sources: no loop-carried value reaches it,
    // so it decides the same thing forever.
    Graph g;
    NodeId a = g.addNode(Op::Source, 0, "a");
    NodeId b = g.addNode(Op::Source, 0, "b");
    NodeId dec = g.addNode(Op::Lt, 2, "cond");
    NodeId m = g.addNode(Op::LoopMerge, 3, "i");
    NodeId st = g.addNode(Op::SteerTrue, 2);
    NodeId inc = g.addNode(Op::Add, 2);
    g.connect(dec, 0, a);
    g.connect(dec, 1, b);
    g.setImm(m, 0, 0);
    g.connect(m, 1, inc);
    g.connect(m, 2, dec);
    g.connect(st, 0, dec);
    g.connect(st, 1, m);
    g.connect(inc, 0, st);
    g.setImm(inc, 1, 1);
    located(verifyGraph(g), DiagId::RateNonTerminating, dec);
}

// ---------------------------------------------------------------------
// Placement / routing legality.

/** arraySum compiled for a small Monaco: the tamper baseline. */
struct Compiled
{
    Graph graph;
    Topology topo;
    PnrResult pnr;
};

Compiled
compileArraySum()
{
    Compiled c;
    c.graph = buildArraySum(0x1000, 8).graph;
    c.topo = Topology::makeMonaco(8, 8);
    PnrOptions popts;
    popts.place.iterationsPerNode = 40;
    c.pnr = placeAndRoute(c.graph, c.topo, popts);
    EXPECT_TRUE(c.pnr.success) << c.pnr.failureReason;
    return c;
}

NodeId
findMemNode(const Graph &g)
{
    for (NodeId id = 0; id < g.numNodes(); ++id) {
        if (opTraits(g.node(id).op).isMemory)
            return id;
    }
    return kInvalidId;
}

TEST(VerifyLegality, CompiledKernelIsSilent)
{
    Compiled c = compileArraySum();
    DiagnosticReport report = verifyCompiled(c.graph, c.topo, c.pnr);
    EXPECT_TRUE(report.empty()) << report.renderText();
}

TEST(VerifyLegality, PlaceSize)
{
    Compiled c = compileArraySum();
    Placement p = c.pnr.placement;
    p.pos.pop_back();
    DiagnosticReport report;
    checkPlacement(c.graph, c.topo, p, report);
    EXPECT_TRUE(report.has(DiagId::PlaceSize)) << report.renderText();
}

TEST(VerifyLegality, PlaceOffFabric)
{
    Compiled c = compileArraySum();
    Placement p = c.pnr.placement;
    p.pos[0] = Coord{c.topo.rows(), 0};
    DiagnosticReport report;
    checkPlacement(c.graph, c.topo, p, report);
    located(report, DiagId::PlaceOffFabric, 0);
}

TEST(VerifyLegality, PlaceMemNonLs)
{
    Compiled c = compileArraySum();
    NodeId mem = findMemNode(c.graph);
    ASSERT_NE(mem, kInvalidId);
    Coord arith{-1, -1};
    for (int t = 0; t < c.topo.numTiles(); ++t) {
        if (!c.topo.isLs(c.topo.tileCoord(t))) {
            arith = c.topo.tileCoord(t);
            break;
        }
    }
    ASSERT_GE(arith.row, 0);
    Placement p = c.pnr.placement;
    p.pos[mem] = arith;
    DiagnosticReport report;
    checkPlacement(c.graph, c.topo, p, report);
    located(report, DiagId::PlaceMemNonLs, mem);
}

TEST(VerifyLegality, PlaceOverCap)
{
    Compiled c = compileArraySum();
    // Pile three arith instructions onto one two-slot arith tile.
    std::vector<NodeId> arith_nodes;
    for (NodeId id = 0; id < c.graph.numNodes(); ++id) {
        if (opTraits(c.graph.node(id).op).fu == FuClass::Arith)
            arith_nodes.push_back(id);
    }
    ASSERT_GE(arith_nodes.size(), 3u);
    Coord tile{-1, -1};
    for (int t = 0; t < c.topo.numTiles(); ++t) {
        if (!c.topo.isLs(c.topo.tileCoord(t))) {
            tile = c.topo.tileCoord(t);
            break;
        }
    }
    Placement p = c.pnr.placement;
    for (int k = 0; k < 3; ++k)
        p.pos[arith_nodes[static_cast<std::size_t>(k)]] = tile;
    DiagnosticReport report;
    checkPlacement(c.graph, c.topo, p, report);
    EXPECT_TRUE(report.has(DiagId::PlaceOverCap)) << report.renderText();
}

TEST(VerifyLegality, PortRangeHoldsByConstruction)
{
    // place.port-range is defense-in-depth: Topology::portOf is
    // range-correct by construction for every factory fabric, so the
    // rule cannot fire through the public API. Pin that property here
    // (if a future topology breaks it, the verifier catches it at
    // compile time rather than as a simulator hang).
    Topology topos[] = {Topology::makeMonaco(12, 12),
                        Topology::makeMonaco(8, 8, 3, 2),
                        Topology::makeClusteredSingle(12, 12),
                        Topology::makeClusteredDouble(12, 12)};
    for (const Topology &topo : topos) {
        for (int t = 0; t < topo.numTiles(); ++t) {
            Coord c = topo.tileCoord(t);
            if (!topo.isLs(c))
                continue;
            int port = topo.portOf(c);
            EXPECT_GE(port, 0) << topo.name();
            EXPECT_LT(port, topo.memPorts()) << topo.name();
        }
    }
}

TEST(VerifyLegality, RouteFailed)
{
    Compiled c = compileArraySum();
    RouteResult failed = c.pnr.route;
    failed.success = false;
    failed.overusedLinks = 2;
    DiagnosticReport report;
    checkRouting(c.graph, c.topo, c.pnr.placement, failed, report);
    EXPECT_TRUE(report.has(DiagId::RouteFailed)) << report.renderText();
}

TEST(VerifyLegality, RouteOveruse)
{
    Compiled c = compileArraySum();
    RouteResult route = c.pnr.route;
    ASSERT_FALSE(route.linkUsage.empty());
    route.linkUsage[0] = route.linkCapacity[0] + 1;
    DiagnosticReport report;
    checkRouting(c.graph, c.topo, c.pnr.placement, route, report);
    EXPECT_TRUE(report.has(DiagId::RouteOveruse))
        << report.renderText();
}

TEST(VerifyLegality, RouteMissingNet)
{
    Compiled c = compileArraySum();
    RouteResult route = c.pnr.route;
    ASSERT_FALSE(route.nets.empty());
    route.nets.pop_back();
    DiagnosticReport report;
    checkRouting(c.graph, c.topo, c.pnr.placement, route, report);
    EXPECT_TRUE(report.has(DiagId::RouteMissingNet))
        << report.renderText();
}

TEST(VerifyLegality, RouteStaleNet)
{
    Compiled c = compileArraySum();
    RouteResult route = c.pnr.route;
    // A net from node 0 to its own tile: intra-tile hops never get a
    // net, so this cannot match any edge.
    NetRoute bogus;
    bogus.src = 0;
    bogus.dstTile = c.topo.tileIndex(c.pnr.placement.of(0));
    route.nets.push_back(bogus);
    DiagnosticReport report;
    checkRouting(c.graph, c.topo, c.pnr.placement, route, report);
    located(report, DiagId::RouteStaleNet, 0);
    EXPECT_EQ(report.errorCount(), 0u) << report.renderText();
}

// ---------------------------------------------------------------------
// The registered workloads verify clean (satellite: every workload at
// its default sweep configuration).

TEST(VerifyWorkloads, AllThirteenGraphsVerifyClean)
{
    for (const std::string &name : workloadNames()) {
        auto wl = makeWorkload(name);
        BackingStore store(MemSysConfig{}.memBytes);
        wl->init(store);
        int parallelism = std::max(1, wl->preferredParallelism());
        Graph g = wl->build(parallelism);
        DiagnosticReport report = verifyGraph(g);
        EXPECT_EQ(report.errorCount(), 0u)
            << name << " (parallelism " << parallelism << ")\n"
            << report.renderText();
    }
}

TEST(VerifyWorkloads, CompiledWorkloadsVerifyClean)
{
    // Full pipeline (build + PnR + verify) for a cross-section:
    // dense streaming, sparse, and the data-dependent sort. The
    // remaining workloads get the same treatment in every bench run
    // (compileWorkload verifies by default).
    Topology topo = Topology::makeMonaco(12, 12);
    for (const char *name : {"dmv", "spmv", "mergesort"}) {
        auto wl = makeWorkload(name);
        BackingStore store(MemSysConfig{}.memBytes);
        wl->init(store);
        Graph g = wl->build(1);
        PnrOptions popts;
        popts.place.iterationsPerNode = 40;
        PnrResult pnr = placeAndRoute(g, topo, popts);
        ASSERT_TRUE(pnr.success) << name << ": " << pnr.failureReason;
        DiagnosticReport report = verifyCompiled(g, topo, pnr);
        EXPECT_EQ(report.errorCount(), 0u)
            << name << "\n" << report.renderText();
    }
}

} // namespace
} // namespace nupea
