/**
 * @file
 * Interpreter-level tests on hand-wired graphs: steering, merge and
 * invariant state machines, ordering tokens, deep and refilled token
 * queues, memory bounds, and quiescence diagnostics for deliberately
 * broken graphs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "dfg/builder.h"
#include "dfg/graph.h"
#include "dfg/interp.h"

namespace nupea
{
namespace
{

ByteBuffer
smallMem()
{
    return ByteBuffer(256);
}

TEST(Interp, SourceFeedsSinkOnce)
{
    Graph g;
    NodeId src = g.addNode(Op::Source, 0);
    g.node(src).imm = 77;
    NodeId snk = g.addNode(Op::Sink, 1);
    g.connect(snk, 0, src);

    auto mem = smallMem();
    Interp interp(g, mem);
    auto r = interp.run();
    EXPECT_TRUE(r.clean);
    EXPECT_EQ(r.sinks[snk].count, 1u);
    EXPECT_EQ(r.sinks[snk].last, 77);
}

TEST(Interp, SteerTrueForwardsOnTrue)
{
    Graph g;
    NodeId ctrl = g.addNode(Op::Source, 0);
    g.node(ctrl).imm = 1;
    NodeId val = g.addNode(Op::Source, 0);
    g.node(val).imm = 42;
    NodeId st = g.addNode(Op::SteerTrue, 2);
    g.connect(st, 0, ctrl);
    g.connect(st, 1, val);
    NodeId snk = g.addNode(Op::Sink, 1);
    g.connect(snk, 0, st);

    auto mem = smallMem();
    auto r = Interp(g, mem).run();
    EXPECT_TRUE(r.clean);
    EXPECT_EQ(r.sinks[snk].count, 1u);
    EXPECT_EQ(r.sinks[snk].last, 42);
}

TEST(Interp, SteerTrueDropsOnFalse)
{
    Graph g;
    NodeId ctrl = g.addNode(Op::Source, 0);
    g.node(ctrl).imm = 0;
    NodeId val = g.addNode(Op::Source, 0);
    g.node(val).imm = 42;
    NodeId st = g.addNode(Op::SteerTrue, 2);
    g.connect(st, 0, ctrl);
    g.connect(st, 1, val);
    NodeId snk = g.addNode(Op::Sink, 1);
    g.connect(snk, 0, st);

    auto mem = smallMem();
    auto r = Interp(g, mem).run();
    EXPECT_TRUE(r.clean); // both tokens consumed, none emitted
    EXPECT_EQ(r.sinks[snk].count, 0u);
}

TEST(Interp, SteerFalseMirrorsSteerTrue)
{
    Graph g;
    NodeId ctrl = g.addNode(Op::Source, 0);
    g.node(ctrl).imm = 0;
    NodeId val = g.addNode(Op::Source, 0);
    g.node(val).imm = 9;
    NodeId sf = g.addNode(Op::SteerFalse, 2);
    g.connect(sf, 0, ctrl);
    g.connect(sf, 1, val);
    NodeId snk = g.addNode(Op::Sink, 1);
    g.connect(snk, 0, sf);

    auto mem = smallMem();
    auto r = Interp(g, mem).run();
    EXPECT_EQ(r.sinks[snk].count, 1u);
    EXPECT_EQ(r.sinks[snk].last, 9);
}

TEST(Interp, FanoutDuplicatesTokens)
{
    Graph g;
    NodeId src = g.addNode(Op::Source, 0);
    g.node(src).imm = 5;
    NodeId a = g.addNode(Op::Add, 2);
    g.connect(a, 0, src);
    g.connect(a, 1, src); // same producer on both ports
    NodeId snk = g.addNode(Op::Sink, 1);
    g.connect(snk, 0, a);

    auto mem = smallMem();
    auto r = Interp(g, mem).run();
    EXPECT_TRUE(r.clean);
    EXPECT_EQ(r.sinks[snk].last, 10);
}

TEST(Interp, StrandedTokenIsReportedDirty)
{
    // An Add with only one input ever supplied: its other port is
    // wired to a steer that drops, so the supplied token strands.
    Graph g;
    NodeId src = g.addNode(Op::Source, 0);
    g.node(src).imm = 3;
    NodeId ctrl = g.addNode(Op::Source, 0);
    g.node(ctrl).imm = 0;
    NodeId st = g.addNode(Op::SteerTrue, 2); // drops (ctrl = 0)
    g.connect(st, 0, ctrl);
    g.connect(st, 1, src);
    NodeId add = g.addNode(Op::Add, 2);
    g.connect(add, 0, src);
    g.connect(add, 1, st);
    NodeId snk = g.addNode(Op::Sink, 1);
    g.connect(snk, 0, add);

    auto mem = smallMem();
    auto r = Interp(g, mem).run();
    EXPECT_FALSE(r.clean);
    ASSERT_FALSE(r.problems.empty());
    EXPECT_NE(r.problems[0].find("stranded"), std::string::npos);
}

TEST(Interp, StoreThenOrderedLoad)
{
    Graph g;
    NodeId addr = g.addNode(Op::Source, 0);
    g.node(addr).imm = 8;
    NodeId val = g.addNode(Op::Source, 0);
    g.node(val).imm = -5;
    NodeId st = g.addNode(Op::Store, 2);
    g.connect(st, 0, addr);
    g.connect(st, 1, val);
    NodeId ld = g.addNode(Op::Load, 2);
    g.connect(ld, 0, addr);
    g.connect(ld, 1, st); // ordering token
    NodeId snk = g.addNode(Op::Sink, 1);
    g.connect(snk, 0, ld);

    auto mem = smallMem();
    auto r = Interp(g, mem).run();
    EXPECT_TRUE(r.clean);
    EXPECT_EQ(r.sinks[snk].last, -5);
    EXPECT_EQ(r.loads, 1u);
    EXPECT_EQ(r.stores, 1u);
}

TEST(Interp, FiringCountsAreReported)
{
    Graph g;
    NodeId a = g.addNode(Op::Source, 0);
    g.node(a).imm = 1;
    NodeId add = g.addNode(Op::Add, 2);
    g.connect(add, 0, a);
    g.setImm(add, 1, 2);
    NodeId snk = g.addNode(Op::Sink, 1);
    g.connect(snk, 0, add);

    auto mem = smallMem();
    auto r = Interp(g, mem).run();
    EXPECT_EQ(r.firings, 3u); // source, add, sink
}

TEST(Interp, LivelockBoundTripsOnImmediateSelfFeed)
{
    // add with both operands immediate fires forever: the firing
    // bound must trip and mark the run not clean.
    Graph g;
    NodeId add = g.addNode(Op::Add, 2);
    g.setImm(add, 0, 1);
    g.setImm(add, 1, 2);

    auto mem = smallMem();
    auto r = Interp(g, mem).run(1000);
    EXPECT_FALSE(r.clean);
    ASSERT_FALSE(r.problems.empty());
    EXPECT_NE(r.problems[0].find("livelock"), std::string::npos);
}

TEST(Interp, MergeTakesInitThenBack)
{
    // Hand-wired 3-iteration counter loop to pin down merge/steer
    // interaction at the graph level (no builder involved).
    Graph g;
    NodeId init = g.addNode(Op::Source, 0);
    g.node(init).imm = 0;
    NodeId merge = g.addNode(Op::LoopMerge, 3);
    NodeId cmp = g.addNode(Op::Lt, 2);
    NodeId inc = g.addNode(Op::Add, 2);
    NodeId st = g.addNode(Op::SteerTrue, 2);
    NodeId sf = g.addNode(Op::SteerFalse, 2);
    NodeId snk = g.addNode(Op::Sink, 1);

    g.connect(merge, 0, init);
    g.connect(merge, 1, inc);
    g.connect(merge, 2, cmp);
    g.connect(cmp, 0, merge);
    g.setImm(cmp, 1, 3);
    g.connect(st, 0, cmp);
    g.connect(st, 1, merge);
    g.connect(inc, 0, st);
    g.setImm(inc, 1, 1);
    g.connect(sf, 0, cmp);
    g.connect(sf, 1, merge);
    g.connect(snk, 0, sf);

    ASSERT_TRUE(g.validate().empty());
    auto mem = smallMem();
    auto r = Interp(g, mem).run();
    EXPECT_TRUE(r.clean);
    EXPECT_EQ(r.sinks[snk].count, 1u);
    EXPECT_EQ(r.sinks[snk].last, 3);
}

TEST(Interp, OutputsIndependentOfWorklistOrder)
{
    // Dataflow execution is confluent: the interpreter's result must
    // not depend on the order nodes happen to fire. We approximate
    // by checking a diamond-shaped graph where both arms race.
    Graph g;
    NodeId src = g.addNode(Op::Source, 0);
    g.node(src).imm = 10;
    NodeId left = g.addNode(Op::Add, 2);
    g.connect(left, 0, src);
    g.setImm(left, 1, 1);
    NodeId right = g.addNode(Op::Mul, 2);
    g.connect(right, 0, src);
    g.setImm(right, 1, 3);
    NodeId join = g.addNode(Op::Sub, 2);
    g.connect(join, 0, left);
    g.connect(join, 1, right);
    NodeId snk = g.addNode(Op::Sink, 1);
    g.connect(snk, 0, join);

    auto mem = smallMem();
    auto r = Interp(g, mem).run();
    EXPECT_EQ(r.sinks[snk].last, 11 - 30);
}

/**
 * Two counted loops of `trips` iterations whose induction values meet
 * at one Mul, built inside the current scope of `b`. The second loop's
 * bound is the first loop's exit count, so it cannot start before the
 * first has finished: every induction value of the first loop queues
 * on the Mul's port 1 at once, then drains one per iteration of the
 * second. Returns the sink of the products.
 */
NodeId
buildQueuedJoin(Builder &b, Builder::Value trips)
{
    using Value = Builder::Value;
    Value first;
    auto counted = b.forLoop(
        b.source(0), trips, 1, {b.source(0)},
        [&](Builder &bb, Value i, const std::vector<Value> &c) {
            first = i;
            return std::vector<Value>{bb.add(c[0], 1)};
        });
    NodeId join = kInvalidId;
    NodeId sink = kInvalidId;
    b.forLoop(b.source(0), counted[0], 1, {},
              [&](Builder &bb, Value j, const std::vector<Value> &) {
                  Value product = bb.mul(j, 1); // port 1 rewired below
                  join = product.id;
                  sink = bb.sink(product);
                  return std::vector<Value>{};
              });
    b.graph().connect(join, 1, first.id);
    return sink;
}

/** Sum of k * k for k in [0, n). */
std::int64_t
sumOfSquares(std::int64_t n)
{
    return (n - 1) * n * (2 * n - 1) / 6;
}

TEST(Interp, DeepPortHoldsThousandsOfTokens)
{
    // 1500 tokens sit on one port before the first is consumed. The
    // products pair the k-th token of each loop only if the port
    // keeps arrival order, and the sum of k * k is the largest
    // pairing sum, so any reordering lowers it.
    constexpr Word kTrips = 1500;
    Builder b;
    NodeId sink = buildQueuedJoin(b, b.source(kTrips));
    ASSERT_TRUE(b.graph().validate().empty());

    auto mem = smallMem();
    auto r = Interp(b.graph(), mem).run();
    EXPECT_TRUE(r.clean) << (r.problems.empty() ? "" : r.problems[0]);
    EXPECT_EQ(r.sinks[sink].count, static_cast<std::uint64_t>(kTrips));
    EXPECT_EQ(r.sinks[sink].sum, sumOfSquares(kTrips));
    EXPECT_EQ(r.sinks[sink].last, (kTrips - 1) * (kTrips - 1));
}

TEST(Interp, PortFillsAndDrainsRepeatedly)
{
    // An outer loop runs the queued join 12 times with 5, 42, ...,
    // 412 trips: the port refills from wherever its ring head was
    // left, wraps, and grows while wrapped.
    constexpr Word kRounds = 12;
    auto trips = [](Word r) { return 37 * r + 5; };
    Builder b;
    NodeId sink = kInvalidId;
    b.forLoop(b.source(0), b.source(kRounds), 1, {},
              [&](Builder &bb, Builder::Value r,
                  const std::vector<Builder::Value> &) {
                  sink = buildQueuedJoin(bb, bb.add(bb.mul(r, 37), 5));
                  return std::vector<Builder::Value>{};
              });
    ASSERT_TRUE(b.graph().validate().empty());

    auto mem = smallMem();
    auto r = Interp(b.graph(), mem).run();
    EXPECT_TRUE(r.clean) << (r.problems.empty() ? "" : r.problems[0]);
    std::uint64_t count = 0;
    std::int64_t sum = 0;
    for (Word round = 0; round < kRounds; ++round) {
        count += static_cast<std::uint64_t>(trips(round));
        sum += sumOfSquares(trips(round));
    }
    Word last = trips(kRounds - 1) - 1;
    EXPECT_EQ(r.sinks[sink].count, count);
    EXPECT_EQ(r.sinks[sink].sum, sum);
    EXPECT_EQ(r.sinks[sink].last, last * last);
}

/** Source(addr) -> Load -> Sink. */
Graph
loadFrom(Word addr)
{
    Graph g;
    NodeId src = g.addNode(Op::Source, 0);
    g.node(src).imm = addr;
    NodeId ld = g.addNode(Op::Load, 1);
    g.connect(ld, 0, src);
    NodeId snk = g.addNode(Op::Sink, 1);
    g.connect(snk, 0, ld);
    return g;
}

/** Source(addr), Source(value) -> Store -> Sink. */
Graph
storeTo(Word addr, Word value)
{
    Graph g;
    NodeId a = g.addNode(Op::Source, 0);
    g.node(a).imm = addr;
    NodeId v = g.addNode(Op::Source, 0);
    g.node(v).imm = value;
    NodeId st = g.addNode(Op::Store, 2);
    g.connect(st, 0, a);
    g.connect(st, 1, v);
    NodeId snk = g.addNode(Op::Sink, 1);
    g.connect(snk, 0, st);
    return g;
}

TEST(Interp, LastWordInBoundsLoadsAndStores)
{
    auto mem = smallMem();
    auto stored = Interp(storeTo(252, -7), mem).run();
    EXPECT_TRUE(stored.clean);
    EXPECT_EQ(stored.stores, 1u);
    auto loaded = Interp(loadFrom(252), mem).run();
    EXPECT_TRUE(loaded.clean);
    ASSERT_EQ(loaded.sinks.size(), 1u);
    EXPECT_EQ(loaded.sinks.begin()->second.last, -7);
}

// Address -4 is 0xFFFFFFFC: `addr + 4` in 32-bit arithmetic wraps to
// 0 and would pass the bounds check.
TEST(InterpDeathTest, WrappingLoadAddressPanics)
{
    auto mem = smallMem();
    EXPECT_DEATH(Interp(loadFrom(-4), mem).run(),
                 "load out of bounds: 4294967292");
}

TEST(InterpDeathTest, WrappingStoreAddressPanics)
{
    auto mem = smallMem();
    EXPECT_DEATH(Interp(storeTo(-4, 1), mem).run(),
                 "store out of bounds: 4294967292");
}

} // namespace
} // namespace nupea
