/**
 * @file
 * Builder semantics tests: every graph the builder produces is run
 * through the untimed interpreter and must (a) compute the right
 * values and (b) quiesce cleanly — no stranded tokens, all merges and
 * invariants back in their initial state.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/log.h"
#include "dfg/builder.h"
#include "dfg/interp.h"
#include "test_support.h"

namespace nupea
{
namespace
{

using Value = Builder::Value;

/** Write a word into little-endian byte memory. */
void
pokeWord(ByteBuffer &mem, Addr addr, Word value)
{
    auto v = static_cast<std::uint32_t>(value);
    mem[addr] = static_cast<std::uint8_t>(v);
    mem[addr + 1] = static_cast<std::uint8_t>(v >> 8);
    mem[addr + 2] = static_cast<std::uint8_t>(v >> 16);
    mem[addr + 3] = static_cast<std::uint8_t>(v >> 24);
}

Word
peekWord(const ByteBuffer &mem, Addr addr)
{
    std::uint32_t v = mem[addr] |
                      (static_cast<std::uint32_t>(mem[addr + 1]) << 8) |
                      (static_cast<std::uint32_t>(mem[addr + 2]) << 16) |
                      (static_cast<std::uint32_t>(mem[addr + 3]) << 24);
    return static_cast<Word>(v);
}

/** Run builder's graph; assert validity and clean quiescence. */
InterpResult
runClean(Builder &b, ByteBuffer &mem)
{
    EXPECT_TRUE(test::wellFormed(b.graph()));
    Interp interp(b.graph(), mem);
    InterpResult r = interp.run();
    EXPECT_TRUE(r.clean) << (r.problems.empty() ? "" : r.problems[0]);
    return r;
}

TEST(Builder, StraightLineArithmetic)
{
    Builder b;
    auto x = b.source(6, "x");
    auto y = b.source(7, "y");
    auto z = b.add(b.mul(x, y), 8);
    NodeId out = b.sink(z, "z");

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].count, 1u);
    EXPECT_EQ(r.sinks[out].last, 50);
}

TEST(Builder, ImmediateOnEitherSide)
{
    Builder b;
    auto x = b.source(10);
    NodeId a = b.sink(b.sub(x, Word{3}));
    NodeId c = b.sink(b.sub(Word{3}, x));

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[a].last, 7);
    EXPECT_EQ(r.sinks[c].last, -7);
}

TEST(Builder, SelectComputesBothArms)
{
    Builder b;
    auto c = b.source(1);
    auto x = b.source(11);
    auto y = b.source(22);
    NodeId out = b.sink(b.select(c, x, y));

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].last, 11);
}

TEST(Builder, ForLoopSum)
{
    Builder b;
    auto n = b.source(10, "n");
    auto acc0 = b.source(0);
    auto exits = b.forLoop(
        b.source(0), n, 1, {acc0},
        [](Builder &b, Value i, const std::vector<Value> &c) {
            return std::vector<Value>{b.add(c[0], i)};
        });
    NodeId out = b.sink(exits[0], "sum");

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].count, 1u);
    EXPECT_EQ(r.sinks[out].last, 45); // 0+1+...+9
}

TEST(Builder, ZeroIterationLoop)
{
    Builder b;
    auto exits = b.forLoop(
        b.source(5), b.source(5), 1, {b.source(99)},
        [](Builder &b, Value i, const std::vector<Value> &c) {
            return std::vector<Value>{b.add(c[0], i)};
        });
    NodeId out = b.sink(exits[0]);

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].count, 1u);
    EXPECT_EQ(r.sinks[out].last, 99);
}

TEST(Builder, WhileLoopCollatzSteps)
{
    // Count Collatz steps from 6: 6 3 10 5 16 8 4 2 1 -> 8 steps.
    Builder b;
    auto x0 = b.source(6);
    auto steps0 = b.source(0);
    auto exits = b.whileLoop(
        {x0, steps0},
        [](Builder &b, const std::vector<Value> &cur) {
            return b.gt(cur[0], Word{1});
        },
        [](Builder &b, const std::vector<Value> &cur) {
            auto is_even = b.eq(b.band(cur[0], Word{1}), Word{0});
            auto half = b.div(cur[0], Word{2});
            auto tri = b.add(b.mul(cur[0], Word{3}), Word{1});
            auto next = b.select(is_even, half, tri);
            return std::vector<Value>{next, b.add(cur[1], Word{1})};
        });
    NodeId out = b.sink(exits[1], "steps");

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].last, 8);
}

TEST(Builder, InvariantBoundUsedInCondition)
{
    // forLoop's condition uses `end`, a top-level value, inside the
    // loop: the builder must insert an Invariant (k+1 emissions).
    Builder b;
    auto end = b.source(4);
    auto exits = b.forLoop(
        b.source(0), end, 1, {b.source(0)},
        [](Builder &b, Value i, const std::vector<Value> &c) {
            (void)i;
            return std::vector<Value>{b.add(c[0], Word{1})};
        });
    NodeId out = b.sink(exits[0]);

    std::size_t invariants = 0;
    for (const Node &n : b.graph().nodes())
        invariants += (n.op == Op::Invariant);
    EXPECT_GE(invariants, 1u);

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].last, 4);
}

TEST(Builder, InvariantUsedInBody)
{
    // A top-level value consumed in the body gets an InvariantGated
    // repeater (k emissions).
    Builder b;
    auto k = b.source(3, "k");
    auto exits = b.forLoop(
        b.source(0), b.source(5), 1, {b.source(0)},
        [&](Builder &b, Value i, const std::vector<Value> &c) {
            (void)i;
            return std::vector<Value>{b.add(c[0], k)};
        });
    NodeId out = b.sink(exits[0]);

    std::size_t gated = 0;
    for (const Node &n : b.graph().nodes())
        gated += (n.op == Op::InvariantGated);
    EXPECT_GE(gated, 1u);

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].last, 15);
}

TEST(Builder, SameValueInCondAndBodyGetsTwoRepeaters)
{
    Builder b;
    auto n = b.source(4, "n");
    // while (i < n) { acc += n; i++ }
    auto exits = b.whileLoop(
        {b.source(0), b.source(0)},
        [&](Builder &b, const std::vector<Value> &cur) {
            return b.lt(cur[0], n);
        },
        [&](Builder &b, const std::vector<Value> &cur) {
            return std::vector<Value>{b.add(cur[0], Word{1}),
                                      b.add(cur[1], n)};
        });
    NodeId out = b.sink(exits[1]);

    std::size_t plain = 0, gated = 0;
    for (const Node &node : b.graph().nodes()) {
        plain += (node.op == Op::Invariant);
        gated += (node.op == Op::InvariantGated);
    }
    EXPECT_EQ(plain, 1u);
    EXPECT_EQ(gated, 1u);

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].last, 16);
}

TEST(Builder, RepeaterCacheReusesNodes)
{
    Builder b;
    auto k = b.source(2);
    auto exits = b.forLoop(
        b.source(0), b.source(3), 1, {b.source(0)},
        [&](Builder &b, Value i, const std::vector<Value> &c) {
            (void)i;
            // Two body uses of k must share one repeater.
            return std::vector<Value>{b.add(c[0], b.mul(k, k))};
        });
    b.sink(exits[0]);

    std::size_t gated = 0;
    for (const Node &n : b.graph().nodes())
        gated += (n.op == Op::InvariantGated);
    EXPECT_EQ(gated, 1u);

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    (void)r;
}

TEST(Builder, NestedLoopsSumOfProducts)
{
    // sum_{i<3} sum_{j<4} (i*4+j) = sum 0..11 = 66
    Builder b;
    auto exits = b.forLoop(
        b.source(0), b.source(3), 1, {b.source(0)},
        [&](Builder &b, Value i, const std::vector<Value> &c) {
            auto inner = b.forLoop(
                b.source(0), b.source(4), 1, {c[0]},
                [&](Builder &b, Value j, const std::vector<Value> &c2) {
                    auto term = b.add(b.mul(i, Word{4}), j);
                    return std::vector<Value>{b.add(c2[0], term)};
                });
            return std::vector<Value>{inner[0]};
        });
    NodeId out = b.sink(exits[0]);

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].last, 66);
}

TEST(Builder, TriplyNestedLoops)
{
    // sum over 2*3*4 iterations of 1 = 24
    Builder b;
    auto one = b.source(1);
    auto exits = b.forLoop(
        b.source(0), b.source(2), 1, {b.source(0)},
        [&](Builder &b, Value, const std::vector<Value> &c) {
            auto mid = b.forLoop(
                b.source(0), b.source(3), 1, {c[0]},
                [&](Builder &b, Value, const std::vector<Value> &c2) {
                    auto inner = b.forLoop(
                        b.source(0), b.source(4), 1, {c2[0]},
                        [&](Builder &b, Value,
                            const std::vector<Value> &c3) {
                            return std::vector<Value>{b.add(c3[0], one)};
                        });
                    return std::vector<Value>{inner[0]};
                });
            return std::vector<Value>{mid[0]};
        });
    NodeId out = b.sink(exits[0]);

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].last, 24);
}

TEST(Builder, LoadStoreRoundTrip)
{
    Builder b;
    auto addr = b.source(16);
    auto val = b.source(1234);
    auto done = b.store(addr, val);
    auto back = b.load(addr, done); // ordered after the store
    NodeId out = b.sink(back);

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].last, 1234);
    EXPECT_EQ(r.loads, 1u);
    EXPECT_EQ(r.stores, 1u);
    EXPECT_EQ(peekWord(mem, 16), 1234);
}

TEST(Builder, ArraySumThroughMemory)
{
    ByteBuffer mem(256);
    for (int i = 0; i < 8; ++i)
        pokeWord(mem, static_cast<Addr>(i * 4), i * i);

    Builder b;
    auto base = b.source(0);
    auto exits = b.forLoop(
        b.source(0), b.source(8), 1, {b.source(0)},
        [&](Builder &b, Value i, const std::vector<Value> &c) {
            auto v = b.load(b.add(base, b.mul(i, Word{4})));
            return std::vector<Value>{b.add(c[0], v)};
        });
    NodeId out = b.sink(exits[0]);

    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].last, 0 + 1 + 4 + 9 + 16 + 25 + 36 + 49);
    EXPECT_EQ(r.loads, 8u);
}

TEST(Builder, StoreStreamFromLoop)
{
    // mem[i] = 3*i for i in 0..9
    Builder b;
    auto exits = b.forLoop(
        b.source(0), b.source(10), 1, {b.source(0)},
        [&](Builder &b, Value i, const std::vector<Value> &c) {
            auto done =
                b.store(b.mul(i, Word{4}), b.mul(i, Word{3}), {});
            (void)done;
            return std::vector<Value>{c[0]};
        });
    b.sink(exits[0]);

    ByteBuffer mem(256);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.stores, 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(peekWord(mem, static_cast<Addr>(4 * i)), 3 * i);
}

TEST(Builder, StreamJoinIntersection)
{
    // The paper's core kernel shape (Fig. 5): two sorted index lists
    // walked by a data-dependent while loop; count matches.
    // A = [1 3 5 7 9], B = [2 3 5 8 9] -> matches {3, 5, 9} = 3.
    ByteBuffer mem(256);
    const Addr a_base = 0, b_base = 64;
    const Word a_vals[5] = {1, 3, 5, 7, 9};
    const Word b_vals[5] = {2, 3, 5, 8, 9};
    for (int i = 0; i < 5; ++i) {
        pokeWord(mem, a_base + 4 * i, a_vals[i]);
        pokeWord(mem, b_base + 4 * i, b_vals[i]);
    }

    Builder b;
    auto a_end = b.source(5);
    auto b_end = b.source(5);
    auto exits = b.whileLoop(
        {b.source(0), b.source(0), b.source(0)},
        [&](Builder &b, const std::vector<Value> &cur) {
            return b.band(b.lt(cur[0], a_end), b.lt(cur[1], b_end));
        },
        [&](Builder &b, const std::vector<Value> &cur) {
            auto av = b.load(b.add(b.mul(cur[0], Word{4}), Word(a_base)),
                             {}, "A.nzIdx");
            auto bv = b.load(b.add(b.mul(cur[1], Word{4}), Word(b_base)),
                             {}, "B.nzIdx");
            auto hit = b.eq(av, bv);
            auto ia = b.add(cur[0], b.le(av, bv));
            auto ib = b.add(cur[1], b.le(bv, av));
            auto n = b.add(cur[2], hit);
            return std::vector<Value>{ia, ib, n};
        },
        "streamjoin");
    NodeId out = b.sink(exits[2], "matches");

    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].last, 3);
}

TEST(Builder, LoopValueEscapingIsFatal)
{
    Builder b;
    Value leaked;
    b.forLoop(b.source(0), b.source(3), 1, {b.source(0)},
              [&](Builder &b, Value i, const std::vector<Value> &c) {
                  leaked = i;
                  (void)b;
                  return std::vector<Value>{c[0]};
              });
    EXPECT_THROW(b.sink(leaked), FatalError);
}

TEST(Builder, InvariantConditionIsFatal)
{
    Builder b;
    auto t = b.source(1);
    EXPECT_THROW(
        b.whileLoop(
            {b.source(0)},
            [&](Builder &, const std::vector<Value> &) { return t; },
            [](Builder &, const std::vector<Value> &cur) {
                return std::vector<Value>{cur[0]};
            }),
        FatalError);
}

// ---------------------------------------------------------------------
// Builder misuse throws a catchable FatalError (not an abort), so
// front-end bugs surface at construction with a useful message.

TEST(Builder, InvalidValueIsFatal)
{
    Builder b;
    EXPECT_THROW(b.sink(Value()), FatalError);
    EXPECT_THROW(b.add(Value(), Word{1}), FatalError);
}

TEST(Builder, NonBinaryOpInBinaryIsFatal)
{
    Builder b;
    auto v = b.source(1);
    EXPECT_THROW(b.binary(Op::SteerTrue, v, v), FatalError);
    EXPECT_THROW(b.binary(Op::Load, v, Word{0}), FatalError);
    EXPECT_THROW(b.binary(Op::Neg, Word{0}, v), FatalError);
}

TEST(Builder, EmptyLoopInitsIsFatal)
{
    Builder b;
    EXPECT_THROW(
        b.whileLoop(
            {},
            [](Builder &bb, const std::vector<Value> &cur) {
                return bb.lt(cur[0], Word{4});
            },
            [](Builder &, const std::vector<Value> &cur) {
                return std::vector<Value>{cur[0]};
            }),
        FatalError);
}

TEST(Builder, BodyArityMismatchIsFatal)
{
    Builder b;
    EXPECT_THROW(
        b.whileLoop(
            {b.source(0)},
            [](Builder &bb, const std::vector<Value> &cur) {
                return bb.lt(cur[0], Word{4});
            },
            [](Builder &, const std::vector<Value> &) {
                return std::vector<Value>{}; // 0 values for 1 carried
            }),
        FatalError);
    Builder b2;
    EXPECT_THROW(
        b2.forLoop(b2.source(0), b2.source(4), 1, {b2.source(0)},
                   [](Builder &, Value, const std::vector<Value> &cur) {
                       std::vector<Value> out{cur[0], cur[0]};
                       return out; // 2 values for 1 carried
                   }),
        FatalError);
}

TEST(Builder, TakeGraphInsideLoopBodyIsFatal)
{
    Builder b;
    EXPECT_THROW(
        b.forLoop(b.source(0), b.source(3), 1, {b.source(0)},
                  [&](Builder &bb, Value, const std::vector<Value> &c) {
                      bb.takeGraph(); // scope still open
                      return std::vector<Value>{c[0]};
                  }),
        FatalError);
}

TEST(Builder, TakeGraphValidatesAndNamesNodes)
{
    // takeGraph() runs the verifier's structural rules; a hand-broken
    // graph throws the rendered report, which carries the node's
    // debug name.
    Builder b;
    auto v = b.binary(Op::Add, b.source(2), b.source(3), "total");
    b.sink(v);
    b.graph().node(2).inputs.resize(1); // the Add loses a port
    try {
        b.takeGraph();
        FAIL() << "takeGraph() accepted a malformed graph";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("total"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Builder, TakeGraphRejectsBadReference)
{
    // An input pointed past the end of the graph is a located error,
    // not an out-of-range read.
    Builder b;
    auto ctrl = b.source(1, "ctrl");
    auto x = b.source(7, "x");
    NodeId steer = b.graph().addNode(Op::SteerTrue, 2, "steer");
    b.graph().connect(steer, 0, ctrl.id);
    b.graph().connect(steer, 1, x.id);
    b.sink(Value(steer, 0));
    b.graph().node(steer).inputs[1] = InputConn::fromNode(1000000);
    try {
        b.takeGraph();
        FAIL() << "takeGraph() accepted a reference to node 1000000";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("struct.port-bad-ref"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Builder, LoopMetadataStamped)
{
    Builder b;
    auto exits = b.forLoop(
        b.source(0), b.source(2), 1, {b.source(0)},
        [&](Builder &b, Value i, const std::vector<Value> &c) {
            auto inner = b.forLoop(
                b.source(0), b.source(2), 1, {c[0]},
                [&](Builder &b, Value, const std::vector<Value> &c2) {
                    return std::vector<Value>{b.add(c2[0], i)};
                });
            return std::vector<Value>{inner[0]};
        });
    b.sink(exits[0]);

    const Graph &g = b.graph();
    EXPECT_EQ(g.numLoops(), 2u);
    bool saw_depth2 = false;
    for (const Node &n : g.nodes())
        saw_depth2 = saw_depth2 || n.loopDepth == 2;
    EXPECT_TRUE(saw_depth2);
}

TEST(Builder, SourcePassedAsNestedInitIsRepeated)
{
    // A top-level Source used as a nested loop's init must be
    // repeated per outer iteration, not consumed once.
    Builder b;
    auto zero = b.source(0);
    auto exits = b.forLoop(
        b.source(0), b.source(3), 1, {b.source(0)},
        [&](Builder &b, Value, const std::vector<Value> &c) {
            auto inner = b.forLoop(
                b.source(0), b.source(4), 1, {zero},
                [&](Builder &b, Value, const std::vector<Value> &c2) {
                    return std::vector<Value>{b.add(c2[0], Word{1})};
                });
            return std::vector<Value>{b.add(c[0], inner[0])};
        });
    NodeId out = b.sink(exits[0]);

    ByteBuffer mem(64);
    auto r = runClean(b, mem);
    EXPECT_EQ(r.sinks[out].last, 12); // 3 outer * inner count 4
}

} // namespace
} // namespace nupea
