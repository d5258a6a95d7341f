/**
 * @file
 * Shared helpers for compiler/simulator tests: tiny kernels built
 * against the Builder API, memory poke/peek utilities, and gtest
 * predicates over the verifier's structural and placement rules.
 */

#ifndef NUPEA_TESTS_TEST_SUPPORT_H
#define NUPEA_TESTS_TEST_SUPPORT_H

#include <gtest/gtest.h>

#include <vector>

#include "dfg/builder.h"
#include "memory/backing_store.h"
#include "verify/legality.h"
#include "verify/structural.h"

namespace nupea
{
namespace test
{

/** The verifier's structural rules find no error in `graph` (the
 *  check Builder::takeGraph() applies); a failure prints the report. */
inline ::testing::AssertionResult
wellFormed(const Graph &graph)
{
    DiagnosticReport report;
    checkStructure(graph, report);
    if (!report.hasErrors())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << report.renderText();
}

/** The verifier's placement rules find no error (the check
 *  placeGraph() applies to its result); a failure prints the report. */
inline ::testing::AssertionResult
legalPlacement(const Graph &graph, const Topology &topo,
               const Placement &placement)
{
    DiagnosticReport report;
    checkPlacement(graph, topo, placement, report);
    if (!report.hasErrors())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << report.renderText();
}

/** Result handles for a built kernel. */
struct KernelHandles
{
    Graph graph;
    NodeId resultSink = kInvalidId;
};

/**
 * Loop-sum kernel: sum of words mem[base .. base + 4*(count-1)].
 * One critical-free inner loop with one load per iteration.
 */
inline KernelHandles
buildArraySum(Addr base, int count)
{
    Builder b;
    auto base_v = b.source(static_cast<Word>(base), "base");
    auto exits = b.forLoop(
        b.source(0), b.source(count), 1, {b.source(0)},
        [&](Builder &b, Builder::Value i,
            const std::vector<Builder::Value> &c) {
            auto addr = b.add(base_v, b.mul(i, Word{4}));
            auto v = b.load(addr, {}, "a[i]");
            return std::vector<Builder::Value>{b.add(c[0], v)};
        },
        "arraysum");
    KernelHandles h;
    Builder::Value sum = exits[0];
    h.resultSink = b.sink(sum, "sum");
    h.graph = b.takeGraph();
    return h;
}

/**
 * Pointer-chase kernel: k = mem[k] repeated `steps` times starting
 * from `start`. The load is on the loop-governing recurrence, so
 * criticality analysis must mark it class (a).
 */
inline KernelHandles
buildPointerChase(Addr start, int steps)
{
    Builder b;
    auto exits = b.forLoop(
        b.source(0), b.source(steps), 1,
        {b.source(static_cast<Word>(start))},
        [&](Builder &b, Builder::Value i,
            const std::vector<Builder::Value> &c) {
            (void)i;
            auto next = b.load(c[0], {}, "chase");
            return std::vector<Builder::Value>{next};
        },
        "chase");
    KernelHandles h;
    h.resultSink = b.sink(exits[0], "final");
    h.graph = b.takeGraph();
    return h;
}

/**
 * Stream-join intersection count (the paper's Fig. 5 kernel): walks
 * two sorted index arrays; loads feed the loop-governing recurrence.
 */
inline KernelHandles
buildStreamJoin(Addr a_base, int a_len, Addr b_base, int b_len)
{
    Builder b;
    auto a_end = b.source(a_len);
    auto b_end = b.source(b_len);
    auto a_ptr = b.source(static_cast<Word>(a_base));
    auto b_ptr = b.source(static_cast<Word>(b_base));
    auto exits = b.whileLoop(
        {b.source(0), b.source(0), b.source(0)},
        [&](Builder &b, const std::vector<Builder::Value> &cur) {
            return b.band(b.lt(cur[0], a_end), b.lt(cur[1], b_end));
        },
        [&](Builder &b, const std::vector<Builder::Value> &cur) {
            auto av = b.load(b.add(a_ptr, b.mul(cur[0], Word{4})), {},
                             "A.nzIdx");
            auto bv = b.load(b.add(b_ptr, b.mul(cur[1], Word{4})), {},
                             "V.nzIdx");
            auto hit = b.eq(av, bv);
            auto ia = b.add(cur[0], b.le(av, bv));
            auto ib = b.add(cur[1], b.le(bv, av));
            return std::vector<Builder::Value>{ia, ib,
                                               b.add(cur[2], hit)};
        },
        "streamjoin");
    KernelHandles h;
    h.resultSink = b.sink(exits[2], "matches");
    h.graph = b.takeGraph();
    return h;
}

/** Store words into a backing store. */
inline void
fillWords(BackingStore &store, Addr base, const std::vector<Word> &values)
{
    for (std::size_t i = 0; i < values.size(); ++i)
        store.storeWord(base + static_cast<Addr>(4 * i), values[i]);
}

} // namespace test
} // namespace nupea

#endif // NUPEA_TESTS_TEST_SUPPORT_H
