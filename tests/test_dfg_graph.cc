/**
 * @file
 * Unit tests for the dataflow graph IR: node creation, wiring,
 * fanout computation, and opcode traits/evaluation. Structural
 * validation rules are pinned by the verifier's tests
 * (test_verify.cc, VerifyStructural.*).
 */

#include <gtest/gtest.h>

#include "dfg/graph.h"
#include "dfg/opcode.h"
#include "test_support.h"

namespace nupea
{
namespace
{

TEST(OpTraits, FuClasses)
{
    EXPECT_EQ(opTraits(Op::Add).fu, FuClass::Arith);
    EXPECT_EQ(opTraits(Op::SteerTrue).fu, FuClass::Control);
    EXPECT_EQ(opTraits(Op::LoopMerge).fu, FuClass::Control);
    EXPECT_EQ(opTraits(Op::Load).fu, FuClass::Mem);
    EXPECT_EQ(opTraits(Op::Store).fu, FuClass::Mem);
    EXPECT_EQ(opTraits(Op::Source).fu, FuClass::XData);
    EXPECT_EQ(opTraits(Op::Sink).fu, FuClass::XData);
}

TEST(OpTraits, ControlIsCombinational)
{
    EXPECT_TRUE(opTraits(Op::SteerTrue).combinational);
    EXPECT_TRUE(opTraits(Op::SteerFalse).combinational);
    EXPECT_TRUE(opTraits(Op::LoopMerge).combinational);
    EXPECT_TRUE(opTraits(Op::Invariant).combinational);
    EXPECT_FALSE(opTraits(Op::Add).combinational);
    EXPECT_FALSE(opTraits(Op::Load).combinational);
}

TEST(OpTraits, MemoryFlags)
{
    EXPECT_TRUE(opTraits(Op::Load).isMemory);
    EXPECT_TRUE(opTraits(Op::Store).isMemory);
    EXPECT_FALSE(opTraits(Op::Add).isMemory);
}

TEST(OpEval, BinaryArithmetic)
{
    EXPECT_EQ(evalBinary(Op::Add, 3, 4), 7);
    EXPECT_EQ(evalBinary(Op::Sub, 3, 4), -1);
    EXPECT_EQ(evalBinary(Op::Mul, -3, 4), -12);
    EXPECT_EQ(evalBinary(Op::Div, 7, 2), 3);
    EXPECT_EQ(evalBinary(Op::Rem, 7, 2), 1);
    EXPECT_EQ(evalBinary(Op::Min, 7, 2), 2);
    EXPECT_EQ(evalBinary(Op::Max, 7, 2), 7);
    EXPECT_EQ(evalBinary(Op::Shl, 1, 4), 16);
    EXPECT_EQ(evalBinary(Op::Shr, 16, 4), 1);
    EXPECT_EQ(evalBinary(Op::And, 6, 3), 2);
    EXPECT_EQ(evalBinary(Op::Or, 6, 3), 7);
    EXPECT_EQ(evalBinary(Op::Xor, 6, 3), 5);
}

TEST(OpEval, DivisionByZeroYieldsZero)
{
    EXPECT_EQ(evalBinary(Op::Div, 42, 0), 0);
    EXPECT_EQ(evalBinary(Op::Rem, 42, 0), 0);
}

TEST(OpEval, Comparisons)
{
    EXPECT_EQ(evalBinary(Op::Lt, 1, 2), 1);
    EXPECT_EQ(evalBinary(Op::Lt, 2, 1), 0);
    EXPECT_EQ(evalBinary(Op::Le, 2, 2), 1);
    EXPECT_EQ(evalBinary(Op::Gt, 3, 2), 1);
    EXPECT_EQ(evalBinary(Op::Ge, 2, 3), 0);
    EXPECT_EQ(evalBinary(Op::Eq, 5, 5), 1);
    EXPECT_EQ(evalBinary(Op::Ne, 5, 5), 0);
}

TEST(OpEval, OverflowWrapsTwoComplement)
{
    EXPECT_EQ(evalBinary(Op::Add, 0x7fffffff, 1),
              static_cast<Word>(0x80000000u));
    EXPECT_EQ(evalUnary(Op::Neg, static_cast<Word>(0x80000000u)),
              static_cast<Word>(0x80000000u));
}

TEST(OpEval, Unary)
{
    EXPECT_EQ(evalUnary(Op::Neg, 5), -5);
    EXPECT_EQ(evalUnary(Op::Not, 0), -1);
}

TEST(Graph, AddAndConnect)
{
    Graph g;
    NodeId a = g.addNode(Op::Source, 0, "a");
    NodeId b = g.addNode(Op::Source, 0, "b");
    NodeId sum = g.addNode(Op::Add, 2);
    g.connect(sum, 0, a);
    g.connect(sum, 1, b);
    EXPECT_EQ(g.numNodes(), 3u);
    EXPECT_EQ(g.node(sum).inputs[0].src, a);
    EXPECT_EQ(g.node(sum).inputs[1].src, b);
    EXPECT_TRUE(test::wellFormed(g));
}

TEST(Graph, ImmediateOperand)
{
    Graph g;
    NodeId a = g.addNode(Op::Source, 0);
    NodeId sum = g.addNode(Op::Add, 2);
    g.connect(sum, 0, a);
    g.setImm(sum, 1, 42);
    EXPECT_TRUE(g.node(sum).inputs[1].isImm);
    EXPECT_EQ(g.node(sum).inputs[1].imm, 42);
    EXPECT_TRUE(test::wellFormed(g));
}

TEST(Graph, FanoutListsConsumers)
{
    Graph g;
    NodeId a = g.addNode(Op::Source, 0);
    NodeId x = g.addNode(Op::Add, 2);
    NodeId y = g.addNode(Op::Sub, 2);
    g.connect(x, 0, a);
    g.connect(x, 1, a);
    g.connect(y, 0, a);
    g.setImm(y, 1, 1);
    const auto &fo = g.fanout();
    EXPECT_EQ(fo[a].size(), 3u);
    EXPECT_EQ(fo[x].size(), 0u);
}

TEST(Graph, FanoutInvalidatedByMutation)
{
    Graph g;
    NodeId a = g.addNode(Op::Source, 0);
    (void)g.fanout();
    NodeId s = g.addNode(Op::Sink, 1);
    g.connect(s, 0, a);
    EXPECT_EQ(g.fanout()[a].size(), 1u);
}

TEST(Graph, CountFuAndCrit)
{
    Graph g;
    NodeId a = g.addNode(Op::Source, 0);
    NodeId ld = g.addNode(Op::Load, 1);
    NodeId st = g.addNode(Op::Store, 2);
    NodeId add = g.addNode(Op::Add, 2);
    g.connect(ld, 0, a);
    g.connect(st, 0, a);
    g.connect(st, 1, ld);
    g.connect(add, 0, ld);
    g.connect(add, 1, a);
    g.node(ld).crit = Criticality::Critical;
    g.node(st).crit = Criticality::OtherMem;
    EXPECT_EQ(g.countFu(FuClass::Mem), 2u);
    EXPECT_EQ(g.countFu(FuClass::Arith), 1u);
    EXPECT_EQ(g.countCrit(Criticality::Critical), 1u);
    EXPECT_EQ(g.countCrit(Criticality::OtherMem), 1u);
}

TEST(Graph, LoopTree)
{
    Graph g;
    LoopId outer = g.addLoop(kInvalidId);
    LoopId inner = g.addLoop(outer);
    EXPECT_EQ(g.loopInfo(outer).depth, 1);
    EXPECT_EQ(g.loopInfo(inner).depth, 2);
    EXPECT_EQ(g.loopInfo(inner).parent, outer);
    EXPECT_TRUE(g.loopInfo(outer).hasChildren);
    EXPECT_FALSE(g.loopInfo(inner).hasChildren);
}

TEST(Graph, DumpsContainNodes)
{
    Graph g;
    NodeId a = g.addNode(Op::Source, 0, "arg");
    NodeId s = g.addNode(Op::Sink, 1, "out");
    g.connect(s, 0, a);
    std::string dot = g.toDot();
    EXPECT_NE(dot.find("source"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
    std::string text = g.toText();
    EXPECT_NE(text.find("sink"), std::string::npos);
    EXPECT_NE(text.find("arg"), std::string::npos);
}

TEST(Criticality, Names)
{
    EXPECT_EQ(criticalityName(Criticality::Critical), "critical");
    EXPECT_EQ(criticalityName(Criticality::InnerLoop), "inner-loop");
    EXPECT_EQ(criticalityName(Criticality::OtherMem), "other-mem");
    EXPECT_EQ(criticalityName(Criticality::None), "none");
}

} // namespace
} // namespace nupea
