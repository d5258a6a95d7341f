/**
 * @file
 * Differential property testing: randomly generated structured
 * dataflow programs are executed by the untimed interpreter and by
 * the cycle-level machine under randomized machine configurations
 * (FIFO depth, outstanding limit, divider, memory model). Both
 * executions must produce identical sink streams and identical
 * final memory images, and both must terminate cleanly.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compiler/pnr.h"
#include "dfg/builder.h"
#include "dfg/interp.h"
#include "sim/machine.h"
#include "test_support.h"
#include "workloads/workload.h"

namespace nupea
{
namespace
{

using Value = Builder::Value;

/** Random structured-program generator. */
class ProgramGen
{
  public:
    ProgramGen(std::uint64_t seed, Addr ro_base, int ro_words,
               Addr rw_base, int rw_words)
        : rng_(seed), roBase_(ro_base), roWords_(ro_words),
          rwBase_(rw_base), rwWords_(rw_words)
    {}

    /** Build a random program; returns its sink node ids. */
    std::vector<NodeId>
    generate(Builder &b)
    {
        std::vector<NodeId> sinks;
        int roots = 1 + static_cast<int>(rng_.below(3));
        for (int i = 0; i < roots; ++i) {
            Value v = genExpr(b, /*depth=*/0);
            sinks.push_back(b.sink(v, "result"));
        }
        return sinks;
    }

  private:
    /** A random value available at the current scope. */
    Value
    genLeaf(Builder &b)
    {
        return b.source(static_cast<Word>(rng_.range(-20, 20)));
    }

    /** Random in-bounds read-only load of a data-dependent address. */
    Value
    genLoad(Builder &b, Value index_like)
    {
        // Clamp index into [0, roWords) with a mask (roWords is a
        // power of two).
        auto idx = b.band(index_like, Word{roWords_ - 1});
        auto addr =
            b.add(b.mul(idx, Word{4}), static_cast<Word>(roBase_));
        return b.load(addr);
    }

    Value
    genBinary(Builder &b, Value x, Value y)
    {
        static const Op ops[] = {Op::Add, Op::Sub, Op::Mul, Op::Min,
                                 Op::Max, Op::Xor, Op::And, Op::Or};
        Op op = ops[rng_.below(std::size(ops))];
        return b.binary(op, x, y);
    }

    Value
    genExpr(Builder &b, int depth)
    {
        Value acc = genLeaf(b);
        int steps = 1 + static_cast<int>(rng_.below(3));
        for (int s = 0; s < steps; ++s) {
            switch (rng_.below(depth < 2 ? 4 : 3)) {
              case 0:
                acc = genBinary(b, acc, genLeaf(b));
                break;
              case 1:
                acc = genLoad(b, acc);
                break;
              case 2: {
                // Occasionally a store to a private slot, folded in
                // through its done token.
                if (nextSlot_ < rwWords_) {
                    Addr slot = rwBase_ +
                                static_cast<Addr>(4 * nextSlot_++);
                    Value done = b.store(
                        b.source(static_cast<Word>(slot)), acc);
                    acc = b.add(acc, done);
                } else {
                    acc = genBinary(b, acc, genLeaf(b));
                }
                break;
              }
              default: {
                // A counted loop carrying the accumulator.
                int trips = 1 + static_cast<int>(rng_.below(6));
                auto exits = b.forLoop(
                    b.source(0), b.source(trips), 1, {acc},
                    [&](Builder &b, Value i,
                        const std::vector<Value> &c) {
                        Value body = genBinary(b, c[0], i);
                        if (rng_.chance(0.5))
                            body = genLoad(b, body);
                        if (rng_.chance(0.35) && depth < 2) {
                            auto inner = b.forLoop(
                                b.source(0),
                                b.source(1 + static_cast<int>(
                                                 rng_.below(4))),
                                1, {body},
                                [&](Builder &b, Value j,
                                    const std::vector<Value> &c2) {
                                    return std::vector<Value>{
                                        genBinary(b, c2[0], j)};
                                });
                            body = inner[0];
                        }
                        return std::vector<Value>{body};
                    });
                acc = exits[0];
                break;
              }
            }
        }
        return acc;
    }

    Rng rng_;
    Addr roBase_;
    int roWords_;
    Addr rwBase_;
    int rwWords_;
    int nextSlot_ = 0;
};

class Differential : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(Differential, MachineMatchesInterpreter)
{
    const std::uint64_t seed = GetParam();
    constexpr std::size_t kMemBytes = 1 << 20;
    constexpr int kRoWords = 64;
    constexpr int kRwWords = 64;

    // Shared initial memory image.
    BackingStore proto(kMemBytes);
    Addr ro = proto.allocWords(kRoWords);
    Addr rw = proto.allocWords(kRwWords);
    Rng data_rng(seed * 77 + 5);
    for (int i = 0; i < kRoWords; ++i) {
        proto.storeWord(ro + static_cast<Addr>(4 * i),
                        static_cast<Word>(data_rng.range(-100, 100)));
    }

    // Random program.
    Builder b;
    ProgramGen gen(seed, ro, kRoWords, rw, kRwWords);
    std::vector<NodeId> sinks = gen.generate(b);
    Graph graph = b.takeGraph();
    ASSERT_TRUE(test::wellFormed(graph));

    // Reference execution.
    BackingStore ref_store(kMemBytes);
    ref_store.raw() = proto.raw();
    Interp interp(graph, ref_store.raw());
    InterpResult ref = interp.run();
    ASSERT_TRUE(ref.clean)
        << (ref.problems.empty() ? "" : ref.problems[0]);

    // Randomized machine configuration.
    Rng cfg_rng(seed * 131 + 9);
    MachineConfig cfg;
    cfg.fifoDepth = 1 << cfg_rng.below(3);       // 1, 2, 4
    cfg.maxOutstanding = 1 + static_cast<int>(cfg_rng.below(4));
    cfg.clockDivider = 1 + static_cast<int>(cfg_rng.below(3));
    switch (cfg_rng.below(3)) {
      case 0:
        cfg.mem.model = MemModel::Monaco;
        break;
      case 1:
        cfg.mem.model = MemModel::Upea;
        cfg.mem.upeaLatency = static_cast<int>(cfg_rng.below(5));
        break;
      default:
        cfg.mem.model = MemModel::NumaUpea;
        cfg.mem.upeaLatency = 1 + static_cast<int>(cfg_rng.below(4));
        break;
    }
    cfg.memsys.memBytes = kMemBytes;

    Topology topo = Topology::makeMonaco(12, 12);
    PnrOptions popts;
    popts.place.iterationsPerNode = 40;
    popts.place.seed = seed;
    PnrResult pnr = placeAndRoute(graph, topo, popts);
    ASSERT_TRUE(pnr.success) << pnr.failureReason;

    BackingStore store(kMemBytes);
    store.raw() = proto.raw();
    Machine machine(graph, pnr.placement, topo, cfg, store);
    RunResult run = machine.run();
    ASSERT_TRUE(run.finished) << run.problem;
    ASSERT_TRUE(run.clean) << run.problem;

    // Same sink observations.
    for (NodeId sink : sinks) {
        const SinkRecord &a = ref.sinks[sink];
        const SinkRecord &m = run.sinks[sink];
        EXPECT_EQ(a.count, m.count) << "sink " << sink;
        EXPECT_EQ(a.last, m.last) << "sink " << sink;
        EXPECT_EQ(a.sum, m.sum) << "sink " << sink;
    }
    // Same final memory.
    EXPECT_EQ(ref_store.raw(), store.raw());
    EXPECT_EQ(ref.loads, run.loads);
    EXPECT_EQ(ref.stores, run.stores);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Range<std::uint64_t>(1, 33));

/**
 * The same cross-check on the real sparse workloads: data-dependent
 * address streams (CSR traversals, merges, hash-style probing) are
 * exactly where a timed machine could diverge from the untimed
 * interpreter through reordering bugs, so every sink record, the
 * final memory image, and the workload's own host-reference verify()
 * must agree between the two executions.
 */
class SparseDifferential : public ::testing::TestWithParam<const char *>
{};

TEST_P(SparseDifferential, MachineMatchesInterpreter)
{
    const char *name = GetParam();
    auto wl = makeWorkload(name);

    BackingStore proto(MemSysConfig{}.memBytes);
    wl->init(proto);
    Graph graph = wl->build(1);
    ASSERT_TRUE(test::wellFormed(graph));

    // Untimed reference execution.
    BackingStore ref_store(proto.size());
    ref_store.raw() = proto.raw();
    Interp interp(graph, ref_store.raw());
    InterpResult ref = interp.run();
    ASSERT_TRUE(ref.clean)
        << (ref.problems.empty() ? "" : ref.problems[0]);
    EXPECT_TRUE(wl->verify(ref_store));

    // Timed machine execution under the default config.
    Topology topo = Topology::makeMonaco(12, 12);
    PnrOptions popts;
    PnrResult pnr = placeAndRoute(graph, topo, popts);
    ASSERT_TRUE(pnr.success) << pnr.failureReason;

    BackingStore store(proto.size());
    store.raw() = proto.raw();
    MachineConfig cfg;
    Machine machine(graph, pnr.placement, topo, cfg, store);
    RunResult run = machine.run();
    ASSERT_TRUE(run.finished) << run.problem;
    ASSERT_TRUE(run.clean) << run.problem;

    // Sink-for-sink identical observations.
    ASSERT_EQ(ref.sinks.size(), run.sinks.size());
    for (const auto &[node, a] : ref.sinks) {
        auto it = run.sinks.find(node);
        ASSERT_NE(it, run.sinks.end()) << "sink " << node;
        EXPECT_EQ(a.count, it->second.count) << "sink " << node;
        EXPECT_EQ(a.last, it->second.last) << "sink " << node;
        EXPECT_EQ(a.sum, it->second.sum) << "sink " << node;
    }
    // Same final memory, same request counts, and the machine's
    // image passes the workload's own host-reference check.
    EXPECT_EQ(ref_store.raw(), store.raw());
    EXPECT_EQ(ref.loads, run.loads);
    EXPECT_EQ(ref.stores, run.stores);
    std::string why;
    EXPECT_TRUE(wl->verify(store, &why)) << why;
}

INSTANTIATE_TEST_SUITE_P(
    Sparse, SparseDifferential,
    ::testing::Values("spmv", "spmspm", "spmspv", "spadd", "tc"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

} // namespace
} // namespace nupea
