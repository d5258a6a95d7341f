/**
 * @file
 * Cycle-level machine tests: functional equivalence with the untimed
 * interpreter, timing sanity (NUPEA domain latency, UPEA sweeps,
 * NUMA locality, clock divider), backpressure, and termination; plus
 * the TokenArena rings the Machine's FIFOs live in, checked against a
 * std::deque reference model.
 */

#include <gtest/gtest.h>

#include <deque>
#include <sstream>

#include "common/rng.h"
#include "compiler/pnr.h"
#include "sim/machine.h"
#include "sim/token_arena.h"
#include "sim/trace.h"
#include "test_support.h"

namespace nupea
{
namespace
{

using test::buildArraySum;
using test::buildPointerChase;
using test::buildStreamJoin;
using test::fillWords;

constexpr std::size_t kMemBytes = 1 << 20;

/** Compile on Monaco 12x12 and run with the given machine config. */
RunResult
compileAndRun(Graph &graph, BackingStore &store,
              MachineConfig config = MachineConfig{},
              PlaceMode mode = PlaceMode::CriticalityAware)
{
    Topology topo = Topology::makeMonaco(12, 12);
    PnrOptions opts;
    opts.place.mode = mode;
    PnrResult pnr = placeAndRoute(graph, topo, opts);
    EXPECT_TRUE(pnr.success) << pnr.failureReason;
    config.memsys.memBytes = store.size();
    Machine machine(graph, pnr.placement, topo, config, store);
    return machine.run();
}

TEST(Machine, StraightLineMatchesInterp)
{
    Builder b;
    auto x = b.source(6);
    auto y = b.source(7);
    NodeId out = b.sink(b.add(b.mul(x, y), 1));
    Graph g = b.takeGraph();

    BackingStore store(kMemBytes);
    RunResult r = compileAndRun(g, store);
    EXPECT_TRUE(r.finished);
    EXPECT_TRUE(r.clean) << r.problem;
    EXPECT_EQ(r.sinks[out].last, 43);
    EXPECT_GT(r.fabricCycles, 0u);
}

TEST(Machine, ArraySumCorrectAndClean)
{
    BackingStore store(kMemBytes);
    Addr base = store.allocWords(16);
    std::vector<Word> vals;
    Word expect = 0;
    for (int i = 0; i < 16; ++i) {
        vals.push_back(i * 3 - 5);
        expect += i * 3 - 5;
    }
    fillWords(store, base, vals);

    auto k = buildArraySum(base, 16);
    RunResult r = compileAndRun(k.graph, store);
    EXPECT_TRUE(r.finished);
    EXPECT_TRUE(r.clean) << r.problem;
    EXPECT_EQ(r.sinks[k.resultSink].last, expect);
    EXPECT_EQ(r.loads, 16u);
}

TEST(Machine, StreamJoinMatchesInterpreter)
{
    BackingStore store(kMemBytes);
    Addr a = store.allocWords(8), v = store.allocWords(8);
    fillWords(store, a, {1, 3, 5, 7, 9, 11, 13, 15});
    fillWords(store, v, {2, 3, 5, 8, 9, 14, 15, 20});

    auto k = buildStreamJoin(a, 8, v, 8);

    // Untimed reference.
    ByteBuffer ref_mem = store.raw();
    Interp interp(k.graph, ref_mem);
    auto ref = interp.run();
    ASSERT_TRUE(ref.clean);

    RunResult r = compileAndRun(k.graph, store);
    EXPECT_TRUE(r.finished);
    EXPECT_TRUE(r.clean) << r.problem;
    EXPECT_EQ(r.sinks[k.resultSink].last,
              ref.sinks.at(k.resultSink).last);
    EXPECT_EQ(r.sinks[k.resultSink].last, 4); // {3,5,9,15}
    EXPECT_EQ(r.loads, ref.loads);
}

TEST(Machine, StoresVisibleInBackingStore)
{
    BackingStore store(kMemBytes);
    Addr dst = store.allocWords(8);

    Builder b;
    auto base = b.source(static_cast<Word>(dst));
    auto exits = b.forLoop(
        b.source(0), b.source(8), 1, {b.source(0)},
        [&](Builder &b, Builder::Value i,
            const std::vector<Builder::Value> &c) {
            b.store(b.add(base, b.mul(i, Word{4})), b.mul(i, i));
            return std::vector<Builder::Value>{c[0]};
        });
    b.sink(exits[0]);
    Graph g = b.takeGraph();

    RunResult r = compileAndRun(g, store);
    EXPECT_TRUE(r.clean) << r.problem;
    EXPECT_EQ(r.stores, 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(store.loadWord(dst + static_cast<Addr>(4 * i)), i * i);
}

TEST(Machine, OrderedLoadSeesPriorStore)
{
    BackingStore store(kMemBytes);
    Addr cell = store.allocWords(1);

    Builder b;
    auto addr = b.source(static_cast<Word>(cell));
    auto done = b.store(addr, b.source(4242));
    auto back = b.load(addr, done);
    NodeId out = b.sink(back);
    Graph g = b.takeGraph();

    RunResult r = compileAndRun(g, store);
    EXPECT_TRUE(r.clean) << r.problem;
    EXPECT_EQ(r.sinks[out].last, 4242);
}

TEST(Machine, SystemCyclesAreFabricTimesDivider)
{
    BackingStore store(kMemBytes);
    Addr base = store.allocWords(8);
    fillWords(store, base, {1, 2, 3, 4, 5, 6, 7, 8});

    auto k = buildArraySum(base, 8);
    MachineConfig cfg;
    cfg.clockDivider = 3;
    RunResult r = compileAndRun(k.graph, store, cfg);
    EXPECT_EQ(r.systemCycles, r.fabricCycles * 3);
}

/**
 * The core NUPEA mechanism: the same pointer-chase program placed
 * with its (critical) load in domain D0 runs faster than placed in
 * the farthest domain, because every arbiter hop adds system-cycle
 * latency on the program's critical path.
 */
TEST(Machine, NearMemoryDomainBeatsFarDomain)
{
    Topology topo = Topology::makeMonaco(12, 12);

    auto run_with_domain = [&](int want_domain) {
        BackingStore store(kMemBytes);
        Addr ring = store.allocWords(64);
        // k = mem[k] cycle over 64 cells.
        for (int i = 0; i < 64; ++i) {
            store.storeWord(ring + static_cast<Addr>(4 * i),
                            static_cast<Word>(
                                ring + static_cast<Addr>(
                                           4 * ((i + 1) % 64))));
        }
        auto k = buildPointerChase(ring, 256);
        PnrResult pnr = placeAndRoute(k.graph, topo);
        EXPECT_TRUE(pnr.success);
        // Force the load onto a tile of the requested domain.
        for (NodeId id = 0; id < k.graph.numNodes(); ++id) {
            if (k.graph.node(id).op != Op::Load)
                continue;
            for (int idx = 0; idx < topo.numTiles(); ++idx) {
                Coord c = topo.tileCoord(idx);
                if (topo.isLs(c) && topo.domainOf(c) == want_domain) {
                    pnr.placement.pos[id] = c;
                    break;
                }
            }
        }
        MachineConfig cfg;
        cfg.memsys.memBytes = store.size();
        Machine m(k.graph, pnr.placement, topo, cfg, store);
        RunResult r = m.run();
        EXPECT_TRUE(r.clean) << r.problem;
        return r.fabricCycles;
    };

    Cycle near = run_with_domain(0);
    Cycle far = run_with_domain(3);
    EXPECT_LT(near, far);
    // Each D3 access pays ~3 arbiter cycles each way on the critical
    // path; the gap must be substantial, not marginal.
    EXPECT_GT(static_cast<double>(far) / static_cast<double>(near), 1.3);
}

/** UPEA latency sweep: execution time strictly increases with N. */
class UpeaSweep : public ::testing::TestWithParam<int>
{};

TEST_P(UpeaSweep, LatencyHurtsChase)
{
    int n = GetParam();
    BackingStore store(kMemBytes);
    Addr ring = store.allocWords(16);
    for (int i = 0; i < 16; ++i) {
        store.storeWord(ring + static_cast<Addr>(4 * i),
                        static_cast<Word>(
                            ring + static_cast<Addr>(4 * ((i + 1) % 16))));
    }
    auto k = buildPointerChase(ring, 64);
    MachineConfig cfg;
    cfg.mem.model = MemModel::Upea;
    cfg.mem.upeaLatency = n;
    RunResult r = compileAndRun(k.graph, store, cfg);
    EXPECT_TRUE(r.clean) << r.problem;

    // Compare against N-1 for monotonicity.
    if (n > 0) {
        BackingStore store2(kMemBytes);
        Addr ring2 = store2.allocWords(16);
        for (int i = 0; i < 16; ++i) {
            store2.storeWord(
                ring2 + static_cast<Addr>(4 * i),
                static_cast<Word>(ring2 +
                                  static_cast<Addr>(4 * ((i + 1) % 16))));
        }
        auto k2 = buildPointerChase(ring2, 64);
        MachineConfig cfg2 = cfg;
        cfg2.mem.upeaLatency = n - 1;
        RunResult r2 = compileAndRun(k2.graph, store2, cfg2);
        EXPECT_GT(r.fabricCycles, r2.fabricCycles);
    }
}

INSTANTIATE_TEST_SUITE_P(Latencies, UpeaSweep,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(Machine, NumaLocalFasterThanAllRemote)
{
    // With 1 NUMA domain every access is local (delay 0); with many
    // domains most accesses are remote. Local-only must be faster.
    auto run_with_domains = [&](int domains) {
        BackingStore store(kMemBytes);
        Addr ring = store.allocWords(32);
        for (int i = 0; i < 32; ++i) {
            store.storeWord(
                ring + static_cast<Addr>(4 * i),
                static_cast<Word>(ring +
                                  static_cast<Addr>(4 * ((i + 1) % 32))));
        }
        auto k = buildPointerChase(ring, 128);
        MachineConfig cfg;
        cfg.mem.model = MemModel::NumaUpea;
        cfg.mem.upeaLatency = 4;
        cfg.mem.numaDomains = domains;
        RunResult r = compileAndRun(k.graph, store, cfg);
        EXPECT_TRUE(r.clean) << r.problem;
        return r.fabricCycles;
    };
    EXPECT_LT(run_with_domains(1), run_with_domains(8));
}

TEST(Machine, TinyFifoStillCorrect)
{
    BackingStore store(kMemBytes);
    Addr base = store.allocWords(16);
    std::vector<Word> vals(16, 2);
    fillWords(store, base, vals);
    auto k = buildArraySum(base, 16);
    MachineConfig cfg;
    cfg.fifoDepth = 1;
    RunResult r = compileAndRun(k.graph, store, cfg);
    EXPECT_TRUE(r.finished);
    EXPECT_TRUE(r.clean) << r.problem;
    EXPECT_EQ(r.sinks[k.resultSink].last, 32);
}

TEST(Machine, DeepFifoNeverSlower)
{
    auto run_with_depth = [](int depth) {
        BackingStore store(kMemBytes);
        Addr base = store.allocWords(64);
        std::vector<Word> vals(64, 1);
        fillWords(store, base, vals);
        auto k = buildArraySum(base, 64);
        MachineConfig cfg;
        cfg.fifoDepth = depth;
        RunResult r = compileAndRun(k.graph, store, cfg);
        EXPECT_TRUE(r.clean) << r.problem;
        return r.fabricCycles;
    };
    EXPECT_LE(run_with_depth(8), run_with_depth(1));
}

TEST(Machine, SingleOutstandingSerializesLoads)
{
    auto run_with_outstanding = [](int max_out) {
        BackingStore store(kMemBytes);
        Addr base = store.allocWords(64);
        std::vector<Word> vals(64, 1);
        fillWords(store, base, vals);
        auto k = buildArraySum(base, 64);
        MachineConfig cfg;
        cfg.maxOutstanding = max_out;
        RunResult r = compileAndRun(k.graph, store, cfg);
        EXPECT_TRUE(r.clean) << r.problem;
        return r.fabricCycles;
    };
    EXPECT_LE(run_with_outstanding(4), run_with_outstanding(1));
}

TEST(Machine, WatchdogReportsUnfinished)
{
    BackingStore store(kMemBytes);
    Addr base = store.allocWords(512);
    std::vector<Word> vals(512, 1);
    fillWords(store, base, vals);
    auto k = buildArraySum(base, 512);
    MachineConfig cfg;
    cfg.maxFabricCycles = 10; // way too few
    RunResult r = compileAndRun(k.graph, store, cfg);
    EXPECT_FALSE(r.finished);
    EXPECT_FALSE(r.clean);
    EXPECT_NE(r.problem.find("watchdog"), std::string::npos);
}

TEST(Machine, StatsPopulated)
{
    BackingStore store(kMemBytes);
    Addr base = store.allocWords(8);
    fillWords(store, base, {1, 1, 1, 1, 1, 1, 1, 1});
    auto k = buildArraySum(base, 8);
    RunResult r = compileAndRun(k.graph, store);
    EXPECT_EQ(r.stats.counterValue("mem.loads"), 8u);
    EXPECT_GT(r.stats.counterValue("firings"), 0u);
    EXPECT_EQ(r.stats.counterValue("fabric_cycles"), r.fabricCycles);
}

TEST(Machine, TraceRecordsFirings)
{
    BackingStore store(kMemBytes);
    Addr base = store.allocWords(4);
    fillWords(store, base, {1, 2, 3, 4});
    auto k = buildArraySum(base, 4);
    MachineConfig cfg;
    ASSERT_FALSE(cfg.stallAttribution);
    std::ostringstream trace;
    ChromeTraceSink sink(trace);
    cfg.trace = &sink;
    RunResult r = compileAndRun(k.graph, store, cfg);
    sink.finish();
    EXPECT_TRUE(r.clean) << r.problem;
    std::string out = trace.str();
    EXPECT_NE(out.find("\"fire load\""), std::string::npos);
    // One fire event per firing, even with stall attribution off.
    std::size_t fires = 0;
    const std::string_view tag = "\"cat\": \"fire\"";
    for (std::size_t pos = out.find(tag); pos != std::string::npos;
         pos = out.find(tag, pos + tag.size()))
        ++fires;
    EXPECT_EQ(fires, r.firings);
}

TEST(Machine, DeterministicAcrossRuns)
{
    auto once = []() {
        BackingStore store(kMemBytes);
        Addr a = store.allocWords(8), v = store.allocWords(8);
        fillWords(store, a, {1, 3, 5, 7, 9, 11, 13, 15});
        fillWords(store, v, {2, 3, 5, 8, 9, 14, 15, 20});
        auto k = buildStreamJoin(a, 8, v, 8);
        RunResult r = compileAndRun(k.graph, store);
        return r.fabricCycles;
    };
    EXPECT_EQ(once(), once());
}

TEST(TokenArena, MatchesDequeReferenceModel)
{
    // Seeded random push/pop sequences over several rings, against
    // one std::deque per ring. Phases alternate between fill-biased
    // and drain-biased so every ring repeatedly reaches both full and
    // empty while its head wraps around many times.
    constexpr std::size_t kRings = 5;
    constexpr int kOps = 4000;
    for (std::size_t depth = 1; depth <= 4; ++depth) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "depth " << depth << " seed " << seed);
            TokenArena<std::uint64_t> arena;
            arena.init(kRings, depth);
            std::vector<std::deque<std::uint64_t>> model(kRings);
            std::vector<std::size_t> pushes(kRings, 0);
            Rng rng(seed);
            std::uint64_t next_value = 0;
            for (int op = 0; op < kOps; ++op) {
                std::size_t r = rng.below(kRings);
                double fill_bias = (op / 64) % 2 == 0 ? 0.7 : 0.3;
                bool push = model[r].empty() ||
                            (model[r].size() < depth &&
                             rng.chance(fill_bias));
                if (push) {
                    arena.push(r, next_value);
                    model[r].push_back(next_value);
                    ++next_value;
                    ++pushes[r];
                } else {
                    arena.pop(r);
                    model[r].pop_front();
                }
                for (std::size_t q = 0; q < kRings; ++q) {
                    const std::deque<std::uint64_t> &ref = model[q];
                    ASSERT_EQ(arena.size(q), ref.size())
                        << "ring " << q << " after op " << op;
                    ASSERT_EQ(arena.empty(q), ref.empty());
                    ASSERT_EQ(arena.full(q), ref.size() == depth);
                    const std::uint64_t *head = arena.peek(q);
                    if (ref.empty()) {
                        ASSERT_EQ(head, nullptr);
                        continue;
                    }
                    ASSERT_NE(head, nullptr);
                    ASSERT_EQ(*head, ref.front());
                    ASSERT_EQ(&arena.front(q), head);
                }
            }
            for (std::size_t q = 0; q < kRings; ++q)
                EXPECT_GT(pushes[q], 50 * depth) << "ring " << q;
        }
    }
}

} // namespace
} // namespace nupea
