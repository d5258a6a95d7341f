/**
 * @file
 * Generative differential testing: random GeneratorSpec shapes are
 * pushed through the whole compile -> place -> simulate pipeline and
 * must come out clean at every stage — static verifier silent,
 * interpreter and Machine bit-identical (sink streams, final memory,
 * request counts), host-reference verify() green on both executions,
 * and per-node stall attribution conserving the fabric-cycle
 * timeline. Every assertion message carries the reproducing seed and
 * the canonical spec string, so a failure replays with
 * `--workload <spec>` in any driver or by re-running the one seed.
 *
 * The curated generated registry (generatedWorkloadNames) gets the
 * same treatment through the bench harness's compileWorkload, which
 * is what the sweep drivers use. A second fuzz runs batches of
 * random configs on one reused StoreBank lane, as a sweep worker
 * does, against fresh-store runs.
 */

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "dfg/interp.h"
#include "test_support.h"
#include "verify/verify.h"
#include "workloads/gen/gen_workload.h"

namespace nupea
{
namespace
{

using bench::CompileOptions;
using bench::compileWorkload;

/** Shared shape-differential: returns false only via gtest failures;
 *  `who` prefixes every message with the reproducing seed + spec. */
void
runShapeDifferential(const GeneratorSpec &spec, std::uint64_t seed,
                     const std::string &who)
{
    auto wl = makeGeneratedWorkload(spec, /*seed=*/42);
    const std::size_t mem_bytes = MemSysConfig{}.memBytes;

    BackingStore proto(mem_bytes);
    wl->init(proto);
    Graph graph = wl->build(1);
    ASSERT_TRUE(test::wellFormed(graph)) << who;

    // Stage 1: static verifier, pre-PnR.
    DiagnosticReport report = verifyGraph(graph);
    EXPECT_FALSE(report.hasErrors()) << who << "\n"
                                     << report.renderText();

    // Stage 2: untimed reference execution.
    BackingStore ref_store(mem_bytes);
    ref_store.raw() = proto.raw();
    Interp interp(graph, ref_store.raw());
    InterpResult ref = interp.run();
    ASSERT_TRUE(ref.clean)
        << who << ": "
        << (ref.problems.empty() ? "not clean" : ref.problems[0]);
    std::string why;
    EXPECT_TRUE(wl->verify(ref_store, &why)) << who << ": " << why;

    // Stage 3: PnR and legality.
    Topology topo = Topology::makeMonaco(12, 12);
    PnrOptions popts;
    popts.place.iterationsPerNode = 40;
    popts.place.seed = seed;
    PnrResult pnr = placeAndRoute(graph, topo, popts);
    ASSERT_TRUE(pnr.success) << who << ": " << pnr.failureReason;
    DiagnosticReport compiled = verifyCompiled(graph, topo, pnr);
    EXPECT_FALSE(compiled.hasErrors()) << who << "\n"
                                       << compiled.renderText();

    // Stage 4: cycle-level run under a seed-randomized config, with
    // stall attribution on so conservation is checked too.
    Rng cfg_rng(seed * 131 + 9);
    MachineConfig cfg;
    cfg.fifoDepth = 1 << cfg_rng.below(3); // 1, 2, 4
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
    cfg.memsys.memBytes = mem_bytes;
    cfg.stallAttribution = true;

    BackingStore store(mem_bytes);
    store.raw() = proto.raw();
    Machine machine(graph, pnr.placement, topo, cfg, store);
    RunResult run = machine.run();
    ASSERT_TRUE(run.finished) << who << ": " << run.problem;
    ASSERT_TRUE(run.clean) << who << ": " << run.problem;

    // Interp/Machine equality: sink-for-sink, memory, counts.
    ASSERT_EQ(ref.sinks.size(), run.sinks.size()) << who;
    for (const auto &[node, a] : ref.sinks) {
        auto it = run.sinks.find(node);
        ASSERT_NE(it, run.sinks.end()) << who << " sink " << node;
        EXPECT_EQ(a.count, it->second.count) << who << " sink " << node;
        EXPECT_EQ(a.last, it->second.last) << who << " sink " << node;
        EXPECT_EQ(a.sum, it->second.sum) << who << " sink " << node;
    }
    EXPECT_EQ(ref_store.raw(), store.raw()) << who;
    EXPECT_EQ(ref.loads, run.loads) << who;
    EXPECT_EQ(ref.stores, run.stores) << who;
    EXPECT_TRUE(wl->verify(store, &why)) << who << ": " << why;

    // Stall conservation: per-reason cycles partition the timeline.
    ASSERT_FALSE(run.nodeStalls.empty()) << who;
    const auto fabric = static_cast<std::uint64_t>(run.fabricCycles);
    for (std::size_t id = 0; id < run.nodeStalls.size(); ++id) {
        EXPECT_EQ(run.nodeStalls[id].total(), fabric)
            << who << " node " << id;
    }
}

/** 200+ seeded random shapes; each failure prints its repro line. */
class GenFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(GenFuzz, RandomShapeSurvivesPipeline)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    GeneratorSpec spec = GeneratorSpec::random(rng);
    const std::string who = formatMessage(
        "[gen-fuzz seed=", seed, " spec=", spec.name(),
        "] (repro: --workload ", spec.name(), ")");
    runShapeDifferential(spec, seed, who);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GenFuzz,
                         ::testing::Range<std::uint64_t>(1, 201));

void
expectDistEqual(const Distribution &a, const Distribution &b,
                const std::string &who)
{
    EXPECT_EQ(a.count(), b.count()) << who;
    EXPECT_EQ(a.sum(), b.sum()) << who;
    EXPECT_EQ(a.min(), b.min()) << who;
    EXPECT_EQ(a.max(), b.max()) << who;
}

/** Full observable equality between two runs of one config. Doubles
 *  compare bitwise: the same values accumulated in a different order
 *  would fail, by design. */
void
expectRunsEqual(const RunResult &a, const RunResult &b,
                const std::string &who)
{
    EXPECT_EQ(a.finished, b.finished) << who;
    EXPECT_EQ(a.clean, b.clean) << who;
    EXPECT_EQ(a.problem, b.problem) << who;
    EXPECT_EQ(a.fabricCycles, b.fabricCycles) << who;
    EXPECT_EQ(a.systemCycles, b.systemCycles) << who;
    EXPECT_EQ(a.firings, b.firings) << who;
    EXPECT_EQ(a.loads, b.loads) << who;
    EXPECT_EQ(a.stores, b.stores) << who;

    ASSERT_EQ(a.sinks.size(), b.sinks.size()) << who;
    for (const auto &[node, rec] : a.sinks) {
        auto it = b.sinks.find(node);
        ASSERT_NE(it, b.sinks.end()) << who << " sink " << node;
        EXPECT_EQ(rec.count, it->second.count) << who << " sink " << node;
        EXPECT_EQ(rec.last, it->second.last) << who << " sink " << node;
        EXPECT_EQ(rec.sum, it->second.sum) << who << " sink " << node;
    }

    EXPECT_EQ(a.energy.compute, b.energy.compute) << who;
    EXPECT_EQ(a.energy.network, b.energy.network) << who;
    EXPECT_EQ(a.energy.memory, b.energy.memory) << who;

    EXPECT_EQ(a.stats.counters(), b.stats.counters()) << who;
    ASSERT_EQ(a.stats.dists().size(), b.stats.dists().size()) << who;
    for (const auto &[name, dist] : a.stats.dists()) {
        auto it = b.stats.dists().find(name);
        ASSERT_NE(it, b.stats.dists().end()) << who << " dist " << name;
        expectDistEqual(dist, it->second, who + " dist " + name);
    }

    ASSERT_EQ(a.nodeStalls.size(), b.nodeStalls.size()) << who;
    for (std::size_t id = 0; id < a.nodeStalls.size(); ++id) {
        EXPECT_EQ(a.nodeStalls[id].cycles, b.nodeStalls[id].cycles)
            << who << " node " << id;
    }
    ASSERT_EQ(a.nodeMemLatency.size(), b.nodeMemLatency.size()) << who;
    for (std::size_t id = 0; id < a.nodeMemLatency.size(); ++id) {
        expectDistEqual(a.nodeMemLatency[id], b.nodeMemLatency[id],
                        formatMessage(who, " mem-latency node ", id));
    }
}

/**
 * Store-reuse fuzz. A sweep worker runs its points back to back on
 * one StoreBank lane, resetTo() the compiled image before each. A
 * batch of three seed-randomized configs of one random shape, run on
 * such a lane, must match fresh-store runs point for point: every
 * RunResult field and the final memory image. A reset that misses a
 * word an earlier point dirtied shows up as a divergent later point.
 */
class LaneGenFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(LaneGenFuzz, RandomShapeBatchMatchesScalar)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    GeneratorSpec spec = GeneratorSpec::random(rng);
    const std::string who = formatMessage(
        "[lane-fuzz seed=", seed, " spec=", spec.name(), "]");

    auto wl = makeGeneratedWorkload(spec, /*seed=*/42);
    const std::size_t mem_bytes = MemSysConfig{}.memBytes;
    BackingStore image(mem_bytes);
    wl->init(image);
    Graph graph = wl->build(1);
    ASSERT_TRUE(test::wellFormed(graph)) << who;

    Topology topo = Topology::makeMonaco(12, 12);
    PnrOptions popts;
    popts.place.iterationsPerNode = 40;
    popts.place.seed = seed;
    PnrResult pnr = placeAndRoute(graph, topo, popts);
    ASSERT_TRUE(pnr.success) << who << ": " << pnr.failureReason;

    StoreBank bank;
    Rng cfg_rng(seed * 977 + 5);
    for (int point = 0; point < 3; ++point) {
        MachineConfig cfg;
        cfg.fifoDepth = 1 << cfg_rng.below(3); // 1, 2, 4
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
        cfg.mem.seed = 1 + cfg_rng.below(100);
        cfg.memsys.memBytes = mem_bytes;
        cfg.stallAttribution = cfg_rng.below(2) == 1;
        const std::string point_who = formatMessage(who, " point ", point);

        BackingStore &lane = bank.acquire(0, mem_bytes, image.allocated());
        lane.resetTo(image);
        Machine batched(graph, pnr.placement, topo, cfg, lane);
        RunResult b = batched.run();

        BackingStore fresh(mem_bytes);
        fresh.resetTo(image);
        Machine scalar(graph, pnr.placement, topo, cfg, fresh);
        RunResult a = scalar.run();

        ASSERT_TRUE(a.finished && a.clean) << point_who << ": " << a.problem;
        expectRunsEqual(a, b, point_who);
        EXPECT_EQ(fresh.raw(), lane.raw()) << point_who;
        std::string why;
        EXPECT_TRUE(wl->verify(lane, &why)) << point_who << ": " << why;
        if (cfg.stallAttribution) {
            const auto fabric = static_cast<std::uint64_t>(b.fabricCycles);
            for (std::size_t id = 0; id < b.nodeStalls.size(); ++id) {
                EXPECT_EQ(b.nodeStalls[id].total(), fabric)
                    << point_who << " node " << id;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneGenFuzz,
                         ::testing::Range<std::uint64_t>(1, 51));

/** Random specs round-trip through the grammar. */
TEST(GenSpec, RandomSpecsRoundTripThroughGrammar)
{
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        GeneratorSpec spec = GeneratorSpec::random(rng);
        std::string name = spec.name();
        GeneratorSpec reparsed = GeneratorSpec::parse(name);
        EXPECT_EQ(reparsed.name(), name);
    }
}

TEST(GenSpec, MalformedSpecsAreFatalWithGrammar)
{
    for (const char *bad :
         {"gen:", "gen:stencil", "gen:stencil2x2", "gen:stencil3x3:q9",
          "gen:gemm8x8", "gen:gemm8x8x8:t3x4x4", "gen:conv1d8",
          "gen:reduce1x3", "gen:reduce2x9", "gen:nosuchkind5"}) {
        EXPECT_THROW(GeneratorSpec::parse(bad), FatalError) << bad;
    }
}

/** The curated registry, through the same drivers the benches use. */
class CuratedGenerated : public ::testing::TestWithParam<std::string>
{};

TEST_P(CuratedGenerated, NameIsCanonicalAndRegistryResolvesIt)
{
    const std::string &name = GetParam();
    EXPECT_EQ(GeneratorSpec::parse(name).name(), name);
    auto wl = makeWorkload(name);
    EXPECT_EQ(wl->name(), name);
    EXPECT_FALSE(wl->description().empty());
    EXPECT_FALSE(wl->paperInput().empty());
    EXPECT_FALSE(wl->scaledInput().empty());
}

TEST_P(CuratedGenerated, CompilesVerifiesAndMatchesInterpreter)
{
    const std::string &name = GetParam();
    GeneratorSpec spec = GeneratorSpec::parse(name);
    runShapeDifferential(spec, /*seed=*/1,
                         formatMessage("[curated ", name, "]"));
}

TEST_P(CuratedGenerated, BenchHarnessCompilesAndRunsIt)
{
    // The bench-side driver path: compileWorkload (preferred
    // parallelism with backoff, verifier on) + runCompiled.
    const std::string &name = GetParam();
    Topology topo = Topology::makeMonaco(12, 12);
    CompileOptions copts;
    copts.saIterationsPerNode = 40;
    bench::CompiledWorkload cw = compileWorkload(name, topo, copts);
    bench::BenchRun run =
        runCompiled(cw, bench::primaryConfig(MemModel::Monaco, 0));
    EXPECT_TRUE(run.verified) << name;
    EXPECT_GT(run.fabricCycles, 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, CuratedGenerated,
    ::testing::ValuesIn(generatedWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        // Sanitize "gen:stencil3x3:c1,-2" into a valid test name.
        std::string out;
        for (char c : info.param) {
            out += (std::isalnum(static_cast<unsigned char>(c)) != 0)
                       ? c
                       : '_';
        }
        return out + "_" + std::to_string(info.index);
    });

TEST(GeneratedRegistry, AtLeastTenGeneratedWorkloads)
{
    EXPECT_GE(generatedWorkloadNames().size(), 10u);
}

TEST(GeneratedRegistry, UnknownNameListsKnownNamesAndGrammar)
{
    try {
        makeWorkload("nosuch");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        // The message must carry every hand-built and generated name
        // plus the generator grammar, so a typo is self-diagnosing.
        for (const std::string &n : workloadNames())
            EXPECT_NE(msg.find(n), std::string::npos) << n;
        for (const std::string &n : generatedWorkloadNames())
            EXPECT_NE(msg.find(n), std::string::npos) << n;
        EXPECT_NE(msg.find("gen:stencil<WR>x<WC>"), std::string::npos);
    }
}

} // namespace
} // namespace nupea
