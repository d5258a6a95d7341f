/**
 * @file
 * Differential suite for the static performance model
 * (analysis/perf_model.h): predictions vs Machine measurements for
 * every registered workload and a corpus of seeded generator shapes,
 * across three memory models — plus the --prune acceptance test
 * (pruned fig11 sweep must keep every measured Pareto point).
 *
 * The prediction path runs zero Machine cycles: one interpreter
 * profile per compiled workload, then pure arithmetic per config.
 * What is pinned:
 *  - functional counts (loads, stores, firings) are EXACT;
 *  - compute and network energy match the Machine to float noise
 *    (the event counts are exact; only summation order differs);
 *  - system-cycle error stays under a committed per-workload bound
 *    (kCycleErrorBound), and under kGenCycleErrorBound for the
 *    fuzz corpus. Tightening is welcome; loosening is a regression.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <string>

#include "analysis/hazards.h"
#include "analysis/perf_model.h"
#include "analysis/profile.h"
#include "bench/bench_util.h"
#include "bench/sweep_runner.h"
#include "common/log.h"
#include "common/rng.h"
#include "test_support.h"
#include "workloads/gen/gen_workload.h"

namespace nupea
{
namespace
{

using bench::CompiledWorkload;
using bench::CompileOptions;
using bench::compileWorkload;
using bench::PointResult;
using bench::primaryConfig;
using bench::runCompiled;
using bench::RunSpec;
using bench::runSweep;
using bench::SweepOptions;
using bench::SweepResult;
using bench::SweepRunner;

/** The three memory models the suite validates against. */
struct ModelCase
{
    MachineConfig config;
    const char *tag;
};

std::vector<ModelCase>
modelCases()
{
    return {
        {primaryConfig(MemModel::Monaco, 0), "monaco"},
        {primaryConfig(MemModel::Upea, 2), "upea2"},
        {primaryConfig(MemModel::NumaUpea, 2), "numa-upea2"},
    };
}

/**
 * Committed per-workload relative system-cycle error bounds for the
 * three-model basket (fraction of measured; the observed errors at
 * pin time are well below — see DESIGN.md "Static performance
 * model" for the achieved mean/max). A new workload without an entry
 * gets the default bound.
 */
double
cycleErrorBound(const std::string &workload)
{
    static const std::map<std::string, double> kBounds = {
        {"dmv", 0.15},    {"jacobi2d", 0.40}, {"heat3d", 0.15},
        {"spmv", 0.25},   {"spmspm", 0.22},   {"spmspv", 0.10},
        {"spadd", 0.12},  {"tc", 0.15},       {"mergesort", 0.25},
        {"fft", 0.38},    {"ad", 0.55},       {"ic", 0.18},
        {"vww", 0.48},
    };
    auto it = kBounds.find(workload);
    return it == kBounds.end() ? 0.60 : it->second;
}

/** Fuzz-corpus bound: generated shapes stress the model harder than
 *  the curated workloads (deep recurrences over tiny footprints). */
constexpr double kGenCycleErrorBound = 0.60;

/** Compile every registered workload once (perf-regress geometry). */
const std::vector<CompiledWorkload> &
compiledWorkloads()
{
    static const std::vector<CompiledWorkload> compiled = [] {
        Topology topo = Topology::makeMonaco(12, 12);
        std::vector<CompiledWorkload> out;
        for (const std::string &name : workloadNames()) {
            CompileOptions copts;
            copts.mode = PlaceMode::CriticalityAware;
            copts.saIterationsPerNode = 40;
            out.push_back(compileWorkload(name, topo, copts));
        }
        return out;
    }();
    return compiled;
}

/** One profile per compiled workload (config-independent). */
const ExecutionProfile &
profileOf(std::size_t index)
{
    static const std::vector<ExecutionProfile> profiles = [] {
        std::vector<ExecutionProfile> out;
        for (const CompiledWorkload &cw : compiledWorkloads())
            out.push_back(profileGraph(cw.graph, cw.image,
                                       MemSysConfig{}.memBytes));
        return out;
    }();
    return profiles[index];
}

PerfPrediction
predictFor(const CompiledWorkload &cw, const ExecutionProfile &profile,
           const MachineConfig &c)
{
    PerfModelConfig pc{c.mem, c.memsys, c.energy, c.clockDivider,
                       c.maxOutstanding, c.fifoDepth};
    return predictPerformance(cw.graph, cw.pnr.placement, cw.topo,
                              profile, pc);
}

double
relError(double predicted, double measured)
{
    return measured == 0.0 ? 0.0
                           : std::abs(predicted - measured) / measured;
}

class PerfModelWorkloads : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(PerfModelWorkloads, PredictionWithinPinnedBounds)
{
    const CompiledWorkload &cw = compiledWorkloads()[GetParam()];
    const ExecutionProfile &profile = profileOf(GetParam());
    const std::string name = cw.workload->name();
    ASSERT_TRUE(profile.clean) << name;

    const double bound = cycleErrorBound(name);
    for (const ModelCase &mc : modelCases()) {
        const std::string who = name + "/" + mc.tag;
        bench::BenchRun run = runCompiled(cw, mc.config);
        PerfPrediction pred = predictFor(cw, profile, mc.config);

        // Functional counts are dataflow semantics: exact.
        EXPECT_EQ(profile.loads, run.loads) << who;
        EXPECT_EQ(profile.stores, run.stores) << who;
        EXPECT_EQ(profile.firings, run.firings) << who;

        // Compute/network energy rest on exact event counts; only
        // float summation order differs from the Machine.
        EXPECT_NEAR(pred.energy.compute, run.energy.compute,
                    1e-6 * std::max(1.0, run.energy.compute))
            << who;
        EXPECT_NEAR(pred.energy.network, run.energy.network,
                    1e-6 * std::max(1.0, run.energy.network))
            << who;

        double err = relError(pred.systemCycles,
                              static_cast<double>(run.systemCycles));
        std::printf("[perf-model] %-24s pred=%12.0f meas=%12llu "
                    "err=%5.1f%% bound=%s\n",
                    who.c_str(), pred.systemCycles,
                    static_cast<unsigned long long>(run.systemCycles),
                    err * 100.0, std::string(pred.dominantBound).c_str());
        EXPECT_LE(err, bound)
            << who << ": predicted " << pred.systemCycles
            << " system cycles vs measured " << run.systemCycles
            << " (dominant bound: " << pred.dominantBound << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, PerfModelWorkloads,
    ::testing::Range<std::size_t>(0, workloadNames().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return workloadNames()[info.param];
    });

/** Seeded generator shapes across the same three-model basket. */
class PerfModelGenFuzz : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(PerfModelGenFuzz, RandomShapeWithinFuzzBound)
{
    const std::uint64_t seed = GetParam();
    Rng rng(seed);
    GeneratorSpec spec = GeneratorSpec::random(rng);
    const std::string who =
        formatMessage("[perf-fuzz seed=", seed, " spec=", spec.name(),
                      "]");

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

    ExecutionProfile profile =
        profileGraph(graph, image, mem_bytes);
    ASSERT_TRUE(profile.clean) << who;

    for (const ModelCase &mc : modelCases()) {
        PerfModelConfig pc{mc.config.mem, mc.config.memsys,
                           mc.config.energy, mc.config.clockDivider,
                           mc.config.maxOutstanding,
                           mc.config.fifoDepth};
        PerfPrediction pred = predictPerformance(
            graph, pnr.placement, topo, profile, pc);

        BackingStore store(mem_bytes);
        store.resetTo(image);
        Machine machine(graph, pnr.placement, topo, mc.config, store);
        RunResult run = machine.run();
        ASSERT_TRUE(run.finished && run.clean) << who << " " << mc.tag;

        EXPECT_EQ(profile.loads, run.loads) << who << " " << mc.tag;
        EXPECT_EQ(profile.stores, run.stores) << who << " " << mc.tag;
        EXPECT_EQ(profile.firings, run.firings) << who << " " << mc.tag;
        EXPECT_NEAR(pred.energy.compute, run.energy.compute,
                    1e-6 * std::max(1.0, run.energy.compute))
            << who << " " << mc.tag;
        EXPECT_NEAR(pred.energy.network, run.energy.network,
                    1e-6 * std::max(1.0, run.energy.network))
            << who << " " << mc.tag;

        double err = relError(pred.systemCycles,
                              static_cast<double>(run.systemCycles));
        EXPECT_LE(err, kGenCycleErrorBound)
            << who << " " << mc.tag << ": predicted "
            << pred.systemCycles << " vs measured " << run.systemCycles
            << " (dominant bound: " << pred.dominantBound << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PerfModelGenFuzz,
                         ::testing::Range<std::uint64_t>(1, 51));

/** Index of a workload in the shared compiled vector. */
std::size_t
workloadIndex(const std::string &name)
{
    const std::vector<std::string> &names = workloadNames();
    auto it = std::find(names.begin(), names.end(), name);
    EXPECT_NE(it, names.end()) << name;
    return static_cast<std::size_t>(it - names.begin());
}

/**
 * Behavioral check for the perf.* hazard rules: a genuinely
 * latency-bound loop (spmspv: recurrence ~6x every throughput bound
 * and above the FIFO-backpressure bound) must get a located
 * perf.recurrence-bound warning, while a backpressure/throughput-
 * bound workload (dmv) must not — telling its author "less
 * recurrence" when deeper FIFOs would fix it is wrong advice.
 */
TEST(PerfHazards, RecurrenceBoundFlagsOnlyLatencyBoundLoops)
{
    MachineConfig c = primaryConfig(MemModel::Monaco, 0);

    std::size_t spmspv = workloadIndex("spmspv");
    const CompiledWorkload &lat = compiledWorkloads()[spmspv];
    PerfPrediction lat_pred =
        predictFor(lat, profileOf(spmspv), c);
    DiagnosticReport lat_report = analyzePlacementHazards(
        lat.graph, lat.pnr.placement, lat.topo, profileOf(spmspv),
        lat_pred);
    const Diagnostic *d =
        lat_report.find(DiagId::PerfRecurrenceBound);
    ASSERT_NE(d, nullptr) << lat_report.renderText();
    EXPECT_NE(d->node, kInvalidId)
        << "finding must locate the governing LoopMerge";
    EXPECT_EQ(diagIdSeverity(DiagId::PerfRecurrenceBound),
              Severity::Warning);

    std::size_t dmv = workloadIndex("dmv");
    const CompiledWorkload &bp = compiledWorkloads()[dmv];
    PerfPrediction bp_pred = predictFor(bp, profileOf(dmv), c);
    DiagnosticReport bp_report = analyzePlacementHazards(
        bp.graph, bp.pnr.placement, bp.topo, profileOf(dmv), bp_pred);
    EXPECT_FALSE(bp_report.has(DiagId::PerfRecurrenceBound))
        << bp_report.renderText();
}

/**
 * The --prune acceptance test: a 0.25-pruned fig11 sweep (13
 * workloads x 4 configs) must cycle-simulate at most 25% of the
 * points while keeping every point that is Pareto-optimal in the
 * UNPRUNED run on (measured system cycles, measured total energy).
 */
TEST(PerfModelPrune, PruneKeepsMeasuredParetoFront)
{
    const std::vector<CompiledWorkload> &cws = compiledWorkloads();
    std::vector<RunSpec> specs;
    for (const CompiledWorkload &cw : cws) {
        const std::string app = cw.workload->name();
        specs.push_back(
            {&cw, primaryConfig(MemModel::Monaco, 0), app + "/monaco"});
        specs.push_back(
            {&cw, primaryConfig(MemModel::Upea, 0), app + "/ideal"});
        specs.push_back(
            {&cw, primaryConfig(MemModel::Upea, 2), app + "/upea2"});
        specs.push_back({&cw, primaryConfig(MemModel::NumaUpea, 2),
                         app + "/numa-upea2"});
    }

    SweepOptions full_opts;
    full_opts.jobs = 2;
    SweepRunner full_runner(full_opts);
    SweepResult full = runSweep(full_runner, specs);
    ASSERT_EQ(full.points.size(), specs.size());
    ASSERT_EQ(full.prunedPoints, 0u);

    // Measured Pareto front (minimize cycles and energy).
    auto dominates = [&](std::size_t a, std::size_t b) {
        double ca = static_cast<double>(full.points[a].run.systemCycles);
        double cb = static_cast<double>(full.points[b].run.systemCycles);
        double ea = full.points[a].run.energy.total();
        double eb = full.points[b].run.energy.total();
        return ca <= cb && ea <= eb && (ca < cb || ea < eb);
    };
    std::vector<std::size_t> pareto;
    for (std::size_t a = 0; a < specs.size(); ++a) {
        bool dominated = false;
        for (std::size_t b = 0; b < specs.size() && !dominated; ++b)
            dominated = b != a && dominates(b, a);
        if (!dominated)
            pareto.push_back(a);
    }
    ASSERT_FALSE(pareto.empty());

    SweepOptions pruned_opts;
    pruned_opts.jobs = 2;
    pruned_opts.prune = 0.25;
    SweepRunner pruned_runner(pruned_opts);
    SweepResult pruned = runSweep(pruned_runner, specs);
    ASSERT_EQ(pruned.points.size(), specs.size());

    std::size_t simulated = 0;
    for (const PointResult &p : pruned.points)
        simulated += p.pruned ? 0 : 1;
    EXPECT_LE(simulated, specs.size() / 4)
        << "--prune 0.25 must simulate at most a quarter of the sweep";
    EXPECT_EQ(pruned.prunedPoints, specs.size() - simulated);

    for (std::size_t idx : pareto) {
        EXPECT_FALSE(pruned.points[idx].pruned)
            << "measured-Pareto point " << specs[idx].label
            << " was pruned away";
        if (!pruned.points[idx].pruned) {
            // A simulated point must reproduce the unpruned run.
            EXPECT_EQ(pruned.points[idx].run.systemCycles,
                      full.points[idx].run.systemCycles)
                << specs[idx].label;
        }
    }

    // Pruned slots carry predictions, not zeros.
    for (const PointResult &p : pruned.points) {
        if (p.pruned) {
            EXPECT_GT(p.run.systemCycles, 0u) << p.label;
            EXPECT_GT(p.run.energy.total(), 0.0) << p.label;
            EXPECT_FALSE(p.run.verified) << p.label;
        }
    }
}

/** Pinned static-model outputs under one config. */
struct PredictionGolden
{
    const char *config; ///< modelCases() tag
    double systemCycles;
    const char *dominantBound;
    PerfBounds bounds;
    double hitRate;
    double compute, network, memory; ///< energy terms
};

/** Pinned profile plus predictions for one workload. */
struct ModelGolden
{
    const char *workload;
    std::uint64_t firings, loads, stores, totalAccesses, distinctLines;
    std::array<PredictionGolden, 3> predictions; ///< modelCases() order
};

/** Exact static-model outputs for three workloads compiled on Monaco
 *  12x12 with default CompileOptions. The error-bound tests above
 *  would pass a refactor that moved a bound by one ulp; these pin the
 *  values themselves. Regenerate with %.17g only for an intentional
 *  model change. */
const ModelGolden kModelGolden[] = {
    {"dmv", 24552, 3200, 40, 3240, 210,
     {{
         {"monaco", 1138.5185185185187, "loop-backpressure",
          {110, 100, 202.5, 184, 219,
           557.12962962962968, 12.12962962962963},
          0.93518518518518523, 15716.799999999988, 48977.39999999998,
          12765.000000000004},
         {"upea2", 1250.5185185185187, "loop-backpressure",
          {110, 100, 0, 184, 219,
           612.12962962962968, 13.12962962962963},
          0.93518518518518523, 15716.799999999988, 48977.39999999998,
          17774.999999999996},
         {"numa-upea2", 1196.7585185185185, "loop-backpressure",
          {110, 100, 0, 184, 219,
           585.72962962962958, 12.649629629629629},
          0.93518518518518523, 15716.799999999988, 48977.39999999998,
          16241.000000000004},
     }}},
    {"spmspv", 69633, 8180, 96, 8276, 252,
     {{
         {"monaco", 7881.1106814886416, "recurrence",
          {571, 523, 297.5, 661.5, 3924.4335427742872,
           2301.3866602223293, 16.121797970033832},
          0.96955050749154181, 44664.700000000012, 158043.60000000003,
          27006.000000000007},
         {"upea2", 10081.110681488643, "recurrence",
          {571, 523, 0, 661.5, 5022.4335427742872,
           2872.3866602223293, 18.121797970033832},
          0.96955050749154181, 44664.700000000012, 158043.60000000003,
          43270.000000000007},
         {"numa-upea2", 9870.0688608612236, "recurrence",
          {571, 523, 0, 661.5, 4917.4622234626231,
           2817.7977500884863, 17.572206967988844},
          0.96955050749154181, 44664.700000000012, 158043.60000000003,
          38820.000000000007},
     }}},
    {"mergesort", 18781, 693, 384, 1077, 16,
     {{
         {"monaco", 3512.1058495821726, "recurrence",
          {248, 184, 92, 36.5, 1739.9935004642525,
           1123.3686165273909, 16.059424326833799},
          0.98514391829155057, 9084.5999999999985, 42096.599999999984,
          3350.9999999999995},
         {"upea2", 5000.1058495821726, "recurrence",
          {248, 184, 0, 36.5, 2479.9935004642525,
           1619.3686165273912, 20.059424326833799},
          0.98514391829155057, 9084.5999999999985, 42096.599999999984,
          5505},
         {"numa-upea2", 4713.0188930604327, "recurrence",
          {248, 184, 0, 36.5, 2337.2217613338175,
           1523.6729643534779, 19.287685196399018},
          0.98514391829155057, 9084.5999999999985, 42096.599999999984,
          4953},
     }}},
};

TEST(PerfModelGolden, PinnedProfileAndPrediction)
{
    Topology topo = Topology::makeMonaco(12, 12);
    const std::vector<ModelCase> cases = modelCases();
    for (const ModelGolden &g : kModelGolden) {
        CompiledWorkload cw = compileWorkload(g.workload, topo,
                                              CompileOptions{});
        ExecutionProfile profile =
            profileGraph(cw.graph, cw.image, MemSysConfig{}.memBytes);
        ASSERT_TRUE(profile.clean) << g.workload;
        EXPECT_EQ(profile.firings, g.firings) << g.workload;
        EXPECT_EQ(profile.loads, g.loads) << g.workload;
        EXPECT_EQ(profile.stores, g.stores) << g.workload;
        EXPECT_EQ(profile.totalAccesses, g.totalAccesses) << g.workload;
        EXPECT_EQ(profile.distinctLines, g.distinctLines) << g.workload;

        ASSERT_EQ(cases.size(), g.predictions.size());
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const PredictionGolden &want = g.predictions[i];
            ASSERT_STREQ(cases[i].tag, want.config);
            const std::string ctx =
                formatMessage(g.workload, "/", want.config);
            PerfPrediction got = predictFor(cw, profile, cases[i].config);
            EXPECT_EQ(got.systemCycles, want.systemCycles) << ctx;
            EXPECT_EQ(got.dominantBound, want.dominantBound) << ctx;
            const PerfBounds &b = got.bounds;
            const PerfBounds &w = want.bounds;
            EXPECT_EQ(b.nodeThroughput, w.nodeThroughput) << ctx;
            EXPECT_EQ(b.memThroughput, w.memThroughput) << ctx;
            EXPECT_EQ(b.portThroughput, w.portThroughput) << ctx;
            EXPECT_EQ(b.bankThroughput, w.bankThroughput) << ctx;
            EXPECT_EQ(b.recurrence, w.recurrence) << ctx;
            EXPECT_EQ(b.loopBackpressure, w.loopBackpressure) << ctx;
            EXPECT_EQ(b.depth, w.depth) << ctx;
            EXPECT_EQ(got.hitRate, want.hitRate) << ctx;
            EXPECT_EQ(got.energy.compute, want.compute) << ctx;
            EXPECT_EQ(got.energy.network, want.network) << ctx;
            EXPECT_EQ(got.energy.memory, want.memory) << ctx;
        }
    }
}

} // namespace
} // namespace nupea
