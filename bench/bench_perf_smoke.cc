/**
 * @file
 * Harness-throughput smoke bench: compiles a small workload basket,
 * expands it into a 66-point config sweep, runs it serially and at a
 * ladder of job counts (pool construction excluded from every timed
 * window, one untimed warmup pass first), checks that every job
 * count produces bit-identical simulated stats, times an
 * attribution-on serial pass, and writes BENCH_perf.json — per-point
 * and per-workload timings plus the serial-vs-parallel scaling curve
 * — so future PRs can see sweep-throughput regressions.
 *
 * Usage: bench_perf_smoke [--jobs N] [--out PATH] [--guard BASELINE]
 *
 * The static analyzer (one interpreter profile per workload, then
 * predictPerformance per point — exactly the scoring work --prune
 * does) is also timed over the 66-point basket, min-of-3, and written
 * as "analyzer_points_per_sec" so analyzer slowdowns are visible.
 *
 * The simulated-annealing placer is timed the same way: a min-of-3
 * pass of one anneal per basket workload ("placer_points_per_sec").
 * The pass's summed placement cost ("placer_single_cost") is a pure
 * function of the seeds, which a speed-only change must leave
 * unchanged.
 *
 * The router is timed the same way: a min-of-3 pass of one routeGraph
 * per basket workload on its compiled placement
 * ("router_points_per_sec"). The pass's summed negotiation rounds
 * ("router_iterations") are a work count that a speed-only change
 * must leave unchanged.
 *
 * With --guard, the run is checked against the committed BASELINE
 * json; the first failing gate exits 1. In order:
 *  - total firings_per_sec more than 25% below the baseline's fails
 *    (a baseline without the key fails too);
 *  - analyzer_points_per_sec, placer_points_per_sec and
 *    router_points_per_sec must each stay within 1.5x of the
 *    baseline's (min-of-3 walls on both sides damp preemption
 *    noise). Baselines recorded before a row existed lack its key;
 *    that gate prints a note and skips rather than failing;
 *  - no point whose serial wall is >= 1ms may take more than 3x its
 *    serial wall in the largest parallel pass the host can physically
 *    run (jobs <= cpus; per-point timing-artifact gate — store
 *    acquisition lives outside the timed span, so only preemption can
 *    inflate a point, and comparing an oversubscribed pass would
 *    measure time-slicing, not the harness);
 *  - on hosts with >= 4 cores the measured harness_speedup at jobs
 *    >= 4 must reach 1.5 (the parallel-sweep regression gate); hosts
 *    with fewer cores print a note and skip that gate.
 * NUPEA_PERF_GUARD_SKIP=1 skips every comparison (exit 77, the ctest
 * SKIP_RETURN_CODE) for machines where wall-clock is not comparable
 * to the recorded baseline.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "analysis/perf_model.h"
#include "analysis/profile.h"
#include "bench/sweep_runner.h"

namespace
{

using namespace nupea;
using namespace nupea::bench;

const char *const kBasket[] = {"dmv",       "spmv", "spmspv",
                               "mergesort", "ic",   "vww"};

struct NamedConfig
{
    const char *name;
    MemModel model;
    int upeaLatency;
};

/** 11 configs x 6 workloads = 66 points: enough work that the
 *  parallel harness is measured against real task supply, not the
 *  18-point basket whose per-task overhead once dominated. */
const NamedConfig kConfigs[] = {
    {"monaco", MemModel::Monaco, 0},
    {"upea1", MemModel::Upea, 1},
    {"upea2", MemModel::Upea, 2},
    {"upea3", MemModel::Upea, 3},
    {"upea4", MemModel::Upea, 4},
    {"upea6", MemModel::Upea, 6},
    {"numa-upea1", MemModel::NumaUpea, 1},
    {"numa-upea2", MemModel::NumaUpea, 2},
    {"numa-upea3", MemModel::NumaUpea, 3},
    {"numa-upea4", MemModel::NumaUpea, 4},
    {"numa-upea6", MemModel::NumaUpea, 6},
};

/** Simulated results that must not depend on the job count. */
bool
sameStats(const BenchRun &a, const BenchRun &b)
{
    return a.fabricCycles == b.fabricCycles &&
           a.systemCycles == b.systemCycles && a.loads == b.loads &&
           a.stores == b.stores && a.firings == b.firings &&
           a.energy.total() == b.energy.total() &&
           a.verified == b.verified;
}

/** Slurp a baseline json into memory. */
bool
readBaselineText(const std::string &path, std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, got);
    std::fclose(f);
    return true;
}

/**
 * Pull `"<key>": <number>` out of a baseline json by its LAST
 * occurrence — for "firings_per_sec" that is the "total" object's
 * copy, not a per-workload one. Keys the baseline predates (e.g.
 * "analyzer_points_per_sec") simply return false.
 */
bool
readBaselineValue(const std::string &text, const char *key,
                  double &value)
{
    std::string needle = std::string("\"") + key + "\":";
    std::size_t pos = text.rfind(needle);
    if (pos == std::string::npos)
        return false;
    value = std::strtod(text.c_str() + pos + needle.size(), nullptr);
    return value > 0.0;
}

/**
 * A committed-baseline throughput gate: baseline / measured is the
 * cost ratio, and a ratio above `limit` fails the guard. The sweep
 * gate (no `name`) requires its key; the named per-layer gates skip
 * with a note when the baseline predates their key, and their
 * failure messages name the NUPEA_PERF_GUARD_SKIP escape.
 */
struct ThroughputGate
{
    const char *key;     ///< baseline json key (last occurrence)
    const char *name;    ///< layer name; nullptr for the sweep gate
    const char *unit;    ///< throughput unit in the report line
    const char *subject; ///< what the failure message calls slower
    double limit;        ///< largest passing cost ratio
    double measured;     ///< this run's throughput
};

/** Report one gate; false when it fails the guard. */
bool
passesGate(const ThroughputGate &gate, const std::string &baselineText,
           const std::string &baselinePath)
{
    double baseline = 0.0;
    if (!readBaselineValue(baselineText, gate.key, baseline)) {
        if (gate.name == nullptr) {
            warn("perf guard: baseline ", baselinePath, " has no ",
                 gate.key);
            return false;
        }
        std::printf("perf guard: baseline has no %s; skipping the %s "
                    "gate (re-pin BENCH_perf.json to arm it)\n",
                    gate.key, gate.name);
        return true;
    }
    double ratio =
        gate.measured > 0.0 ? baseline / gate.measured : 1e9;
    std::printf("perf guard: %s%sbaseline %.1f %s, measured %.1f "
                "(%.2fx of baseline cost)\n",
                gate.name ? gate.name : "", gate.name ? " " : "",
                baseline, gate.unit, gate.measured, ratio);
    if (ratio > gate.limit) {
        warn("perf guard: ", gate.subject, " is ", ratio,
             "x slower than the committed baseline (limit ", gate.limit,
             "x",
             gate.name ? "; set NUPEA_PERF_GUARD_SKIP=1 on incomparable "
                         "machines"
                       : "",
             ")");
        return false;
    }
    return true;
}

/** One timed sweep at a fixed job count; the runner (and its thread
 *  pool) is constructed before the timed window inside runSweep. */
SweepResult
timedSweep(int jobs, const std::vector<RunSpec> &specs)
{
    SweepRunner runner(SweepOptions{jobs});
    return runSweep(runner, specs);
}

} // namespace

int
main(int argc, char **argv)
{
    std::optional<std::string> out_arg, guard_arg;
    SweepOptions opts = parseSweepArgs(
        argc, argv, {{"--out", &out_arg}, {"--guard", &guard_arg}});
    const std::string guard_path = guard_arg.value_or("");
    if (!guard_path.empty() &&
        std::getenv("NUPEA_PERF_GUARD_SKIP") != nullptr) {
        std::printf("perf_smoke: NUPEA_PERF_GUARD_SKIP set, "
                    "skipping guard comparison\n");
        return 77; // ctest SKIP_RETURN_CODE
    }
    const std::string out_path = out_arg.value_or(
        guard_path.empty() ? "BENCH_perf.json" : "BENCH_perf.guard.json");

    // The headline parallel measurement is pinned to 8 jobs (matching
    // the committed baseline) unless --jobs overrides it; the ladder
    // below fills in the rest of the scaling curve.
    const int headline_jobs = opts.jobs > 0 ? opts.jobs : 8;
    std::vector<int> ladder{2, 4, headline_jobs};
    std::sort(ladder.begin(), ladder.end());
    ladder.erase(std::unique(ladder.begin(), ladder.end()),
                 ladder.end());
    ladder.erase(std::remove_if(ladder.begin(), ladder.end(),
                                [](int j) { return j <= 1; }),
                 ladder.end());

    // Compile the basket once, through a pool at the headline width.
    SweepRunner compile_runner(SweepOptions{headline_jobs});
    std::vector<CompileSpec> cspecs;
    for (const char *name : kBasket)
        cspecs.push_back(
            {name, Topology::makeMonaco(12, 12), CompileOptions{}});
    auto compile_start = std::chrono::steady_clock::now();
    std::vector<CompiledWorkload> compiled =
        compileAll(compile_runner, cspecs);
    double compile_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      compile_start)
            .count();

    std::vector<RunSpec> rspecs;
    for (const CompiledWorkload &cw : compiled) {
        for (const NamedConfig &cfg : kConfigs) {
            rspecs.push_back(
                {&cw, primaryConfig(cfg.model, cfg.upeaLatency),
                 cw.workload->name() + "/" + cfg.name});
        }
    }

    // Static-analyzer throughput: one interpreter profile per
    // workload plus predictPerformance for every point — exactly the
    // scoring work a --prune sweep does before simulating. Min-of-3
    // walls damp preemption noise. The checksum keeps the optimizer
    // from eliding the passes.
    double analyzer_seconds = 0.0;
    double analyzer_checksum = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        auto analyzer_start = std::chrono::steady_clock::now();
        double checksum = 0.0;
        for (const CompiledWorkload &cw : compiled) {
            ExecutionProfile profile = profileGraph(
                cw.graph, cw.image, MemSysConfig{}.memBytes);
            for (const NamedConfig &cfg : kConfigs) {
                MachineConfig c =
                    primaryConfig(cfg.model, cfg.upeaLatency);
                PerfModelConfig pc{c.mem, c.memsys, c.energy,
                                   c.clockDivider, c.maxOutstanding,
                                   c.fifoDepth};
                PerfPrediction pred = predictPerformance(
                    cw.graph, cw.pnr.placement, cw.topo, profile, pc);
                checksum += pred.systemCycles;
            }
        }
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() -
                          analyzer_start)
                          .count();
        analyzer_seconds =
            rep == 0 ? wall : std::min(analyzer_seconds, wall);
        analyzer_checksum = checksum;
    }
    const double analyzer_points_per_sec =
        analyzer_seconds > 0.0
            ? static_cast<double>(rspecs.size()) / analyzer_seconds
            : 0.0;

    // Placer throughput: re-anneal every basket workload (min-of-3
    // walls, same noise policy as the analyzer). Criticality classes
    // were marked on the graphs by placeAndRoute, so this times
    // exactly the anneal.
    const CompileOptions defaults;
    PlacerOptions placer_options;
    placer_options.mode = defaults.mode;
    placer_options.seed = defaults.seed;
    placer_options.iterationsPerNode = defaults.saIterationsPerNode;
    double placer_seconds = 0.0;
    double placer_single_cost = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        auto placer_start = std::chrono::steady_clock::now();
        double cost = 0.0;
        for (const CompiledWorkload &cw : compiled) {
            PlacerStats stats;
            placeGraph(cw.graph, cw.topo, placer_options, &stats);
            cost += stats.winnerCost;
        }
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() -
                          placer_start)
                          .count();
        placer_seconds =
            rep == 0 ? wall : std::min(placer_seconds, wall);
        placer_single_cost = cost;
    }
    const double placer_points_per_sec =
        placer_seconds > 0.0
            ? static_cast<double>(compiled.size()) / placer_seconds
            : 0.0;

    // Router throughput: one route per basket workload on the
    // placement it compiled with, min-of-3 walls.
    double router_seconds = 0.0;
    int router_iterations = 0;
    for (int rep = 0; rep < 3; ++rep) {
        auto router_start = std::chrono::steady_clock::now();
        int iterations = 0;
        for (const CompiledWorkload &cw : compiled) {
            iterations +=
                routeGraph(cw.graph, cw.topo, cw.pnr.placement).iterations;
        }
        double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() -
                          router_start)
                          .count();
        router_seconds =
            rep == 0 ? wall : std::min(router_seconds, wall);
        router_iterations = iterations;
    }
    const double router_points_per_sec =
        router_seconds > 0.0
            ? static_cast<double>(compiled.size()) / router_seconds
            : 0.0;

    SweepRunner serial_runner(SweepOptions{1});

    // Untimed warmup: faults the shared images and per-arena pages,
    // warms code paths, so the timed serial pass is not charged
    // one-time host costs the parallel passes then skip.
    runSweep(serial_runner, rspecs);

    SweepResult serial = runSweep(serial_runner, rspecs);

    std::vector<SweepResult> scaled;
    scaled.reserve(ladder.size());
    for (int jobs : ladder)
        scaled.push_back(timedSweep(jobs, rspecs));
    const SweepResult &parallel = scaled.back(); // headline jobs

    // Same sweep with stall attribution on: the observability tax
    // should stay a small multiple of the plain run.
    std::vector<RunSpec> aspecs = rspecs;
    for (RunSpec &spec : aspecs)
        spec.config.stallAttribution = true;
    SweepResult attr_serial = runSweep(serial_runner, aspecs);

    bool identical = true;
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
        for (const SweepResult &sw : scaled) {
            if (!sameStats(serial.points[i].run, sw.points[i].run)) {
                identical = false;
                warn("jobs=1 vs jobs=", sw.jobs, " stats mismatch at ",
                     serial.points[i].label);
            }
        }
        if (!sameStats(serial.points[i].run, attr_serial.points[i].run)) {
            identical = false;
            warn("attribution on vs off stats mismatch at ",
                 serial.points[i].label);
        }
    }

    std::uint64_t total_fabric = 0, total_firings = 0;
    for (const PointResult &p : serial.points) {
        total_fabric += static_cast<std::uint64_t>(p.run.fabricCycles);
        total_firings += p.run.firings;
    }
    double total_firings_per_sec =
        serial.wallSeconds > 0.0
            ? static_cast<double>(total_firings) / serial.wallSeconds
            : 0.0;
    auto speedupOf = [&](const SweepResult &sw) {
        return sw.wallSeconds > 0.0
                   ? serial.wallSeconds / sw.wallSeconds
                   : 1.0;
    };
    const unsigned host_cpus =
        std::max(1u, std::thread::hardware_concurrency());

    // Per-point timing-artifact data compares a point's wall under a
    // parallel pass against its serial wall. That is only meaningful
    // when the host can actually run the workers in parallel: with
    // more jobs than cpus, time-slicing alone inflates a point's wall
    // by roughly the oversubscription factor with no harness defect
    // to find. Use the largest measured pass the host can physically
    // parallelize; on a single-cpu host that degenerates to the
    // serial pass itself (ratio 1, gate trivially green).
    const SweepResult *artifact = &serial;
    int artifact_jobs = 1;
    for (const SweepResult &sw : scaled) {
        if (sw.jobs <= static_cast<int>(host_cpus)) {
            artifact = &sw;
            artifact_jobs = sw.jobs;
        }
    }

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f)
        fatal("cannot open ", out_path, " for writing");
    std::fprintf(f, "{\n  \"bench\": \"perf_smoke\",\n  \"basket\": [");
    for (std::size_t i = 0; i < std::size(kBasket); ++i)
        std::fprintf(f, "%s\"%s\"", i ? ", " : "", kBasket[i]);
    std::fprintf(f, "],\n  \"configs\": [");
    for (std::size_t i = 0; i < std::size(kConfigs); ++i)
        std::fprintf(f, "%s\"%s\"", i ? ", " : "", kConfigs[i].name);
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"host_cpus\": %u,\n", host_cpus);
    std::fprintf(f, "  \"artifact_pass_jobs\": %d,\n", artifact_jobs);
    std::fprintf(f, "  \"compile_wall_seconds\": %.6f,\n",
                 compile_seconds);
    std::fprintf(
        f,
        "  \"sweep\": {\"points\": %zu, \"serial_wall_seconds\": %.6f, "
        "\"parallel_wall_seconds\": %.6f, \"parallel_jobs\": %d, "
        "\"harness_speedup\": %.3f, "
        "\"attr_serial_wall_seconds\": %.6f, "
        "\"stats_identical\": %s},\n",
        serial.points.size(), serial.wallSeconds, parallel.wallSeconds,
        parallel.jobs, speedupOf(parallel), attr_serial.wallSeconds,
        identical ? "true" : "false");

    // The scaling curve: wall seconds and speedup per job count.
    std::fprintf(f, "  \"scaling\": [\n");
    std::fprintf(f,
                 "    {\"jobs\": 1, \"wall_seconds\": %.6f, "
                 "\"speedup\": 1.000},\n",
                 serial.wallSeconds);
    for (std::size_t i = 0; i < scaled.size(); ++i) {
        std::fprintf(f,
                     "    {\"jobs\": %d, \"wall_seconds\": %.6f, "
                     "\"speedup\": %.3f}%s\n",
                     scaled[i].jobs, scaled[i].wallSeconds,
                     speedupOf(scaled[i]),
                     i + 1 < scaled.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");

    // Per-workload aggregates over the config sweep (serial pass).
    std::fprintf(f, "  \"workloads\": {\n");
    for (std::size_t w = 0; w < std::size(kBasket); ++w) {
        double seconds = 0.0;
        std::uint64_t fabric = 0, firings = 0;
        for (std::size_t c = 0; c < std::size(kConfigs); ++c) {
            const PointResult &p =
                serial.points[w * std::size(kConfigs) + c];
            seconds += p.wallSeconds;
            fabric += static_cast<std::uint64_t>(p.run.fabricCycles);
            firings += p.run.firings;
        }
        std::fprintf(
            f,
            "    \"%s\": {\"seconds\": %.6f, "
            "\"firings_per_sec\": %.1f, \"fabric_cycles\": %llu}%s\n",
            kBasket[w], seconds,
            seconds > 0.0 ? static_cast<double>(firings) / seconds : 0.0,
            static_cast<unsigned long long>(fabric),
            w + 1 < std::size(kBasket) ? "," : "");
    }
    std::fprintf(f, "  },\n");

    std::fprintf(f, "  \"points\": [\n");
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
        const PointResult &p = serial.points[i];
        double per_sec =
            p.wallSeconds > 0.0
                ? static_cast<double>(p.run.fabricCycles) / p.wallSeconds
                : 0.0;
        std::fprintf(
            f,
            "    {\"label\": \"%s\", \"wall_seconds\": %.6f, "
            "\"parallel_wall_seconds\": %.6f, \"fabric_cycles\": %llu, "
            "\"firings\": %llu, \"fabric_cycles_per_sec\": %.1f}%s\n",
            p.label.c_str(), p.wallSeconds,
            artifact->points[i].wallSeconds,
            static_cast<unsigned long long>(p.run.fabricCycles),
            static_cast<unsigned long long>(p.run.firings), per_sec,
            i + 1 < serial.points.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    // Keys unique to this object sit BEFORE "total": the guard's
    // baseline parser takes the LAST occurrence of shared keys like
    // firings_per_sec, which must stay the total object's.
    std::fprintf(
        f,
        "  \"analyzer\": {\"points\": %zu, \"wall_seconds\": %.6f, "
        "\"analyzer_points_per_sec\": %.1f, "
        "\"predicted_system_cycles_sum\": %.1f},\n",
        rspecs.size(), analyzer_seconds, analyzer_points_per_sec,
        analyzer_checksum);
    std::fprintf(
        f,
        "  \"placer\": {\"workloads\": %zu, \"wall_seconds\": %.6f, "
        "\"placer_points_per_sec\": %.1f, "
        "\"placer_single_cost\": %.3f},\n",
        compiled.size(), placer_seconds, placer_points_per_sec,
        placer_single_cost);
    std::fprintf(
        f,
        "  \"router\": {\"workloads\": %zu, \"wall_seconds\": %.6f, "
        "\"router_points_per_sec\": %.1f, \"router_iterations\": %d},\n",
        compiled.size(), router_seconds, router_points_per_sec,
        router_iterations);
    std::fprintf(
        f,
        "  \"total\": {\"serial_wall_seconds\": %.6f, "
        "\"attr_serial_wall_seconds\": %.6f, "
        "\"fabric_cycles_per_sec\": %.1f, \"firings_per_sec\": %.1f}\n",
        serial.wallSeconds, attr_serial.wallSeconds,
        serial.wallSeconds > 0.0
            ? static_cast<double>(total_fabric) / serial.wallSeconds
            : 0.0,
        total_firings_per_sec);
    std::fprintf(f, "}\n");
    std::fclose(f);

    std::printf("perf_smoke: %zu points, serial %.3fs; scaling:",
                serial.points.size(), serial.wallSeconds);
    for (const SweepResult &sw : scaled)
        std::printf(" jobs=%d %.3fs (%.2fx)", sw.jobs, sw.wallSeconds,
                    speedupOf(sw));
    std::printf("; attribution-on serial %.3fs, stats identical: %s\n",
                attr_serial.wallSeconds, identical ? "yes" : "NO");
    std::printf("analyzer: %zu points in %.4fs (%.0f points/s)\n",
                rspecs.size(), analyzer_seconds,
                analyzer_points_per_sec);
    std::printf("placer: %zu anneals in %.4fs (%.1f points/s); basket "
                "cost %.1f\n",
                compiled.size(), placer_seconds, placer_points_per_sec,
                placer_single_cost);
    std::printf("router: %zu routes in %.4fs (%.1f points/s), %d "
                "iterations\n",
                compiled.size(), router_seconds, router_points_per_sec,
                router_iterations);
    std::printf("wrote %s\n", out_path.c_str());
    if (!identical)
        return 1;

    if (!guard_path.empty()) {
        std::string baseline_text;
        if (!readBaselineText(guard_path, baseline_text)) {
            warn("perf guard: cannot read baseline ", guard_path);
            return 1;
        }
        // Throughput gates. The analyzer must stay fast enough that
        // pruning a sweep is always cheaper than simulating it. The
        // analyzer, placer and router rows are min-of-3 walls on both
        // sides, so 1.5x slack covers host noise without hiding a
        // real slowdown.
        const ThroughputGate gates[] = {
            {"firings_per_sec", nullptr, "firings/s", "sweep", 1.25,
             total_firings_per_sec},
            {"analyzer_points_per_sec", "analyzer", "points/s",
             "static analyzer", 1.5, analyzer_points_per_sec},
            {"placer_points_per_sec", "placer", "points/s",
             "annealing placer", 1.5, placer_points_per_sec},
            {"router_points_per_sec", "router", "points/s", "router",
             1.5, router_points_per_sec},
        };
        for (const ThroughputGate &gate : gates) {
            if (!passesGate(gate, baseline_text, guard_path))
                return 1;
        }

        // Per-point timing-artifact gate: store acquisition (mmap +
        // prefault) happens outside the timed span, so a point's
        // parallel wall time can exceed its serial wall time only
        // through scheduler preemption — never by the 15x+ that the
        // in-span acquire storm once produced. The comparison pass is
        // the artifact pass chosen above (largest jobs the host can
        // physically run in parallel): with jobs > cpus, time-slicing
        // alone inflates a point by the oversubscription factor, which
        // is the measurement environment, not the harness. On a
        // single-cpu host the pass degenerates to serial-vs-serial and
        // the gate is trivially green — same policy as the
        // harness_speedup gate below. Sub-millisecond points are
        // skipped: one preemption straddle multiplies a
        // microsecond-scale point arbitrarily without any harness
        // defect to find.
        double worst_ratio = 0.0;
        const char *worst_label = "";
        for (std::size_t i = 0; i < serial.points.size(); ++i) {
            double s = serial.points[i].wallSeconds;
            double p = artifact->points[i].wallSeconds;
            if (s < 1e-3)
                continue;
            double point_ratio = p / s;
            if (point_ratio > worst_ratio) {
                worst_ratio = point_ratio;
                worst_label = serial.points[i].label.c_str();
            }
        }
        if (artifact_jobs < 2)
            std::printf("perf guard: host has %u cpu(s); per-point "
                        "gate compares the serial pass to itself\n",
                        host_cpus);
        std::printf("perf guard: worst per-point parallel/serial "
                    "%.2fx at %s across jobs=%d (limit 3.00x)\n",
                    worst_ratio, worst_label, artifact_jobs);
        if (worst_ratio > 3.0) {
            warn("perf guard: per-point timing artifact: ", worst_label,
                 " measured ", worst_ratio, "x its serial wall at jobs=",
                 artifact_jobs, " with identical stats (limit 3x; set "
                 "NUPEA_PERF_GUARD_SKIP=1 on incomparable machines)");
            return 1;
        }

        // Parallel-scaling gate: the fixed scheduler must beat serial
        // by 1.5x at every measured jobs >= 4 — but only where the
        // host can physically provide the parallelism.
        if (host_cpus >= 4) {
            for (const SweepResult &sw : scaled) {
                if (sw.jobs < 4)
                    continue;
                double speedup = speedupOf(sw);
                std::printf("perf guard: harness_speedup %.2fx at "
                            "jobs=%d (floor 1.50x)\n",
                            speedup, sw.jobs);
                if (speedup < 1.5) {
                    warn("perf guard: parallel sweep regression: ",
                         speedup, "x speedup at jobs=", sw.jobs,
                         " (floor 1.5x; set NUPEA_PERF_GUARD_SKIP=1 "
                         "on incomparable machines)");
                    return 1;
                }
            }
        } else {
            std::printf("perf guard: host has %u cpu(s); skipping the "
                        "jobs>=4 harness_speedup gate\n",
                        host_cpus);
        }
    }
    return 0;
}
