/**
 * @file
 * The repository benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out PATH]
 *
 * --trace 0 sets the workload up kSetups - 1 times, then for S seconds sets
 * it up once more and times one whole pass, and prints the end-to-end
 * metrics (medians over set-ups and passes).
 * --trace 1 alternates untraced and traced iterations (set-up plus
 * pass) for S seconds and prints per-layer metrics from the spans;
 * the spans are written to --trace-out at exit. Both modes check
 * every compilation and point, check that repeated work reproduces
 * the first result exactly, and end with one JSON line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * See README.md in this directory for the metric definitions.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/task_pool.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{
namespace
{

using nupea::BackingStore;
using nupea::Cycle;
using nupea::MachineConfig;
using nupea::MemSysConfig;
using nupea::StoreBank;
using nupea::TaskPool;

/** Span item of point k of compilation i:
 *  kPointItemBase + kPointItems * i + k. */
constexpr std::int64_t kPointItemBase = 1'000'000;
constexpr std::int64_t kPointItems = 1000;

/** An untraced run sets up kSetups - 1 times, then once before every
 *  pass; setup_s is the median over all of them. */
constexpr int kSetups = 7;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
};

/** What one batch of compiles, or one pass, did. The compile, point
 *  and Machine times are thread CPU time summed over tasks. */
struct Stats
{
    std::int64_t wallNs = 0;
    std::int64_t compileNs = 0;
    std::int64_t pointNs = 0;
    std::int64_t machineNs = 0;
    std::uint64_t compiles = 0;
    std::uint64_t points = 0;
    std::uint64_t failed = 0;
    std::uint64_t firings = 0;
    std::uint64_t scored = 0;
    double logCycles = 0.0;
    double errPct = 0.0;
    CompileCounts counts; ///< summed; complete only when traced
    std::uint64_t kept = 0;
    double parallelismSum = 0.0;
    double dividerSum = 0.0;
    double costSum = 0.0;
    double wireSum = 0.0;
    std::uint64_t keptRouteIterations = 0;
    std::uint64_t keptPlacerMoves = 0;
    std::vector<std::uint64_t> fingerprints; ///< per compilation
    std::vector<Cycle> cycles;               ///< per point
    std::vector<std::string> errors;

    void
    noteError(const std::string &e)
    {
        ++failed;
        if (errors.size() < 5)
            errors.push_back(e);
    }

    void
    addCompile(const Compiled &c)
    {
        ++compiles;
        fingerprints.push_back(fingerprint(c));
        const CompileCounts &k = c.counts;
        counts.builds += k.builds;
        counts.attempts += k.attempts;
        counts.capacityRejects += k.capacityRejects;
        counts.routeCalls += k.routeCalls;
        counts.routeIterations += k.routeIterations;
        counts.failedRoutes += k.failedRoutes;
        counts.oneIterationRoutes += k.oneIterationRoutes;
        counts.failedRouteNs += k.failedRouteNs;
        counts.placerMoves += k.placerMoves;
        counts.placerAccepted += k.placerAccepted;
        if (!c.ok) {
            noteError(c.error);
            return;
        }
        ++kept;
        parallelismSum += c.parallelism;
        dividerSum += c.pnr.timing.clockDivider;
        costSum += c.pnr.placerStats.winnerCost;
        wireSum += c.pnr.route.totalWire;
        keptRouteIterations +=
            static_cast<std::uint64_t>(c.pnr.route.iterations);
        for (const auto &chain : c.pnr.placerStats.chains)
            keptPlacerMoves += chain.moves;
    }

    void
    addPoints(const std::vector<PointResult> &results)
    {
        for (const PointResult &r : results) {
            ++points;
            cycles.push_back(r.systemCycles);
            firings += r.firings;
            machineNs += r.machineNs;
            if (!r.ok) {
                noteError(r.error);
                continue;
            }
            logCycles += std::log(static_cast<double>(r.systemCycles));
            if (r.predictedCycles >= 0.0) {
                ++scored;
                double sim = static_cast<double>(r.systemCycles);
                errPct += 100.0 * std::fabs(r.predictedCycles - sim) / sim;
            }
        }
    }

    double
    cyclesGeomean() const
    {
        std::uint64_t ok = points - std::min(points, failed);
        return ok ? std::exp(logCycles / static_cast<double>(ok)) : 0.0;
    }
};

/** One set-up: every compile job, plus set-up compiles if any. */
struct State
{
    std::vector<CompileJob> jobs;
    std::vector<Compiled> compiled;
    Stats compileStats;
};

class Runner
{
  public:
    Runner(const WorkloadDef &def, std::uint64_t seed)
        : def_(def), seed_(seed),
          banks_(static_cast<std::size_t>(std::max(1, def.jobs))),
          pool_(def.jobs)
    {
    }

    int jobs() const { return pool_.jobs(); }

    State
    setup(Tracer *tracer)
    {
        ScopedSpan span(tracer, Layer::Setup);
        State st;
        st.jobs = makeJobs(def_, seed_, tracer);
        if (def_.compileInSetup) {
            for (TaskOut &t : batch(st, tracer, true, false)) {
                st.compileStats.compileNs += t.compileNs;
                st.compileStats.addCompile(t.compiled);
                st.compiled.push_back(std::move(t.compiled));
            }
        }
        return st;
    }

    Stats
    pass(const State &st, Tracer *tracer)
    {
        Stats out;
        std::int64_t t0 = nowNs();
        {
            ScopedSpan span(tracer, Layer::Pass);
            bool compileHere = !def_.compileInSetup;
            for (const TaskOut &t : batch(st, tracer, compileHere, true)) {
                if (compileHere)
                    out.addCompile(t.compiled);
                out.addPoints(t.points);
                out.compileNs += t.compileNs;
                out.pointNs += t.pointNs;
            }
        }
        out.wallNs = nowNs() - t0;
        return out;
    }

  private:
    /** What one task (one compilation) of a batch produced. */
    struct TaskOut
    {
        Compiled compiled; ///< set when the task compiled
        std::vector<PointResult> points;
        std::int64_t compileNs = 0;
        std::int64_t pointNs = 0;
    };

    /**
     * One pool task per compilation: compile it (unless set-up did)
     * and, when `simulate`, run its points right after, so compile and
     * simulation time are both sampled across the whole pass.
     */
    std::vector<TaskOut>
    batch(const State &st, Tracer *tracer, bool compileHere, bool simulate)
    {
        std::vector<TaskOut> out(st.jobs.size());
        ScopedSpan span(tracer, Layer::PoolBatch);
        std::vector<std::function<void()>> tasks;
        for (std::size_t i = 0; i < st.jobs.size(); ++i) {
            tasks.push_back([&, i, parent = span.id()] {
                auto item = static_cast<std::int64_t>(i);
                ScopedSpan task(tracer, Layer::PoolTask, item, parent);
                TaskOut &t = out[i];
                const CompileJob &job = st.jobs[i];
                if (compileHere) {
                    std::int64_t t0 = threadCpuNs();
                    t.compiled = compile(job, tracer, item);
                    t.compileNs = threadCpuNs() - t0;
                }
                const Compiled &c = compileHere ? t.compiled : st.compiled[i];
                if (!simulate || !c.ok)
                    return;
                std::int64_t t1 = threadCpuNs();
                int w = std::max(0, TaskPool::currentWorker());
                BackingStore &store =
                    banks_[static_cast<std::size_t>(w)].acquire(
                        0, MemSysConfig{}.memBytes, job.image.allocated());
                t.points = runPoints(job, c, pointConfigs(def_, c), store,
                                     tracer,
                                     kPointItemBase + kPointItems * item);
                t.pointNs = threadCpuNs() - t1;
            });
        }
        pool_.runAll(std::move(tasks));
        return out;
    }

    const WorkloadDef &def_;
    std::uint64_t seed_;
    /** One recycled store per pool worker, indexed by currentWorker(). */
    std::vector<StoreBank> banks_;
    TaskPool pool_; ///< after banks_: its workers use them
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Ordered metric list, printed as text and as the final JSON. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        rows_.push_back({name, value, unit});
    }

    void
    printText() const
    {
        for (const Row &r : rows_)
            std::printf("metric %-28s %.17g %s\n", r.name.c_str(), r.value,
                        r.unit.c_str());
    }

    void
    printJson(bool correct, std::uint64_t attempted,
              std::uint64_t failed) const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const Row &r = rows_[i];
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", r.name.c_str(),
                        std::isfinite(r.value) ? r.value : 0.0,
                        r.unit.c_str());
        }
        std::printf("}}\n");
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows_;
};

/** Checks repeated work against the first result. */
class Consistency
{
  public:
    void
    check(const char *what, const std::vector<std::uint64_t> &fp,
          const std::vector<Cycle> &cycles)
    {
        if (!have_) {
            fp_ = fp;
            cycles_ = cycles;
            have_ = true;
            return;
        }
        if (fp != fp_) {
            ok_ = false;
            std::printf("MISMATCH: %s compilations differ from the first "
                        "run's\n", what);
        }
        if (cycles != cycles_) {
            ok_ = false;
            std::printf("MISMATCH: %s simulated cycles differ from the "
                        "first run's\n", what);
        }
    }

    bool ok() const { return ok_; }

  private:
    bool have_ = false;
    bool ok_ = true;
    std::vector<std::uint64_t> fp_;
    std::vector<Cycle> cycles_;
};

void
printWork(const char *label, const Stats *setup, const Stats &pass)
{
    // The compilations are set-up's when the workload compiles there.
    const Stats &compile = setup ? *setup : pass;
    std::printf("work %s: compilations=%llu kept=%llu points=%llu "
                "failed=%llu firings=%llu sim_cycles_sum=%llu "
                "sim_cycles_geomean=%.6f kept_router_iterations=%llu "
                "kept_placer_moves=%llu\n",
                label,
                static_cast<unsigned long long>(compile.compiles),
                static_cast<unsigned long long>(compile.kept),
                static_cast<unsigned long long>(pass.points),
                static_cast<unsigned long long>(
                    (setup ? setup->failed : 0) + pass.failed),
                static_cast<unsigned long long>(pass.firings),
                static_cast<unsigned long long>([&] {
                    std::uint64_t s = 0;
                    for (Cycle c : pass.cycles)
                        s += c;
                    return s;
                }()),
                pass.cyclesGeomean(),
                static_cast<unsigned long long>(compile.keptRouteIterations),
                static_cast<unsigned long long>(compile.keptPlacerMoves));
    const CompileCounts &k = compile.counts;
    if (k.attempts > 0) {
        std::printf("work %s (traced): graph_builds=%llu pnr_attempts=%llu "
                    "capacity_rejects=%llu route_calls=%llu "
                    "router_iterations=%llu failed_routes=%llu "
                    "placer_moves=%llu\n",
                    label, static_cast<unsigned long long>(k.builds),
                    static_cast<unsigned long long>(k.attempts),
                    static_cast<unsigned long long>(k.capacityRejects),
                    static_cast<unsigned long long>(k.routeCalls),
                    static_cast<unsigned long long>(k.routeIterations),
                    static_cast<unsigned long long>(k.failedRoutes),
                    static_cast<unsigned long long>(k.placerMoves));
    }
    if (setup) {
        for (const std::string &e : setup->errors)
            std::printf("FAILURE: %s\n", e.c_str());
    }
    for (const std::string &e : pass.errors)
        std::printf("FAILURE: %s\n", e.c_str());
}

/** Set-up's compile stats, or null when the passes compile. */
const Stats *
setupCompiles(const WorkloadDef &def, const State &st)
{
    return def.compileInSetup ? &st.compileStats : nullptr;
}

int
runEndToEnd(const WorkloadDef &def, const Options &opt)
{
    Runner runner(def, opt.seed);
    Consistency setupCheck, passCheck;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> setupS, setupCompileRate;
    State st;
    auto setUp = [&] {
        st = State{}; // one set-up alive at a time, for peak_rss_mb
        std::int64_t t0 = nowNs();
        st = runner.setup(nullptr);
        setupS.push_back(static_cast<double>(nowNs() - t0) / 1e9);
        if (def.compileInSetup) {
            setupCompileRate.push_back(
                ratio(static_cast<double>(st.compileStats.compiles),
                      static_cast<double>(st.compileStats.compileNs) / 1e9));
            setupCheck.check("set-up", st.compileStats.fingerprints, {});
            attempted += st.compileStats.compiles;
            failed += st.compileStats.failed;
        }
    };
    // A few set-ups up front, then a fresh one before every pass, so
    // set-up (and sim_sweep's set-up compiles) is sampled across the
    // whole run like the passes are.
    for (int k = 1; k < kSetups; ++k)
        setUp();

    std::vector<double> wall, compileRate, pointRate, firingRate;
    Stats last;
    std::int64_t start = nowNs();
    do {
        setUp();
        last = runner.pass(st, nullptr);
        passCheck.check("pass", last.fingerprints, last.cycles);
        attempted += last.compiles + last.points;
        failed += last.failed;
        wall.push_back(static_cast<double>(last.wallNs) / 1e9);
        if (!def.compileInSetup)
            compileRate.push_back(
                ratio(static_cast<double>(last.compiles),
                      static_cast<double>(last.compileNs) / 1e9));
        pointRate.push_back(ratio(static_cast<double>(last.points),
                                  static_cast<double>(last.pointNs) / 1e9));
        firingRate.push_back(
            ratio(static_cast<double>(last.firings),
                  static_cast<double>(last.machineNs) / 1e9));
    } while (static_cast<double>(nowNs() - start) / 1e9 < opt.seconds);

    printWork(std::string(def.name).c_str(), setupCompiles(def, st), last);
    std::printf("passes=%zu setups=%zu fail_frac=%.17g\npass_wall_s:",
                wall.size(), setupS.size(),
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)));
    for (double w : wall)
        std::printf(" %.4f", w);
    std::printf("\n");

    Metrics m;
    m.add("setup_s", median(setupS), "s");
    m.add("wall_s", median(wall), "s");
    m.add("compiles_per_s",
          median(def.compileInSetup ? setupCompileRate : compileRate),
          "1/s");
    m.add("points_per_s", median(pointRate), "1/s");
    m.add("sim_firings_per_s", median(firingRate), "firings/s");
    m.add("peak_rss_mb", peakRssMiB(), "MiB");
    m.add("sim_cycles_geomean", last.cyclesGeomean(), "cycles");
    m.add("model_err_pct",
          ratio(last.errPct, static_cast<double>(last.scored)), "%");
    m.printText();
    bool correct = setupCheck.ok() && passCheck.ok() && failed == 0;
    m.printJson(correct, attempted, failed);
    return 0;
}

/** One traced iteration's layer numbers. */
struct TracedIteration
{
    LayerSummary layers;
    std::int64_t wallNs = 0;
    Stats setup; ///< set-up compiles (empty unless compileInSetup)
    Stats pass;
};

int
runTraced(const WorkloadDef &def, const Options &opt)
{
    Runner runner(def, opt.seed);
    Tracer tracer;
    Consistency consistency;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<double> untracedWall, tracedWall;
    std::vector<TracedIteration> traced;

    auto iteration = [&](Tracer *tr) {
        std::size_t begin = tracer.size();
        std::int64_t t0 = nowNs();
        State st;
        Stats pass;
        {
            ScopedSpan root(tr, Layer::Iteration);
            st = runner.setup(tr);
            pass = runner.pass(st, tr);
        }
        std::int64_t wall = nowNs() - t0;
        const Stats *setup = setupCompiles(def, st);
        const Stats &compile = setup ? *setup : pass;
        consistency.check(tr ? "traced" : "untraced", compile.fingerprints,
                          pass.cycles);
        attempted += pass.points + compile.compiles;
        failed += pass.failed + (setup ? setup->failed : 0);
        if (!tr) {
            untracedWall.push_back(static_cast<double>(wall) / 1e9);
            return;
        }
        tracedWall.push_back(static_cast<double>(wall) / 1e9);
        TracedIteration it;
        it.layers = summarize(tracer.slice(begin, tracer.size()), begin);
        it.wallNs = wall;
        it.setup = st.compileStats;
        it.pass = pass;
        traced.push_back(std::move(it));
    };

    std::int64_t start = nowNs();
    iteration(nullptr);
    do {
        iteration(&tracer);
        if (static_cast<double>(nowNs() - start) / 1e9 < opt.seconds)
            iteration(nullptr);
    } while (static_cast<double>(nowNs() - start) / 1e9 < opt.seconds);

    const TracedIteration &lastIt = traced.back();
    const Stats *lastSetup = def.compileInSetup ? &lastIt.setup : nullptr;
    printWork(std::string(def.name).c_str(), lastSetup, lastIt.pass);
    std::printf("iterations: untraced=%zu traced=%zu fail_frac=%.17g\n",
                untracedWall.size(), tracedWall.size(),
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)));

    // Per-iteration medians of a layer's self (or total) seconds.
    auto layerS = [&](Layer l, bool self = true) {
        std::vector<double> v;
        for (const TracedIteration &it : traced) {
            auto i = static_cast<std::size_t>(l);
            v.push_back(static_cast<double>(self ? it.layers.selfNs[i]
                                                 : it.layers.totalNs[i]) /
                        1e9);
        }
        return median(v);
    };
    auto count = [&](Layer l) {
        return static_cast<double>(
            lastIt.layers.count[static_cast<std::size_t>(l)]);
    };
    std::vector<double> covered, busy;
    for (const TracedIteration &it : traced) {
        std::int64_t layerSelf = 0;
        for (std::size_t l = 0; l < kNumLayers; ++l) {
            switch (static_cast<Layer>(l)) {
            case Layer::Iteration:
            case Layer::Setup:
            case Layer::Pass:
            case Layer::PoolBatch:
            case Layer::PoolTask:
            case Layer::Point:
                break;
            default:
                layerSelf += it.layers.selfNs[l];
            }
        }
        covered.push_back(100.0 * ratio(static_cast<double>(layerSelf),
                                        static_cast<double>(it.wallNs)));
        auto task = static_cast<std::size_t>(Layer::PoolTask);
        auto batch = static_cast<std::size_t>(Layer::PoolBatch);
        busy.push_back(ratio(
            static_cast<double>(it.layers.totalNs[task]),
            static_cast<double>(runner.jobs()) *
                static_cast<double>(it.layers.totalNs[batch])));
    }

    const Stats &c = lastSetup ? *lastSetup : lastIt.pass;
    const Stats &p = lastIt.pass;
    const CompileCounts &k = c.counts;
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    auto kept = static_cast<double>(c.kept);

    Metrics m;
    m.add("routing.s", layerS(Layer::Routing), "s");
    m.add("routing.calls", d(k.routeCalls), "count");
    m.add("routing.iterations", d(k.routeIterations), "count");
    m.add("routing.failed_calls", d(k.failedRoutes), "count");
    m.add("routing.failed_frac",
          ratio(static_cast<double>(k.failedRouteNs) / 1e9,
                layerS(Layer::Routing, false)),
          "ratio");
    m.add("routing.one_iter_frac",
          ratio(d(k.oneIterationRoutes), d(k.routeCalls - k.failedRoutes)),
          "ratio");
    m.add("placement.s", layerS(Layer::Placement), "s");
    m.add("placement.calls", count(Layer::Placement), "count");
    m.add("placement.moves", d(k.placerMoves), "count");
    m.add("placement.accept_frac",
          ratio(d(k.placerAccepted), d(k.placerMoves)), "ratio");
    m.add("criticality.s", layerS(Layer::Criticality), "s");
    m.add("timing.s", layerS(Layer::Timing), "s");
    m.add("workloads.build_s", layerS(Layer::Build), "s");
    m.add("workloads.init_s", layerS(Layer::Init), "s");
    m.add("workloads.verify_s", layerS(Layer::WlVerify), "s");
    m.add("verify.s", layerS(Layer::Verify), "s");
    m.add("pnr.s", layerS(Layer::Pnr), "s");
    m.add("pnr.attempts", d(k.attempts), "count");
    m.add("pnr.capacity_rejects", d(k.capacityRejects), "count");
    m.add("pnr.kept_frac", ratio(kept, d(k.attempts)), "ratio");
    m.add("sim.run_s", layerS(Layer::SimRun), "s");
    m.add("sim.construct_s", layerS(Layer::SimConstruct), "s");
    m.add("sim.runs", count(Layer::SimRun), "count");
    m.add("sim.firings", d(p.firings), "count");
    m.add("sim.ns_per_firing",
          ratio(layerS(Layer::SimRun, false) * 1e9, d(p.firings)), "ns");
    m.add("memory.reset_s", layerS(Layer::Reset), "s");
    m.add("analysis.profile_s", layerS(Layer::Profile), "s");
    m.add("analysis.predict_s", layerS(Layer::Predict), "s");
    m.add("analysis.predict_calls", count(Layer::Predict), "count");
    m.add("pool.busy_frac", median(busy), "ratio");
    m.add("pool.tasks", count(Layer::PoolTask), "count");
    m.add("pnr.parallelism_mean", ratio(c.parallelismSum, kept), "degree");
    m.add("timing.divider_mean", ratio(c.dividerSum, kept), "divider");
    m.add("placement.cost_sum", c.costSum, "cost");
    m.add("routing.wire_sum", c.wireSum, "wire");
    m.add("trace.overhead_pct",
          100.0 * (ratio(median(tracedWall), median(untracedWall)) - 1.0),
          "%");
    m.add("trace.covered_pct", median(covered), "%");
    m.printText();

    if (!opt.traceOut.empty() && !tracer.writeChromeTrace(opt.traceOut))
        std::printf("warning: could not write %s\n", opt.traceOut.c_str());
    bool correct = consistency.ok() && failed == 0;
    m.printJson(correct, attempted, failed);
    return 0;
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n"
                 "workloads:",
                 msg);
    for (const WorkloadDef &def : workloadDefs())
        std::fprintf(stderr, " %.*s", static_cast<int>(def.name.size()),
                     def.name.data());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        std::string value = argv[++i];
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            opt.trace = value == "1";
        else if (arg == "--trace-out")
            opt.traceOut = value;
        else
            return usage(("unknown option " + arg).c_str());
    }
    const WorkloadDef *def = findWorkload(opt.workload);
    if (!def)
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    if (opt.seed == 0)
        return usage("--seed must be >= 1");

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "jobs=%d host_cpus=%u build_type=%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, def->jobs,
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE);
    return opt.trace ? runTraced(*def, opt) : runEndToEnd(*def, opt);
}
