#include "pipeline.h"

#include <cstring>
#include <optional>

#include "analysis/perf_model.h"
#include "analysis/profile.h"
#include "common/log.h"
#include "verify/verify.h"

namespace perfbench
{

using namespace nupea;

namespace
{

/** compileWithAutoParallelism's degree cap. */
constexpr int kMaxParallelism = 64;

/** placeAndRoute, one layer per span. */
PnrResult
tracedPlaceAndRoute(Graph &graph, const Topology &topo,
                    const PnrOptions &options, CompileCounts &counts,
                    Tracer *tracer, std::int64_t item)
{
    PnrResult result;
    ++counts.attempts;
    {
        ScopedSpan span(tracer, Layer::Criticality, item);
        result.crit = analyzeCriticality(graph);
    }
    for (FuClass fu : {FuClass::Arith, FuClass::Control, FuClass::Mem,
                       FuClass::XData}) {
        if (graph.countFu(fu) > topo.totalSlots(fu)) {
            ++counts.capacityRejects;
            result.failureReason = formatMessage(
                "graph needs ", graph.countFu(fu), " slots of FU class ",
                static_cast<int>(fu), "; fabric has ",
                topo.totalSlots(fu));
            return result;
        }
    }
    {
        ScopedSpan span(tracer, Layer::Placement, item);
        result.placement =
            placeGraph(graph, topo, options.place, &result.placerStats);
    }
    for (const PlacerChainStats &chain : result.placerStats.chains) {
        counts.placerMoves += chain.moves;
        counts.placerAccepted += chain.accepted;
    }
    std::int64_t t0 = nowNs();
    {
        ScopedSpan span(tracer, Layer::Routing, item);
        result.route =
            routeGraph(graph, topo, result.placement, options.route);
    }
    ++counts.routeCalls;
    counts.routeIterations +=
        static_cast<std::uint64_t>(result.route.iterations);
    if (!result.route.success) {
        ++counts.failedRoutes;
        counts.failedRouteNs += nowNs() - t0;
        result.failureReason =
            formatMessage("routing failed: ", result.route.overusedLinks,
                          " links oversubscribed after ",
                          result.route.iterations, " iterations");
        return result;
    }
    if (result.route.iterations == 1)
        ++counts.oneIterationRoutes;
    {
        ScopedSpan span(tracer, Layer::Timing, item);
        result.timing = analyzeTiming(result.route, options.timing);
    }
    result.success = true;
    return result;
}

Graph
tracedBuild(const Workload &workload, int parallelism,
            CompileCounts &counts, Tracer *tracer, std::int64_t item)
{
    ScopedSpan span(tracer, Layer::Build, item);
    ++counts.builds;
    return workload.build(parallelism);
}

/** The ramp or back-off, untraced: the library's own drivers. */
void
compileUntraced(const CompileJob &job, Compiled &out)
{
    const Workload &wl = *job.workload;
    if (job.preferred > 0) {
        for (int p = job.preferred; p >= 1; p /= 2) {
            Graph g = wl.build(p);
            PnrResult pnr = placeAndRoute(g, job.topo, job.options);
            if (pnr.success) {
                out.parallelism = p;
                out.graph = std::move(g);
                out.pnr = std::move(pnr);
                out.ok = true;
                return;
            }
        }
        out.error = wl.name() + " does not fit even at parallelism 1";
        return;
    }
    AutoParResult r = compileWithAutoParallelism(
        [&wl](int p) { return wl.build(p); }, job.topo, job.options,
        kMaxParallelism);
    out.parallelism = r.parallelism;
    out.graph = std::move(r.graph);
    out.pnr = std::move(r.pnr);
    out.ok = true;
}

/** The same ramp or back-off, one phase per span. */
void
compileTraced(const CompileJob &job, Compiled &out, Tracer *tracer,
              std::int64_t item)
{
    const Workload &wl = *job.workload;
    CompileCounts &counts = out.counts;
    auto keep = [&out](int p, Graph &g, PnrResult &pnr) {
        out.parallelism = p;
        out.graph = std::move(g);
        out.pnr = std::move(pnr);
        out.ok = true;
    };
    if (job.preferred > 0) {
        for (int p = job.preferred; p >= 1; p /= 2) {
            Graph g = tracedBuild(wl, p, counts, tracer, item);
            PnrResult pnr = tracedPlaceAndRoute(g, job.topo, job.options,
                                                counts, tracer, item);
            if (pnr.success) {
                keep(p, g, pnr);
                return;
            }
        }
        out.error = wl.name() + " does not fit even at parallelism 1";
        return;
    }
    for (int p = 1; p <= kMaxParallelism; p = p < 8 ? p + 1 : p + 4) {
        Graph g = tracedBuild(wl, p, counts, tracer, item);
        PnrResult pnr = tracedPlaceAndRoute(g, job.topo, job.options,
                                            counts, tracer, item);
        if (!pnr.success)
            break;
        keep(p, g, pnr);
    }
    if (!out.ok)
        out.error = "workload does not fit the fabric even at parallelism 1";
}

void
mix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

void
mixDouble(std::uint64_t &h, double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(h, bits);
}

} // namespace

Compiled
compile(const CompileJob &job, Tracer *tracer, std::int64_t item)
{
    Compiled out;
    ScopedSpan span(tracer, Layer::Pnr, item);
    try {
        if (tracer)
            compileTraced(job, out, tracer, item);
        else
            compileUntraced(job, out);
        if (!out.ok)
            return out;
        ScopedSpan vspan(tracer, Layer::Verify, item);
        DiagnosticReport report =
            verifyCompiled(out.graph, job.topo, out.pnr);
        if (report.hasErrors()) {
            out.ok = false;
            out.error = formatMessage(job.workload->name(), ": ",
                                      report.errorCount(),
                                      " static verification errors");
        }
    } catch (const FatalError &e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

std::uint64_t
fingerprint(const Compiled &c)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    mix(h, c.ok ? 1 : 0);
    mix(h, static_cast<std::uint64_t>(c.parallelism));
    mix(h, static_cast<std::uint64_t>(c.pnr.timing.clockDivider));
    mix(h, static_cast<std::uint64_t>(c.pnr.route.iterations));
    mixDouble(h, c.pnr.route.totalWire);
    mixDouble(h, c.pnr.route.maxNetDelay);
    mixDouble(h, c.pnr.placerStats.winnerCost);
    for (const Coord &pos : c.pnr.placement.pos) {
        mix(h, static_cast<std::uint64_t>(pos.row));
        mix(h, static_cast<std::uint64_t>(pos.col));
    }
    return h;
}

std::vector<PointResult>
runPoints(const CompileJob &job, const Compiled &compiled,
          const std::vector<MachineConfig> &configs, BackingStore &store,
          Tracer *tracer, std::int64_t firstItem)
{
    std::vector<PointResult> out(configs.size());
    const Workload &wl = *job.workload;

    ExecutionProfile profile;
    try {
        ScopedSpan span(tracer, Layer::Profile, firstItem);
        profile = profileGraph(compiled.graph, job.image,
                               MemSysConfig{}.memBytes);
    } catch (const FatalError &) {
        profile.clean = false;
    }

    for (std::size_t i = 0; i < configs.size(); ++i) {
        const MachineConfig &config = configs[i];
        PointResult &r = out[i];
        std::int64_t item = firstItem + static_cast<std::int64_t>(i);
        ScopedSpan span(tracer, Layer::Point, item);
        try {
            if (job.image.allocated() > store.size())
                fatal(wl.name(), ": image needs ", job.image.allocated(),
                      " bytes, store holds ", store.size());
            {
                ScopedSpan reset(tracer, Layer::Reset, item);
                store.resetTo(job.image);
            }
            std::int64_t t0 = threadCpuNs();
            std::optional<Machine> machine;
            {
                ScopedSpan ctor(tracer, Layer::SimConstruct, item);
                machine.emplace(compiled.graph, compiled.pnr.placement,
                                job.topo, config, store);
            }
            RunResult run;
            {
                ScopedSpan sim(tracer, Layer::SimRun, item);
                run = machine->run();
            }
            r.machineNs = threadCpuNs() - t0;
            r.systemCycles = run.systemCycles;
            r.firings = run.firings;
            if (!run.finished) {
                r.error = wl.name() + ": watchdog expired";
            } else if (!run.clean) {
                r.error = wl.name() + ": unclean termination: " +
                          run.problem;
            } else {
                ScopedSpan check(tracer, Layer::WlVerify, item);
                std::string why;
                if (wl.verify(store, &why))
                    r.ok = true;
                else
                    r.error = wl.name() + ": output mismatch: " + why;
            }
            if (profile.clean) {
                ScopedSpan predict(tracer, Layer::Predict, item);
                PerfModelConfig pc{config.mem,          config.memsys,
                                   config.energy,       config.clockDivider,
                                   config.maxOutstanding, config.fifoDepth};
                r.predictedCycles =
                    predictPerformance(compiled.graph,
                                       compiled.pnr.placement, job.topo,
                                       profile, pc)
                        .systemCycles;
            }
        } catch (const FatalError &e) {
            r.ok = false;
            r.error = e.what();
        }
    }
    return out;
}

} // namespace perfbench
