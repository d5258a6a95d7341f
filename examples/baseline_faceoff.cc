/**
 * @file
 * Baseline face-off: run one workload across every memory model the
 * paper evaluates (idealized UPEA, UPEA 1-4 cycles, NUMA-UPEA 1-4
 * cycles, Monaco/NUPEA) and print a latency-vs-runtime summary —
 * a miniature of Figs. 14 and 15 for a single application.
 *
 * Usage: baseline_faceoff [workload]   (default spmspm)
 */

#include <cstdio>
#include <cstdlib>

#include "api/nupea.h"

using namespace nupea;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "spmspm";
    auto wl = makeWorkload(name);
    BackingStore layout(MemSysConfig{}.memBytes);
    wl->init(layout);

    Topology topo = Topology::makeMonaco(12, 12);
    int preferred = wl->preferredParallelism() > 0
                        ? wl->preferredParallelism()
                        : 4;
    AutoParResult compiled = compileWithBackoff(
        [&](int p) { return wl->build(p); }, topo, preferred);
    const Graph &graph = compiled.graph;
    const PnrResult &pnr = compiled.pnr;
    if (!pnr.success) {
        std::printf("PnR failed: %s\n", pnr.failureReason.c_str());
        return 1;
    }
    std::printf("%s at parallelism %d on %s\n\n", name.c_str(),
                compiled.parallelism, topo.name().c_str());

    auto time_model = [&](MemModel model, int lat) {
        BackingStore store(MemSysConfig{}.memBytes);
        wl->init(store);
        MachineConfig cfg;
        cfg.mem.model = model;
        cfg.mem.upeaLatency = lat;
        cfg.clockDivider = 2;
        Machine machine(graph, pnr.placement, topo, cfg, store);
        RunResult r = machine.run();
        std::string why;
        if (!r.finished || !r.clean || !wl->verify(store, &why)) {
            std::fprintf(stderr, "run problem: %s%s\n",
                         r.problem.c_str(), why.c_str());
            std::exit(1);
        }
        return r;
    };

    RunResult monaco = time_model(MemModel::Monaco, 0);
    auto base = static_cast<double>(monaco.systemCycles);
    std::printf("%-14s %12s %12s %10s\n", "config", "sys-cycles",
                "vs Monaco", "avg-lat");

    auto show = [&](const char *label, const RunResult &r) {
        double lat = 0.0;
        auto it = r.stats.dists().find("fmnoc.latency_total");
        if (it != r.stats.dists().end())
            lat = it->second.mean();
        std::printf("%-14s %12llu %11.3fx %10.2f\n", label,
                    static_cast<unsigned long long>(r.systemCycles),
                    static_cast<double>(r.systemCycles) / base, lat);
    };

    show("ideal (UPEA0)", time_model(MemModel::Upea, 0));
    for (int n = 1; n <= 4; ++n) {
        RunResult r = time_model(MemModel::Upea, n);
        show(formatMessage("UPEA", n).c_str(), r);
    }
    for (int n = 1; n <= 4; ++n) {
        RunResult r = time_model(MemModel::NumaUpea, n);
        show(formatMessage("NUMA-UPEA", n).c_str(), r);
    }
    show("Monaco", monaco);
    return 0;
}
