/**
 * @file
 * Reproduces Fig. 12: speedup on Monaco attained by the NUPEA-aware
 * PnR heuristics — Only-Domain-Aware and effcc (domain + criticality
 * aware) over Domain-Unaware placement. The paper reports avg 16%
 * for domain awareness alone and avg 25% for the full effcc
 * heuristic.
 *
 * Each (workload, PnR mode) compiles exactly once; compilations and
 * sweep points run concurrently (--jobs N / NUPEA_BENCH_JOBS) with
 * results identical for any job count. Exits 1 when any simulated
 * point misses its host reference.
 */

#include <cstdio>

#include "bench/sweep_runner.h"

int
main(int argc, char **argv)
{
    using namespace nupea;
    using namespace nupea::bench;

    SweepRunner runner(parseSweepArgs(argc, argv));
    Topology topo = Topology::makeMonaco(12, 12);

    const PlaceMode kModes[] = {PlaceMode::DomainUnaware,
                                PlaceMode::DomainAware,
                                PlaceMode::CriticalityAware};

    // One compilation per (workload, mode), each exactly once.
    std::vector<CompileSpec> cspecs;
    for (const auto &name : workloadNames()) {
        for (PlaceMode mode : kModes) {
            CompileOptions copts;
            copts.mode = mode;
            cspecs.push_back({name, topo, copts});
        }
    }
    std::vector<CompiledWorkload> compiled = compileAll(runner, cspecs);

    std::vector<RunSpec> rspecs;
    for (std::size_t i = 0; i < compiled.size(); ++i) {
        rspecs.push_back(
            {&compiled[i], primaryConfig(MemModel::Monaco, 0),
             formatMessage(cspecs[i].name, "/",
                           placeModeName(cspecs[i].options.mode))});
    }
    SweepResult sweep = runSweep(runner, rspecs);

    std::printf("Fig. 12: speedup over Domain-Unaware PnR on Monaco "
                "(higher = better)\n\n");
    printRow("app", {"DomUnaware", "OnlyDomain", "effcc"});

    std::vector<double> domain_s, effcc_s;
    for (std::size_t i = 0; i < workloadNames().size(); ++i) {
        const std::string &name = workloadNames()[i];
        double cycles[3];
        for (std::size_t m = 0; m < 3; ++m) {
            cycles[m] = static_cast<double>(
                sweep.points[3 * i + m].run.systemCycles);
        }
        double unaware = cycles[0], domain = cycles[1],
               effcc = cycles[2];

        domain_s.push_back(unaware / domain);
        effcc_s.push_back(unaware / effcc);
        printRow(name, {fmt(1.0), fmt(unaware / domain),
                        fmt(unaware / effcc)});
    }

    std::printf("\n");
    printRow("geomean",
             {fmt(1.0), fmt(geomean(domain_s)), fmt(geomean(effcc_s))});
    std::printf("\npaper: Only-Domain-Aware ~1.16x, effcc ~1.25x over "
                "Domain-Unaware\n");
    const std::size_t unverified = printSweepFooter(sweep);
    return unverified == 0 ? 0 : 1;
}
