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
 *
 * With --pnr-chains K (K > 1) an extra section compares the
 * portfolio placer against the single-seed placer on the effcc
 * basket: per-workload placement cost, per-chain anneal stats, and
 * the compile wall-clock ratio. The figure table itself always uses
 * the single-seed placer so its numbers are comparable across runs.
 */

#include <chrono>
#include <cstdio>

#include "bench/sweep_runner.h"
#include "compiler/report.h"

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
            // Pin the single-seed placer: the figure table must be
            // comparable across runs regardless of --pnr-chains (the
            // portfolio section below uses the CLI value).
            copts.pnrChains = 1;
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

    // Portfolio section: --pnr-chains K compiles the effcc basket
    // twice — single-seed and K-chain portfolio — and compares
    // placement cost and compile wall-clock. The chosen placements
    // are identical for any --jobs; only wall-clock varies.
    if (runner.options().pnrChains > 1) {
        int chains = runner.options().pnrChains;
        auto timedCompile = [&](int pin_chains) {
            std::vector<CompileSpec> pspecs;
            for (const auto &name : workloadNames()) {
                CompileOptions copts;
                copts.mode = PlaceMode::CriticalityAware;
                // 0 inherits the runner's --pnr-chains; an explicit
                // 1 pins the single-seed placer.
                copts.pnrChains = pin_chains;
                pspecs.push_back({name, topo, copts});
            }
            auto start = std::chrono::steady_clock::now();
            std::vector<CompiledWorkload> out =
                compileAll(runner, pspecs);
            double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
            return std::make_pair(std::move(out), wall);
        };

        auto [single, single_wall] = timedCompile(1);
        auto [portfolio, portfolio_wall] = timedCompile(0);

        std::printf("\nPortfolio placer: %d chains vs single seed, "
                    "effcc placement cost (lower = better)\n\n",
                    chains);
        printRow("app", {"single", "portfolio", "gain%"});
        double sum_single = 0.0, sum_portfolio = 0.0;
        for (std::size_t i = 0; i < workloadNames().size(); ++i) {
            double s = single[i].pnr.placerStats.winnerCost;
            double p = portfolio[i].pnr.placerStats.winnerCost;
            sum_single += s;
            sum_portfolio += p;
            printRow(workloadNames()[i],
                     {fmt(s), fmt(p),
                      fmt(s > 0.0 ? (s - p) / s * 100.0 : 0.0)});
        }
        std::printf("\n");
        printRow("basket sum",
                 {fmt(sum_single), fmt(sum_portfolio),
                  fmt(sum_single > 0.0
                          ? (sum_single - sum_portfolio) / sum_single *
                                100.0
                          : 0.0)});
        std::printf("\n[portfolio] basket cost %s single seed; "
                    "compile wall %.2fs vs %.2fs single (%.2fx)\n",
                    sum_portfolio <= sum_single ? "<=" : "ABOVE",
                    portfolio_wall, single_wall,
                    single_wall > 0.0 ? portfolio_wall / single_wall
                                      : 0.0);
        for (std::size_t i = 0; i < workloadNames().size(); ++i) {
            std::printf("\n%s:\n%s",
                        workloadNames()[i].c_str(),
                        portfolioSummary(portfolio[i].pnr.placerStats)
                            .c_str());
        }
    }
    return unverified == 0 ? 0 : 1;
}
