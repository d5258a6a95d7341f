/**
 * @file
 * Every memory-model comparison over the 13-workload suite on Monaco
 * 12x12, from one compilation per workload and one sweep of 11
 * machine configs per workload:
 *
 *  - Fig. 6c: spmspv on an idealized 0-cycle UPEA fabric, a practical
 *    2-cycle UPEA fabric and NUPEA (Monaco). The paper reports UPEA2
 *    ~32% slower than UPEA0 and NUPEA within ~1% of UPEA0.
 *  - Fig. 11: every workload on Ideal (UPEA0), UPEA2, NUMA-UPEA2 and
 *    Monaco, normalized to Monaco. The paper reports Monaco avg 28%
 *    faster than UPEA, 20% faster than NUMA-UPEA, within 21% of Ideal.
 *  - Fig. 14: Monaco versus UPEA latencies 0-4; the paper reports
 *    near-linear degradation (UPEA1 ~3% ... UPEA4 ~82% slower).
 *  - Fig. 15: Monaco versus NUMA-UPEA remote latencies 0-4; NUMA
 *    recovers some of UPEA's loss but still degrades near-linearly.
 *  - Extension, energy: per-workload data-movement energy (abstract
 *    units) and energy-delay product, Monaco versus UPEA2. NUPEA's
 *    shorter fabric-memory paths for hot loads also cut energy.
 *
 * Sweep points run concurrently (--jobs N / NUPEA_BENCH_JOBS);
 * results are identical for any job count. Exits 1 when any
 * simulated point misses its host reference.
 */

#include <cstdio>

#include "bench/sweep_runner.h"

namespace
{

using namespace nupea;
using namespace nupea::bench;

constexpr int kMaxLatency = 4;

/** Config offsets within each workload's kPerApp sweep points:
 *  Monaco, UPEA0..4, then NUMA-UPEA0..4. */
constexpr std::size_t kMonaco = 0;
constexpr std::size_t kUpea0 = 1;
constexpr std::size_t kNuma0 = kUpea0 + kMaxLatency + 1;
constexpr std::size_t kPerApp = kNuma0 + kMaxLatency + 1;

/** The sweep, indexed by (workload, config offset). */
struct MemModelSweep
{
    const std::vector<CompiledWorkload> &compiled;
    const SweepResult &sweep;

    const BenchRun &
    at(std::size_t app, std::size_t config) const
    {
        return sweep.points[kPerApp * app + config].run;
    }

    double
    normalized(std::size_t app, std::size_t config) const
    {
        return static_cast<double>(at(app, config).systemCycles) /
               static_cast<double>(at(app, kMonaco).systemCycles);
    }
};

void
printFig06(const MemModelSweep &s)
{
    std::size_t app = 0;
    while (s.compiled[app].workload->name() != "spmspv")
        ++app;
    const CompiledWorkload &cw = s.compiled[app];
    const BenchRun &upea0 = s.at(app, kUpea0);
    const BenchRun &upea2 = s.at(app, kUpea0 + 2);
    const BenchRun &nupea = s.at(app, kMonaco);

    std::printf("Fig. 6c: spmspv execution time, normalized to UPEA0 "
                "(idealized)\n");
    std::printf("(parallelism %d, %zu-node DFG, all runs verified: "
                "%s)\n\n",
                cw.parallelism, cw.graph.numNodes(),
                (upea0.verified && upea2.verified && nupea.verified)
                    ? "yes"
                    : "NO");

    auto base = static_cast<double>(upea0.systemCycles);
    printRow("config", {"sys-cycles", "normalized"}, 10, 12);
    printRow("UPEA0", {std::to_string(upea0.systemCycles), fmt(1.0, 3)});
    printRow("UPEA2",
             {std::to_string(upea2.systemCycles),
              fmt(static_cast<double>(upea2.systemCycles) / base, 3)});
    printRow("NUPEA",
             {std::to_string(nupea.systemCycles),
              fmt(static_cast<double>(nupea.systemCycles) / base, 3)});
    std::printf("\npaper: UPEA2 ~1.32x UPEA0; NUPEA ~1.01x UPEA0\n");
}

void
printFig11(const MemModelSweep &s)
{
    std::printf("Fig. 11: execution time normalized to Monaco "
                "(shorter = faster)\n\n");
    printRow("app", {"Ideal", "UPEA", "NUMA-UPEA", "Monaco", "par",
                     "verified"});

    const std::size_t kConfigs[] = {kUpea0, kUpea0 + 2, kNuma0 + 2};
    std::vector<std::vector<double>> ratios(std::size(kConfigs));
    for (std::size_t i = 0; i < s.compiled.size(); ++i) {
        std::vector<std::string> cells;
        bool ok = s.at(i, kMonaco).verified;
        for (std::size_t c = 0; c < std::size(kConfigs); ++c) {
            ratios[c].push_back(s.normalized(i, kConfigs[c]));
            cells.push_back(fmt(ratios[c].back()));
            ok = ok && s.at(i, kConfigs[c]).verified;
        }
        cells.push_back(fmt(1.0));
        cells.push_back(std::to_string(s.compiled[i].parallelism));
        cells.push_back(ok ? "yes" : "NO");
        printRow(s.compiled[i].workload->name(), cells);
    }

    std::printf("\n");
    printRow("geomean", {fmt(geomean(ratios[0])), fmt(geomean(ratios[1])),
                         fmt(geomean(ratios[2])), fmt(1.0)});
    std::printf(
        "\npaper: UPEA ~1.28x Monaco, NUMA-UPEA ~1.20x Monaco, "
        "Ideal ~1/1.21x Monaco\n");
}

/** Figs. 14 and 15: latencies 0..kMaxLatency from `first`. */
void
printLatencySweep(const MemModelSweep &s, const char *title,
                  const char *column, std::size_t first,
                  const char *paper)
{
    std::printf("%s, execution time normalized to Monaco\n\n", title);
    std::vector<std::string> heads;
    for (int n = 0; n <= kMaxLatency; ++n)
        heads.push_back(formatMessage(column, n));
    heads.push_back("Monaco");
    printRow("app", heads);

    std::vector<std::vector<double>> ratios(kMaxLatency + 1);
    for (std::size_t i = 0; i < s.compiled.size(); ++i) {
        std::vector<std::string> cells;
        for (std::size_t n = 0; n < ratios.size(); ++n) {
            ratios[n].push_back(s.normalized(i, first + n));
            cells.push_back(fmt(ratios[n].back()));
        }
        cells.push_back(fmt(1.0));
        printRow(s.compiled[i].workload->name(), cells);
    }

    std::printf("\n");
    std::vector<std::string> means;
    for (const std::vector<double> &r : ratios)
        means.push_back(fmt(geomean(r)));
    means.push_back(fmt(1.0));
    printRow("geomean", means);
    std::printf("\npaper: %s\n", paper);
}

void
printEnergy(const MemModelSweep &s)
{
    std::printf("Extension: data-movement energy, Monaco vs UPEA2 "
                "(abstract units)\n\n");
    printRow("app",
             {"E(Monaco)", "E(UPEA2)", "E-ratio", "EDP-ratio"}, 10, 12);

    std::vector<double> e_ratios, edp_ratios;
    for (std::size_t i = 0; i < s.compiled.size(); ++i) {
        const BenchRun &monaco = s.at(i, kMonaco);
        const BenchRun &upea = s.at(i, kUpea0 + 2);
        auto monaco_cycles = static_cast<double>(monaco.systemCycles);
        auto upea_cycles = static_cast<double>(upea.systemCycles);

        double e_ratio = upea.energy.total() / monaco.energy.total();
        double edp_ratio = (upea.energy.total() * upea_cycles) /
                           (monaco.energy.total() * monaco_cycles);
        e_ratios.push_back(e_ratio);
        edp_ratios.push_back(edp_ratio);
        printRow(s.compiled[i].workload->name(),
                 {fmt(monaco.energy.total(), 0),
                  fmt(upea.energy.total(), 0), fmt(e_ratio),
                  fmt(edp_ratio)},
                 10, 12);
    }

    std::printf("\n");
    printRow("geomean",
             {"", "", fmt(geomean(e_ratios)), fmt(geomean(edp_ratios))},
             10, 12);
    std::printf("\n(E-ratio > 1: UPEA spends more energy; EDP folds "
                "in the runtime advantage)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    SweepRunner runner(parseSweepArgs(argc, argv));
    Topology topo = Topology::makeMonaco(12, 12);

    // Compile each workload exactly once; share it across threads.
    std::vector<CompileSpec> cspecs;
    for (const auto &name : workloadNames())
        cspecs.push_back({name, topo, CompileOptions{}});
    std::vector<CompiledWorkload> compiled = compileAll(runner, cspecs);

    // kPerApp machine configs per workload, in the offset order above.
    std::vector<RunSpec> rspecs;
    for (const CompiledWorkload &cw : compiled) {
        const std::string &app = cw.workload->name();
        rspecs.push_back(
            {&cw, primaryConfig(MemModel::Monaco, 0), app + "/monaco"});
        for (int n = 0; n <= kMaxLatency; ++n) {
            rspecs.push_back({&cw, primaryConfig(MemModel::Upea, n),
                              formatMessage(app, "/upea", n)});
        }
        for (int n = 0; n <= kMaxLatency; ++n) {
            rspecs.push_back({&cw, primaryConfig(MemModel::NumaUpea, n),
                              formatMessage(app, "/numa-upea", n)});
        }
    }
    SweepResult sweep = runSweep(runner, rspecs);
    const MemModelSweep s{compiled, sweep};

    printFig06(s);
    std::printf("\n");
    printFig11(s);
    std::printf("\n");
    printLatencySweep(s, "Fig. 14: UPEA latency sweep", "UPEA", kUpea0,
                      "UPEA1 ~1.03x, UPEA2 ~1.28x, UPEA3 ~1.55x, "
                      "UPEA4 ~1.82x Monaco");
    std::printf("\n");
    printLatencySweep(s, "Fig. 15: NUMA-UPEA latency sweep", "NUMA",
                      kNuma0,
                      "NUMA-UPEA1 ~1.02x, NUMA-UPEA2 ~1.20x, "
                      "NUMA-UPEA3 ~1.44x, NUMA-UPEA4 ~1.68x Monaco");
    std::printf("\n");
    printEnergy(s);
    return printSweepFooter(sweep) == 0 ? 0 : 1;
}
