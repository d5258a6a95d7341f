/**
 * @file
 * Design-space ablations for the choices DESIGN.md calls out. Beyond
 * the paper's topology study (Figs. 16/17), this sweeps:
 *
 *  - the width of the direct-port domain D0 (how many LS columns get
 *    a dedicated memory port) — the paper's "optimize the placement
 *    of load-store PEs" design-space exploration;
 *  - token FIFO depth (ordered-dataflow buffering, Sec. 4.1);
 *  - maximum outstanding memory requests per LS PE (load pipelining);
 *  - shared-cache capacity (the 256 KiB memory-side cache, Sec. 6);
 *  - the fabric clock divider (Sec. 4.2's ratio-synchronous crossing:
 *    a slower fabric sees relatively faster memory).
 *
 * All five sweeps share one parallel batch (--jobs N /
 * NUPEA_BENCH_JOBS); results are identical for any job count. Exits
 * 1 when any simulated point misses its host reference.
 */

#include <cstdio>

#include "bench/sweep_runner.h"

namespace
{

using namespace nupea;
using namespace nupea::bench;

constexpr int kD0Widths[] = {1, 2, 3, 4, 6};
constexpr int kFifoDepths[] = {1, 2, 4, 8};
constexpr int kOutstanding[] = {1, 2, 4, 8};
constexpr std::size_t kCacheKib[] = {8, 32, 256};
constexpr int kDividers[] = {1, 2, 3, 4};

} // namespace

int
main(int argc, char **argv)
{
    SweepRunner runner(parseSweepArgs(argc, argv));
    Topology monaco = Topology::makeMonaco(12, 12);

    // Compile phase: 5 D0-width variants of spmspv plus one compile
    // per single-knob sweep, each exactly once.
    std::vector<CompileSpec> cspecs;
    for (int d0 : kD0Widths) {
        cspecs.push_back({"spmspv", Topology::makeMonaco(12, 12, 3, d0),
                          CompileOptions{}});
    }
    cspecs.push_back({"spmspm", monaco, CompileOptions{}}); // FIFO
    cspecs.push_back({"dmv", monaco, CompileOptions{}});    // outst
    cspecs.push_back({"spmv", monaco, CompileOptions{}});   // cache
    cspecs.push_back({"spmspv", monaco, CompileOptions{}}); // divider
    std::vector<CompiledWorkload> compiled = compileAll(runner, cspecs);

    const CompiledWorkload *d0_cws = &compiled[0];
    const CompiledWorkload &fifo_cw = compiled[std::size(kD0Widths)];
    const CompiledWorkload &outst_cw = compiled[std::size(kD0Widths) + 1];
    const CompiledWorkload &cache_cw = compiled[std::size(kD0Widths) + 2];
    const CompiledWorkload &div_cw = compiled[std::size(kD0Widths) + 3];

    // Run phase: one flat batch covering every ablation point.
    std::vector<RunSpec> rspecs;
    for (std::size_t i = 0; i < std::size(kD0Widths); ++i) {
        rspecs.push_back({&d0_cws[i], primaryConfig(MemModel::Monaco, 0),
                          formatMessage("d0=", kD0Widths[i])});
    }
    for (int depth : kFifoDepths) {
        MachineConfig cfg = primaryConfig(MemModel::Monaco, 0);
        cfg.fifoDepth = depth;
        rspecs.push_back({&fifo_cw, cfg,
                          formatMessage("fifo=", depth)});
    }
    for (int outst : kOutstanding) {
        MachineConfig cfg = primaryConfig(MemModel::Monaco, 0);
        cfg.maxOutstanding = outst;
        rspecs.push_back({&outst_cw, cfg,
                          formatMessage("outst=", outst)});
    }
    for (std::size_t kib : kCacheKib) {
        MachineConfig cfg = primaryConfig(MemModel::Monaco, 0);
        cfg.memsys.cache.sizeBytes = kib * 1024;
        rspecs.push_back({&cache_cw, cfg,
                          formatMessage("cache=", kib, "KiB")});
    }
    for (int div : kDividers) {
        MachineConfig cfg = primaryConfig(MemModel::Monaco, 0);
        cfg.clockDivider = div;
        rspecs.push_back({&div_cw, cfg, formatMessage("div=", div)});
    }
    SweepResult sweep = runSweep(runner, rspecs);
    std::size_t idx = 0;

    std::printf("Design-space ablations (all runs functionally "
                "verified)\n\n");

    std::printf("D0 width (direct-port LS columns), spmspv on "
                "monaco-12x12:\n");
    printRow("d0 cols", {"ports", "sys-cycles", "avg-lat"}, 10, 12);
    for (std::size_t i = 0; i < std::size(kD0Widths); ++i) {
        const BenchRun &r = sweep.points[idx++].run;
        printRow(std::to_string(kD0Widths[i]),
                 {std::to_string(d0_cws[i].topo.memPorts()),
                  std::to_string(r.systemCycles),
                  fmt(r.avgMemLatency, 2)},
                 10, 12);
    }
    std::printf("\n");

    std::printf("token FIFO depth, spmspm on monaco-12x12:\n");
    printRow("depth", {"sys-cycles"}, 10, 12);
    for (int depth : kFifoDepths) {
        const BenchRun &r = sweep.points[idx++].run;
        printRow(std::to_string(depth),
                 {std::to_string(r.systemCycles)}, 10, 12);
    }
    std::printf("\n");

    std::printf("max outstanding requests per LS PE, dmv on "
                "monaco-12x12:\n");
    printRow("outst", {"sys-cycles"}, 10, 12);
    for (int outst : kOutstanding) {
        const BenchRun &r = sweep.points[idx++].run;
        printRow(std::to_string(outst),
                 {std::to_string(r.systemCycles)}, 10, 12);
    }
    std::printf("\n");

    std::printf("shared-cache capacity, spmv on monaco-12x12:\n");
    printRow("KiB", {"sys-cycles", "hit-rate"}, 10, 12);
    for (std::size_t kib : kCacheKib) {
        const BenchRun &r = sweep.points[idx++].run;
        double hits =
            static_cast<double>(r.stats.counterValue("mem.cache_hits"));
        double total =
            hits + static_cast<double>(
                       r.stats.counterValue("mem.cache_misses"));
        printRow(std::to_string(kib),
                 {std::to_string(r.systemCycles),
                  fmt(total > 0 ? hits / total : 0.0, 3)},
                 10, 12);
    }
    std::printf("\n");

    std::printf("fabric clock divider, spmspv on monaco-12x12 "
                "(system cycles; memory runs on the system clock):\n");
    printRow("divider", {"fab-cycles", "sys-cycles"}, 10, 12);
    for (int div : kDividers) {
        const BenchRun &r = sweep.points[idx++].run;
        printRow(std::to_string(div),
                 {std::to_string(r.fabricCycles),
                  std::to_string(r.systemCycles)},
                 10, 12);
    }
    std::printf("\n");
    return printSweepFooter(sweep) == 0 ? 0 : 1;
}
