/**
 * @file
 * Shared experiment harness for the figure-reproduction benches:
 * compile a workload once per (topology, PnR mode), then run it
 * against any number of machine configurations on fresh memory
 * images, verifying functional correctness after every run.
 */

#ifndef NUPEA_BENCH_BENCH_UTIL_H
#define NUPEA_BENCH_BENCH_UTIL_H

#include <memory>
#include <string>
#include <vector>

#include "compiler/pnr.h"
#include "sim/machine.h"
#include "workloads/workload.h"

namespace nupea
{
namespace bench
{

/**
 * A workload compiled for one fabric with one PnR mode.
 *
 * Immutable after compileWorkload(): runs clone `image` rather than
 * re-running init(), and verify() is const — so one CompiledWorkload
 * is safe to share across SweepRunner threads.
 */
struct CompiledWorkload
{
    std::unique_ptr<Workload> workload;
    Topology topo;
    Graph graph;
    PnrResult pnr;
    int parallelism = 1;
    /** Initialized memory image, captured once at compile time. */
    BackingStore image{0};
};

/** Compilation knobs for the harness. */
struct CompileOptions
{
    PlaceMode mode = PlaceMode::CriticalityAware;
    std::uint64_t seed = 1;
    /** Annealing effort (moves per node). */
    int saIterationsPerNode = 80;
    /**
     * Parallelism policy: >0 fixes the degree; 0 uses the workload's
     * hand-tuned preference (falling back to the automatic ramp);
     * -1 forces the automatic ramp (paper Sec. 6).
     */
    int parallelism = 0;
};

/**
 * Compile `name` for `topo`. Uses the workload's preferred
 * parallelism (backing off if PnR fails) or the automatic ramp.
 * fatal() if nothing fits. The static verifier (verify/verify.h)
 * then runs over the graph and PnR output: fatal() on any error
 * diagnostic, warn() on warnings.
 */
CompiledWorkload compileWorkload(const std::string &name,
                                 const Topology &topo,
                                 const CompileOptions &options);

/** One timed, verified run. */
struct BenchRun
{
    Cycle fabricCycles = 0;
    Cycle systemCycles = 0;
    bool verified = false;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t firings = 0;
    double avgMemLatency = 0.0; ///< system cycles, request to response
    EnergyBreakdown energy;     ///< compute/network/memory split
    StatSet stats;              ///< full machine stat set
    /** Per-node stall attribution (empty unless
     *  MachineConfig::stallAttribution was set for the run). */
    std::vector<NodeStallCounters> nodeStalls;
    /** Per-node memory latency distributions (same gating). */
    std::vector<Distribution> nodeMemLatency;
};

/**
 * Run a compiled workload under `config` on a fresh clone of the
 * compiled memory image (never touching the workload object, so
 * concurrent runs of one CompiledWorkload are safe). fatal() on
 * watchdog expiry or unclean termination; `verified` records whether
 * the memory image matched the host reference.
 */
BenchRun runCompiled(const CompiledWorkload &cw,
                     MachineConfig config = MachineConfig{});

/**
 * Same, but on a caller-provided store (recycled across points by
 * the sweep runner's per-worker StoreBanks): the store is resetTo()
 * the compiled image first, which restores an exact fresh-clone
 * state as long as every write since the last reset went through
 * storeWord() — true of the Machine, whose only store writes are
 * MemorySystem word stores. Simulated results are bit-identical to
 * the fresh-store overload (enforced by test_golden_stats).
 */
BenchRun runCompiled(const CompiledWorkload &cw, MachineConfig config,
                     BackingStore &store);

/**
 * Print a stall-attribution table for one run (requires the run to
 * have been executed with stallAttribution): per-FU-class cycles by
 * StallReason, the busiest memory nodes, and the criticality-rank
 * cross-validation against measured per-load latency.
 */
void printStallReport(const CompiledWorkload &cw,
                      const std::string &label, const BenchRun &run);

/** Machine config for the paper's primary comparisons (divider 2). */
MachineConfig primaryConfig(MemModel model, int upea_latency);

/** Geometric mean of a list of ratios. */
double geomean(const std::vector<double> &values);

/** Print a fixed-width table row of label + values. */
void printRow(const std::string &label,
              const std::vector<std::string> &cells, int label_width = 10,
              int cell_width = 12);

/** Format a double with fixed precision. */
std::string fmt(double value, int precision = 3);

} // namespace bench
} // namespace nupea

#endif // NUPEA_BENCH_BENCH_UTIL_H
