/**
 * @file
 * The compile and simulate steps the benchmark times, each with an
 * untraced form that calls the library's own drivers and a traced
 * form that calls the same layers one by one inside spans.
 *
 * Untraced compiles go through placeAndRoute() and
 * compileWithAutoParallelism(), so library changes to those drivers
 * show in the end-to-end numbers. The traced compile mirrors them
 * phase by phase (criticality, capacity check, placement, routing,
 * timing; the ramp and the back-off); fingerprint() lets the caller
 * check that both forms produced the same compilation.
 */

#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/pnr.h"
#include "memory/backing_store.h"
#include "sim/machine.h"
#include "tracer.h"
#include "workloads/workload.h"

namespace perfbench
{

/** One compilation to perform, with its workload already set up. */
struct CompileJob
{
    std::unique_ptr<nupea::Workload> workload;
    nupea::BackingStore image{0}; ///< initialized memory image
    nupea::Topology topo;
    nupea::PnrOptions options;
    /** > 0: hand-tuned degree, halved while PnR fails; 0: the
     *  automatic ramp (compileWithAutoParallelism). */
    int preferred = 0;
};

/** Layer work counts; the traced compile sees every attempt, the
 *  untraced one only the kept result. */
struct CompileCounts
{
    std::uint64_t builds = 0;
    std::uint64_t attempts = 0; ///< placeAndRoute calls
    std::uint64_t capacityRejects = 0;
    std::uint64_t routeCalls = 0;
    std::uint64_t routeIterations = 0;
    std::uint64_t failedRoutes = 0;
    std::uint64_t oneIterationRoutes = 0; ///< successful, 1 iteration
    std::int64_t failedRouteNs = 0;
    std::uint64_t placerMoves = 0;
    std::uint64_t placerAccepted = 0;
};

struct Compiled
{
    bool ok = false;
    std::string error;
    int parallelism = 0;
    nupea::Graph graph;
    nupea::PnrResult pnr;
    CompileCounts counts;
};

/** Compile a job; never throws (a fatal becomes ok = false). */
Compiled compile(const CompileJob &job, Tracer *tracer, std::int64_t item);

/** Hash of everything a compile decides: degree, placement, route,
 *  divider and placement cost. */
std::uint64_t fingerprint(const Compiled &c);

struct PointResult
{
    bool ok = false;
    std::string error;
    nupea::Cycle systemCycles = 0;
    std::uint64_t firings = 0;
    /** Static-model system cycles; < 0 when the profile was unclean. */
    double predictedCycles = -1.0;
    std::int64_t machineNs = 0; ///< Machine construction + run, thread CPU
};

/**
 * Simulate one compilation under each config on `store` (reset to the
 * image before every run), check each run, and score it with the
 * static model from one profile. Never throws.
 */
std::vector<PointResult>
runPoints(const CompileJob &job, const Compiled &compiled,
          const std::vector<nupea::MachineConfig> &configs,
          nupea::BackingStore &store, Tracer *tracer,
          std::int64_t firstItem);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
