/**
 * @file
 * The benchmark's workloads: which compilations each one sets up and
 * which machine configurations each compilation is simulated under.
 * The run's seed sets every compilation's data (and gen_shapes'
 * placer seed); see workloads.cc for what stays fixed and why.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "pipeline.h"

namespace perfbench
{

struct WorkloadDef
{
    std::string_view name;
    /** TaskPool width for the compile and point batches. */
    int jobs = 1;
    /** Compile during set-up (once) instead of in every pass. */
    bool compileInSetup = false;
};

const std::vector<WorkloadDef> &workloadDefs();

/** Null when no workload has this name. */
const WorkloadDef *findWorkload(std::string_view name);

/** Construct and initialize every compilation of the workload. */
std::vector<CompileJob> makeJobs(const WorkloadDef &def, std::uint64_t seed,
                                 Tracer *tracer);

/** The machine configurations one compilation is simulated under. */
std::vector<nupea::MachineConfig> pointConfigs(const WorkloadDef &def,
                                               const Compiled &compiled);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
