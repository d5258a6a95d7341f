#include "workloads.h"

#include "workloads/gen/gen_spec.h"

namespace perfbench
{

using namespace nupea;

namespace
{

/** Data seed of compilation `job`; seed 1 gives the figure benches'
 *  42 to the first one. Every compilation gets its own data, so a
 *  run's simulated work averages over many inputs. */
std::uint64_t
dataSeed(std::uint64_t seed, std::size_t job)
{
    return 41 + seed + 1000 * static_cast<std::uint64_t>(job);
}

CompileJob
makeJob(const std::string &name, std::uint64_t seed, Topology topo,
        std::uint64_t placerSeed, int saIterationsPerNode, bool ramp,
        Tracer *tracer, std::size_t index)
{
    auto item = static_cast<std::int64_t>(index);
    CompileJob job;
    {
        ScopedSpan span(tracer, Layer::Init, item);
        job.workload = makeWorkload(name, dataSeed(seed, index));
        BackingStore layout(MemSysConfig{}.memBytes);
        job.workload->init(layout);
        job.image = std::move(layout);
    }
    job.topo = std::move(topo);
    job.options.place.mode = PlaceMode::CriticalityAware;
    job.options.place.seed = placerSeed;
    job.options.place.iterationsPerNode = saIterationsPerNode;
    job.options.place.portfolio.chains = 1;
    job.preferred = ramp ? 0 : job.workload->preferredParallelism();
    return job;
}

/**
 * Fig. 16/17's compile set: spmspv auto-parallelized on every topology
 * with the figure's placer seeds {1, 2}; the seed sets the data. The
 * placer seeds stay fixed because moving them changed the routing work
 * (failed 60-iteration routes) by up to 15% between seeds.
 */
std::vector<CompileJob>
rampJobs(std::uint64_t seed, Tracer *tracer)
{
    std::vector<CompileJob> jobs;
    for (int tracks : {2, 7}) {
        for (TopologyKind kind :
             {TopologyKind::Monaco, TopologyKind::ClusteredSingle,
              TopologyKind::ClusteredDouble}) {
            for (int size : {8, 16, 24}) {
                for (std::uint64_t s : {1, 2}) {
                    jobs.push_back(makeJob(
                        "spmspv", seed,
                        Topology::make(kind, size, size, tracks), s, 80,
                        true, tracer, jobs.size()));
                }
            }
        }
    }
    return jobs;
}

/** The 13 Table-1 workloads on Monaco 12x12 at hand-tuned degree,
 *  with the figure benches' placer seed 1 (as in rampJobs). */
std::vector<CompileJob>
suiteJobs(std::uint64_t seed, Tracer *tracer)
{
    std::vector<CompileJob> jobs;
    for (const std::string &name : workloadNames()) {
        jobs.push_back(makeJob(name, seed, Topology::makeMonaco(12, 12),
                               1, 80, false, tracer, jobs.size()));
    }
    return jobs;
}

/**
 * Random generator shapes on Monaco 12x12, compiled as bench_gen_sweep
 * does. The shapes come from one fixed sampler stream; the seed sets
 * their data and placer seeds. (Shapes drawn from the seed made the
 * run-to-run work differ by ~25%, more than any bound can absorb.)
 */
std::vector<CompileJob>
genJobs(std::uint64_t seed, Tracer *tracer)
{
    constexpr int kShapes = 200;
    constexpr std::uint64_t kShapeStream = 1;
    Rng rng(kShapeStream);
    std::vector<CompileJob> jobs;
    for (int i = 0; i < kShapes; ++i) {
        std::string name = GeneratorSpec::random(rng).name();
        jobs.push_back(makeJob(name, seed, Topology::makeMonaco(12, 12),
                               seed, 60, false, tracer, jobs.size()));
    }
    return jobs;
}

/** The figure benches' primary comparison config (divider 2). */
MachineConfig
primaryConfig(MemModel model, int upeaLatency)
{
    MachineConfig cfg;
    cfg.mem.model = model;
    cfg.mem.upeaLatency = upeaLatency;
    cfg.clockDivider = 2;
    return cfg;
}

} // namespace

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"compile_ramp", 1, false},
        {"sim_sweep", 1, true},
        {"gen_shapes", 1, false},
        {"parallel_ramp", 4, false},
    };
    return defs;
}

const WorkloadDef *
findWorkload(std::string_view name)
{
    for (const WorkloadDef &def : workloadDefs()) {
        if (def.name == name)
            return &def;
    }
    return nullptr;
}

std::vector<CompileJob>
makeJobs(const WorkloadDef &def, std::uint64_t seed, Tracer *tracer)
{
    if (def.name == "sim_sweep")
        return suiteJobs(seed, tracer);
    if (def.name == "gen_shapes")
        return genJobs(seed, tracer);
    return rampJobs(seed, tracer);
}

std::vector<MachineConfig>
pointConfigs(const WorkloadDef &def, const Compiled &compiled)
{
    if (def.name == "sim_sweep") {
        std::vector<MachineConfig> configs{
            primaryConfig(MemModel::Monaco, 0)};
        for (int n : {0, 1, 2, 3, 4, 6})
            configs.push_back(primaryConfig(MemModel::Upea, n));
        for (int n : {1, 2, 3, 4, 6})
            configs.push_back(primaryConfig(MemModel::NumaUpea, n));
        return configs;
    }
    if (def.name == "gen_shapes") {
        return {primaryConfig(MemModel::Monaco, 0),
                primaryConfig(MemModel::Upea, 2),
                primaryConfig(MemModel::NumaUpea, 2)};
    }
    // The ramp workloads run Monaco at the divider PnR chose.
    MachineConfig cfg;
    cfg.mem.model = MemModel::Monaco;
    cfg.clockDivider = compiled.pnr.timing.clockDivider;
    return {cfg};
}

} // namespace perfbench
