/**
 * @file
 * Generated-shape sweep: pushes generator-produced workloads through
 * the parallel sweep runner — compile-once / image-clone-per-run,
 * verifier on by default — under the three memory models.
 *
 * Three point sources, combinable:
 *   (default)         the curated gen: registry
 *   --workload NAME   one workload (any gen: spec or hand-built name)
 *   --seeds N         N >= 1 random GeneratorSpecs (base seed
 *                     --seed S >= 0, default 1), printed per row so
 *                     any shape replays with `--workload <spec>`
 *
 * Every point asserts host-reference verification; a non-verified
 * row prints NO and the bench exits 1, so the sweep doubles as a
 * fuzz-style regression gate over the sweep runner's task pool.
 */

#include <cstdio>

#include "bench/sweep_runner.h"
#include "workloads/gen/gen_workload.h"

int
main(int argc, char **argv)
{
    using namespace nupea;
    using namespace nupea::bench;

    std::optional<std::string> one_workload, seeds_arg, seed_arg;
    SweepRunner runner(parseSweepArgs(argc, argv,
                                      {{"--workload", &one_workload},
                                       {"--seeds", &seeds_arg},
                                       {"--seed", &seed_arg}}));
    const int random_seeds =
        seeds_arg ? static_cast<int>(parseIntArg("--seeds", *seeds_arg, 1))
                  : 0;
    const auto base_seed = static_cast<std::uint64_t>(
        seed_arg ? parseIntArg("--seed", *seed_arg, 0,
                               std::numeric_limits<long long>::max())
                 : 1);

    // Assemble the shape list.
    std::vector<std::string> names;
    if (one_workload) {
        names.push_back(*one_workload);
    } else {
        if (random_seeds == 0)
            names = generatedWorkloadNames();
        for (int i = 0; i < random_seeds; ++i) {
            Rng rng(base_seed + static_cast<std::uint64_t>(i));
            names.push_back(GeneratorSpec::random(rng).name());
        }
    }

    Topology topo = Topology::makeMonaco(12, 12);
    std::vector<CompileSpec> cspecs;
    for (const std::string &name : names) {
        CompileOptions copts;
        copts.saIterationsPerNode = 60;
        cspecs.push_back({name, topo, copts});
    }
    std::vector<CompiledWorkload> compiled = compileAll(runner, cspecs);

    std::vector<RunSpec> rspecs;
    for (const CompiledWorkload &cw : compiled) {
        const std::string &app = cw.workload->name();
        rspecs.push_back(
            {&cw, primaryConfig(MemModel::Monaco, 0), app + "/monaco"});
        rspecs.push_back(
            {&cw, primaryConfig(MemModel::Upea, 2), app + "/upea2"});
        rspecs.push_back({&cw, primaryConfig(MemModel::NumaUpea, 2),
                          app + "/numa-upea2"});
    }
    SweepResult sweep = runSweep(runner, rspecs);

    std::printf("Generated-shape sweep: %zu shapes x 3 memory models\n\n",
                compiled.size());
    printRow("", {"monaco", "upea2", "numa-upea2", "par", "verified"},
             46, 11);
    for (std::size_t i = 0; i < compiled.size(); ++i) {
        const CompiledWorkload &cw = compiled[i];
        const BenchRun &monaco = sweep.points[3 * i + 0].run;
        const BenchRun &upea = sweep.points[3 * i + 1].run;
        const BenchRun &numa = sweep.points[3 * i + 2].run;
        bool ok = monaco.verified && upea.verified && numa.verified;
        printRow(cw.workload->name(),
                 {std::to_string(monaco.systemCycles),
                  std::to_string(upea.systemCycles),
                  std::to_string(numa.systemCycles),
                  std::to_string(cw.parallelism), ok ? "yes" : "NO"},
                 46, 11);
    }
    return printSweepFooter(sweep) == 0 ? 0 : 1;
}
