/**
 * @file
 * Tour of the workload generator: parse a spec string, inspect the
 * shape it denotes, compile and simulate it, and show how one family
 * scales as the spec's knobs turn.
 *
 * The generator compiles compact spec names like
 *
 *   gen:stencil5x5:wrap      5x5 torus stencil on the default grid
 *   gen:gemm8x8x8:t4x4x4     tiled 8^3 matrix multiply
 *   gen:reduce4x2:c3:max     16-leaf max-tree, 3-element leaf chunks
 *
 * into full dataflow-graph builder programs, so every driver that
 * takes a --workload name accepts them. Pass a spec as argv[1] to
 * tour any shape; the default walks a stencil family.
 */

#include <cstdio>

#include "api/nupea.h"

using namespace nupea;

/** Compile + simulate one generated spec and print its vitals;
 *  false on a PnR failure, an unclean run or a wrong answer. */
static bool
tour(const std::string &name)
{
    GeneratorSpec spec = GeneratorSpec::parse(name);
    std::printf("%-34s", spec.name().c_str());

    auto wl = makeWorkload(name); // same registry as the 13 kernels
    BackingStore store(MemSysConfig{}.memBytes);
    wl->init(store);
    Graph graph = wl->build(1);

    Topology topo = Topology::makeMonaco(12, 12);
    PnrResult pnr = placeAndRoute(graph, topo);
    if (!pnr.success) {
        std::printf("  PnR failed: %s\n", pnr.failureReason.c_str());
        return false;
    }

    MachineConfig cfg;
    cfg.memsys.memBytes = store.size();
    cfg.clockDivider = pnr.timing.clockDivider;
    Machine machine(graph, pnr.placement, topo, cfg, store);
    RunResult run = machine.run();

    std::string why = run.problem;
    bool ok = run.finished && run.clean && wl->verify(store, &why);
    std::printf("  %4zu nodes  %6llu cycles  verified=%s\n",
                graph.numNodes(),
                static_cast<unsigned long long>(run.fabricCycles),
                ok ? "yes" : why.c_str());
    return ok;
}

int
main(int argc, char **argv)
{
    if (argc > 1)
        return tour(argv[1]) ? 0 : 1;

    bool ok = true;
    std::printf("One stencil family, four boundary modes:\n");
    for (const char *mode : {"copy", "clamp", "wrap", "zero"})
        ok &= tour(std::string("gen:stencil3x3:") + mode);

    std::printf("\nGemm tiling, same 8x8x8 problem:\n");
    for (const char *t : {"", ":t2x2x2", ":t4x4x4", ":t8x8x8"})
        ok &= tour(std::string("gen:gemm8x8x8") + t);

    std::printf("\nReduction trees, 16 leaves each way:\n");
    for (const char *shape : {"gen:reduce2x4", "gen:reduce4x2",
                              "gen:reduce4x2:c3:max"})
        ok &= tour(shape);

    std::printf("\nAny spec works as --workload in the benches; "
                "grammar:\n  %s\n", generatorGrammar());
    return ok ? 0 : 1;
}
