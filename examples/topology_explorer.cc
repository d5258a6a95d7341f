/**
 * @file
 * Topology explorer: compile and run any of the 13 workloads on any
 * fabric shape from the command line, printing the fabric map, PnR
 * statistics, the NUPEA-domain distribution of memory instructions,
 * and the simulated execution time.
 *
 * Usage:
 *   topology_explorer [workload] [kind] [size] [tracks]
 *     workload: dmv|jacobi2d|...|vww        (default spmspv)
 *     kind:     monaco|cs|cd                (default monaco)
 *     size:     fabric rows=cols, >= 4      (default 12)
 *     tracks:   data-NoC tracks per edge, >= 1 (default 3)
 */

#include <charconv>
#include <cstdio>
#include <cstring>

#include "api/nupea.h"

using namespace nupea;

namespace
{

/** Parse all of `text` as a decimal integer of at least `min`. */
bool
parseWhole(const char *text, int min, int *out)
{
    const char *end = text + std::strlen(text);
    auto [ptr, ec] = std::from_chars(text, end, *out);
    return ec == std::errc() && ptr == end && *out >= min;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "spmspv";
    std::string kind_str = argc > 2 ? argv[2] : "monaco";
    // 4 is the smallest fabric all three kinds accept.
    int size = 12;
    int tracks = 3;
    if ((argc > 3 && !parseWhole(argv[3], 4, &size)) ||
        (argc > 4 && !parseWhole(argv[4], 1, &tracks))) {
        std::fprintf(stderr, "usage: topology_explorer [workload] "
                             "[monaco|cs|cd] [size >= 4] [tracks >= 1]\n");
        return 1;
    }

    TopologyKind kind = TopologyKind::Monaco;
    if (kind_str == "cs")
        kind = TopologyKind::ClusteredSingle;
    else if (kind_str == "cd")
        kind = TopologyKind::ClusteredDouble;
    else if (kind_str != "monaco") {
        std::printf("unknown topology kind '%s'\n", kind_str.c_str());
        return 1;
    }

    Topology topo = Topology::make(kind, size, size, tracks);
    std::printf("%s", topo.describe().c_str());

    auto wl = makeWorkload(name);
    BackingStore layout(MemSysConfig{}.memBytes);
    wl->init(layout);
    std::printf("\nworkload %s: %s\n", wl->name().c_str(),
                wl->scaledInput().c_str());

    AutoParResult compiled = compileWithAutoParallelism(
        [&](int p) { return wl->build(p); }, topo);
    std::printf("auto-parallelized to degree %d: %zu nodes\n",
                compiled.parallelism, compiled.graph.numNodes());
    std::printf("PnR: %zu crit / %zu inner / %zu other memory ops; "
                "max net delay %.1f -> clock divider %d; routed in "
                "%d iteration(s)\n",
                compiled.pnr.crit.critical, compiled.pnr.crit.innerLoop,
                compiled.pnr.crit.otherMem,
                compiled.pnr.timing.maxPathDelay,
                compiled.pnr.timing.clockDivider,
                compiled.pnr.route.iterations);

    std::vector<int> mem_per_domain(
        static_cast<std::size_t>(topo.numDomains()), 0);
    for (NodeId id = 0; id < compiled.graph.numNodes(); ++id) {
        if (opTraits(compiled.graph.node(id).op).isMemory) {
            ++mem_per_domain[static_cast<std::size_t>(topo.domainOf(
                compiled.pnr.placement.of(id)))];
        }
    }
    std::printf("memory instructions per NUPEA domain:");
    for (int d = 0; d < topo.numDomains(); ++d) {
        std::printf(" D%d=%d", d,
                    mem_per_domain[static_cast<std::size_t>(d)]);
    }
    std::printf("\n\nplacement map:\n%s",
                placementMap(compiled.graph, topo,
                             compiled.pnr.placement)
                    .c_str());

    BackingStore store(MemSysConfig{}.memBytes);
    wl->init(store);
    MachineConfig cfg;
    cfg.clockDivider = compiled.pnr.timing.clockDivider;
    Machine machine(compiled.graph, compiled.pnr.placement, topo, cfg,
                    store);
    RunResult r = machine.run();
    std::string why;
    bool ok = r.clean && wl->verify(store, &why);
    std::printf("\nsimulated %llu fabric cycles = %llu system cycles "
                "(%llu loads, %llu stores), output %s\n",
                static_cast<unsigned long long>(r.fabricCycles),
                static_cast<unsigned long long>(r.systemCycles),
                static_cast<unsigned long long>(r.loads),
                static_cast<unsigned long long>(r.stores),
                ok ? "verified" : why.c_str());
    auto it = r.stats.dists().find("fmnoc.latency_total");
    if (it != r.stats.dists().end()) {
        std::printf("avg fabric-memory latency: %.2f system cycles "
                    "(min %.0f, max %.0f)\n",
                    it->second.mean(), it->second.min(),
                    it->second.max());
    }
    return 0;
}
