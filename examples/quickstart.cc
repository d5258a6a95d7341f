/**
 * @file
 * Quickstart: write a kernel against the Builder API, compile it for
 * Monaco with NUPEA-aware PnR, and simulate it cycle by cycle.
 *
 * The kernel is a sparse dot product driven by a data-dependent
 * while loop — small enough to read in one sitting, but with a real
 * critical load that NUPEA placement accelerates.
 */

#include <cstdio>

#include "api/nupea.h"

using namespace nupea;

int
main()
{
    // ------------------------------------------------------------
    // 1. Lay out data in the simulated memory.
    // ------------------------------------------------------------
    BackingStore store(1 << 20);
    const int n = 64;
    Addr ring = store.allocWords(n);
    // A pointer ring: cell i holds the address of cell (i * 7 + 1) % n.
    for (int i = 0; i < n; ++i) {
        store.storeWord(ring + static_cast<Addr>(4 * i),
                        static_cast<Word>(
                            ring +
                            static_cast<Addr>(4 * ((i * 7 + 1) % n))));
    }

    // The host reference: the same walk, done here.
    const int steps = 200;
    Word expected = static_cast<Word>(ring);
    for (int i = 0; i < steps; ++i)
        expected = store.loadWord(static_cast<Addr>(expected));

    // ------------------------------------------------------------
    // 2. Express the kernel: chase the ring `steps` times. The load
    //    is on the loop-governing recurrence -> a critical load.
    // ------------------------------------------------------------
    Builder b;
    auto exits = b.forLoop(
        b.source(0), b.source(steps), 1,
        {b.source(static_cast<Word>(ring))},
        [&](Builder &b, Builder::Value i,
            const std::vector<Builder::Value> &carried) {
            (void)i;
            return std::vector<Builder::Value>{
                b.load(carried[0], {}, "chase")};
        },
        "chase");
    NodeId out = b.sink(exits[0], "final");
    Graph graph = b.takeGraph(); // fatal() on a malformed graph
    std::printf("built a %zu-node dataflow graph\n", graph.numNodes());

    // ------------------------------------------------------------
    // 3. Compile: criticality analysis + NUPEA-aware PnR.
    // ------------------------------------------------------------
    Topology topo = Topology::makeMonaco(12, 12);
    PnrResult pnr = placeAndRoute(graph, topo);
    if (!pnr.success) {
        std::printf("PnR failed: %s\n", pnr.failureReason.c_str());
        return 1;
    }
    std::printf("PnR: %zu critical load(s), max net delay %.1f, "
                "clock divider %d\n",
                pnr.crit.critical, pnr.timing.maxPathDelay,
                pnr.timing.clockDivider);
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        if (graph.node(id).crit == Criticality::Critical) {
            Coord tile = pnr.placement.of(id);
            std::printf("  critical %s placed at %s, NUPEA domain "
                        "D%d\n",
                        std::string(opName(graph.node(id).op)).c_str(),
                        tile.str().c_str(), topo.domainOf(tile));
        }
    }

    // ------------------------------------------------------------
    // 4. Simulate on the Monaco machine.
    // ------------------------------------------------------------
    MachineConfig cfg;
    cfg.clockDivider = pnr.timing.clockDivider;
    Machine machine(graph, pnr.placement, topo, cfg, store);
    RunResult r = machine.run();
    std::printf("ran %llu fabric cycles (%llu system cycles), "
                "%llu loads, clean=%s\n",
                static_cast<unsigned long long>(r.fabricCycles),
                static_cast<unsigned long long>(r.systemCycles),
                static_cast<unsigned long long>(r.loads),
                r.clean ? "yes" : "no");
    Word final_ptr = r.sinks[out].last;
    std::printf("final pointer value: %d (host walk: %d)\n", final_ptr,
                expected);
    if (!r.finished || !r.clean || final_ptr != expected) {
        std::fprintf(stderr, "run problem: %s\n",
                     r.clean ? "final pointer differs from the host walk"
                             : r.problem.c_str());
        return 1;
    }
    return 0;
}
