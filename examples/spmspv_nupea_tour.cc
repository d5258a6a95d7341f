/**
 * @file
 * The paper's running example, end to end: sparse matrix x sparse
 * vector (spmspv). Shows (i) the critical loads effcc's analysis
 * finds in the stream-join, (ii) where NUPEA-aware PnR places them,
 * and (iii) the performance of Monaco against the idealized and
 * practical UPEA fabrics (the paper's Fig. 6c experiment).
 */

#include <cstdio>
#include <cstdlib>

#include "api/nupea.h"

using namespace nupea;

namespace
{

/** Run one config on a fresh memory image; returns system cycles.
 *  Exits 1 on an unfinished or unclean run or a wrong answer. */
Cycle
timeConfig(const Workload &wl, const Graph &graph, const Placement &pl,
           const Topology &topo, MemModel model, int upea_latency)
{
    BackingStore store(MemSysConfig{}.memBytes);
    const_cast<Workload &>(wl).init(store);
    MachineConfig cfg;
    cfg.mem.model = model;
    cfg.mem.upeaLatency = upea_latency;
    cfg.clockDivider = 2;
    Machine machine(graph, pl, topo, cfg, store);
    RunResult r = machine.run();
    std::string why;
    if (!r.finished || !r.clean || !wl.verify(store, &why)) {
        std::fprintf(stderr, "run problem: %s%s\n", r.problem.c_str(),
                     why.c_str());
        std::exit(1);
    }
    return r.systemCycles;
}

} // namespace

int
main()
{
    auto wl = makeWorkload("spmspv");
    BackingStore layout(MemSysConfig{}.memBytes);
    wl->init(layout);
    std::printf("spmspv: %s (paper input: %s)\n\n",
                wl->scaledInput().c_str(), wl->paperInput().c_str());

    Graph graph = wl->build(4);
    Topology topo = Topology::makeMonaco(12, 12);
    PnrResult pnr = placeAndRoute(graph, topo);
    if (!pnr.success) {
        std::printf("PnR failed: %s\n", pnr.failureReason.c_str());
        return 1;
    }

    // (i) criticality classes found by the compiler.
    std::printf("effcc criticality analysis: %zu critical, %zu "
                "inner-loop, %zu other memory ops across %zu "
                "recurrences\n\n",
                pnr.crit.critical, pnr.crit.innerLoop,
                pnr.crit.otherMem, pnr.crit.recurrences);

    // (ii) NUPEA domain placement per class.
    std::printf("placement by NUPEA domain (D0 = fastest):\n%s",
                domainSummary(graph, topo, pnr.placement).c_str());

    // (iii) the Fig. 6c comparison.
    Cycle upea0 = timeConfig(*wl, graph, pnr.placement, topo,
                             MemModel::Upea, 0);
    Cycle upea2 = timeConfig(*wl, graph, pnr.placement, topo,
                             MemModel::Upea, 2);
    Cycle nupea = timeConfig(*wl, graph, pnr.placement, topo,
                             MemModel::Monaco, 0);
    std::printf("\nexecution time (system cycles):\n");
    std::printf("  UPEA0 (idealized): %8llu  (1.00x)\n",
                static_cast<unsigned long long>(upea0));
    std::printf("  UPEA2 (practical): %8llu  (%.2fx)\n",
                static_cast<unsigned long long>(upea2),
                static_cast<double>(upea2) /
                    static_cast<double>(upea0));
    std::printf("  NUPEA (Monaco):    %8llu  (%.2fx)\n",
                static_cast<unsigned long long>(nupea),
                static_cast<double>(nupea) /
                    static_cast<double>(upea0));
    std::printf("\npaper Fig. 6c: NUPEA within ~1%% of UPEA0; UPEA2 "
                "~32%% slower\n");
    return 0;
}
