#include "bench/bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/log.h"
#include "compiler/report.h"
#include "verify/verify.h"

namespace nupea
{
namespace bench
{

namespace
{

/** Gate a fresh compilation on the static verifier. */
void
verifyOrDie(const CompiledWorkload &cw)
{
    DiagnosticReport report =
        verifyCompiled(cw.graph, cw.topo, cw.pnr);
    for (const Diagnostic &d : report.diags()) {
        if (d.severity == Severity::Warning)
            warn(cw.workload->name(), ": verify: ", diagIdName(d.id),
                 d.node != kInvalidId
                     ? formatMessage(" node ", d.node, ": ")
                     : std::string(": "),
                 d.message);
    }
    if (report.hasErrors()) {
        fatal(cw.workload->name(), " failed static verification (",
              report.errorCount(), " errors):\n", report.renderText());
    }
}

} // namespace

CompiledWorkload
compileWorkload(const std::string &name, const Topology &topo,
                const CompileOptions &options)
{
    CompiledWorkload cw;
    cw.workload = makeWorkload(name);
    cw.topo = topo;

    // Lay out memory once so the graph bakes in the right addresses;
    // the image is kept and cloned for every subsequent run.
    BackingStore layout(MemSysConfig{}.memBytes);
    cw.workload->init(layout);
    cw.image = std::move(layout);

    PnrOptions popts;
    popts.place.mode = options.mode;
    popts.place.seed = options.seed;
    popts.place.iterationsPerNode = options.saIterationsPerNode;

    int preferred = options.parallelism > 0
                        ? options.parallelism
                        : cw.workload->preferredParallelism();
    if (options.parallelism < 0)
        preferred = 0; // force the automatic ramp
    auto build = [&](int p) { return cw.workload->build(p); };
    // Hand-tuned degree with back-off (paper Sec. 6), or the
    // automatic ramp (tc, ad, ic, vww in the paper).
    AutoParResult compiled =
        preferred > 0
            ? compileWithBackoff(build, topo, preferred, popts)
            : compileWithAutoParallelism(build, topo, popts);
    if (!compiled.pnr.success)
        fatal(name, " does not fit ", topo.name(),
              " even at parallelism 1");
    cw.graph = std::move(compiled.graph);
    cw.pnr = std::move(compiled.pnr);
    cw.parallelism = compiled.parallelism;
    verifyOrDie(cw);
    return cw;
}

BenchRun
runCompiled(const CompiledWorkload &cw, MachineConfig config)
{
    BackingStore store(config.memsys.memBytes);
    return runCompiled(cw, config, store);
}

BenchRun
runCompiled(const CompiledWorkload &cw, MachineConfig config,
            BackingStore &store)
{
    // Clone the compile-time image instead of calling init() again:
    // init() mutates the workload's expectation bookkeeping, and a
    // shared CompiledWorkload may be running on several threads. The
    // store may be recycled from a previous point; resetTo scrubs
    // exactly the span storeWord() dirtied.
    NUPEA_ASSERT(cw.image.size() > 0,
                 cw.workload->name(), ": run before compileWorkload");
    NUPEA_ASSERT(cw.image.allocated() <= store.size(),
                 cw.workload->name(), ": image needs ",
                 cw.image.allocated(), " bytes, config grants ",
                 store.size());
    store.resetTo(cw.image);

    Machine machine(cw.graph, cw.pnr.placement, cw.topo, config, store);
    RunResult r = machine.run();
    if (!r.finished)
        fatal(cw.workload->name(), ": watchdog expired");
    if (!r.clean)
        fatal(cw.workload->name(), ": unclean termination: ", r.problem);

    BenchRun out;
    out.fabricCycles = r.fabricCycles;
    out.systemCycles = r.systemCycles;
    out.loads = r.loads;
    out.stores = r.stores;
    out.firings = r.firings;
    std::string why;
    out.verified = cw.workload->verify(store, &why);
    if (!out.verified)
        warn(cw.workload->name(), ": output mismatch: ", why);
    auto it = r.stats.dists().find("fmnoc.latency_total");
    if (it != r.stats.dists().end())
        out.avgMemLatency = it->second.mean();
    out.energy = r.energy;
    out.stats = std::move(r.stats);
    out.nodeStalls = std::move(r.nodeStalls);
    out.nodeMemLatency = std::move(r.nodeMemLatency);
    return out;
}

void
printStallReport(const CompiledWorkload &cw, const std::string &label,
                 const BenchRun &run)
{
    std::printf("[stall] %s: %llu fabric cycles, %llu firings\n",
                label.c_str(),
                static_cast<unsigned long long>(run.fabricCycles),
                static_cast<unsigned long long>(run.firings));
    if (run.nodeStalls.empty()) {
        std::printf("  (run executed without stall attribution)\n");
        return;
    }

    // Per-FU-class cycles by reason, from the flushed stat counters.
    static const char *const kClasses[] = {"arith", "control", "mem",
                                           "xdata"};
    std::vector<std::string> header{"class"};
    for (std::size_t ri = 0; ri < kNumStallReasons; ++ri)
        header.push_back(std::string(
            stallReasonName(static_cast<StallReason>(ri))));
    printRow("  ", header, 4, 19);
    for (const char *cls : kClasses) {
        std::vector<std::string> cells{cls};
        std::uint64_t row_total = 0;
        for (std::size_t ri = 0; ri < kNumStallReasons; ++ri) {
            std::uint64_t v = run.stats.counterValue(
                formatMessage("stall.", cls, ".",
                              stallReasonName(
                                  static_cast<StallReason>(ri))));
            row_total += v;
            cells.push_back(std::to_string(v));
        }
        if (row_total > 0)
            printRow("  ", cells, 4, 19);
    }

    // Memory nodes ranked by cycles lost to memory-side stalls.
    std::vector<NodeId> mem_nodes;
    for (NodeId id = 0; id < cw.graph.numNodes(); ++id) {
        if (opTraits(cw.graph.node(id).op).isMemory &&
            id < run.nodeStalls.size())
            mem_nodes.push_back(id);
    }
    auto memStall = [&](NodeId id) {
        const NodeStallCounters &c = run.nodeStalls[id];
        return c.of(StallReason::OutstandingCap) +
               c.of(StallReason::RespUndeliverable) +
               c.of(StallReason::MemWait);
    };
    std::sort(mem_nodes.begin(), mem_nodes.end(),
              [&](NodeId a, NodeId b) { return memStall(a) > memStall(b); });
    if (mem_nodes.size() > 5)
        mem_nodes.resize(5);
    for (NodeId id : mem_nodes) {
        const Node &n = cw.graph.node(id);
        const NodeStallCounters &c = run.nodeStalls[id];
        double lat = id < run.nodeMemLatency.size()
                         ? run.nodeMemLatency[id].mean()
                         : 0.0;
        std::string what =
            n.name.empty() ? std::string(opName(n.op)) : n.name;
        std::printf("  n%u %s [%s]: fired=%llu mem_stall=%llu "
                    "avg_lat=%.1f\n",
                    id, what.c_str(),
                    std::string(criticalityName(n.crit)).c_str(),
                    static_cast<unsigned long long>(
                        c.of(StallReason::Fired)),
                    static_cast<unsigned long long>(memStall(id)), lat);
    }

    std::fputs(
        validateCriticalityRanks(cw.graph, run.nodeMemLatency)
            .table.c_str(),
        stdout);
}

MachineConfig
primaryConfig(MemModel model, int upea_latency)
{
    MachineConfig cfg;
    cfg.mem.model = model;
    cfg.mem.upeaLatency = upea_latency;
    // The paper sets Monaco's clock divider to 2 for the primary
    // comparisons and gives the baselines the same fabric (Sec. 6).
    cfg.clockDivider = 2;
    return cfg;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

void
printRow(const std::string &label, const std::vector<std::string> &cells,
         int label_width, int cell_width)
{
    std::printf("%-*s", label_width, label.c_str());
    for (const std::string &cell : cells)
        std::printf("%*s", cell_width, cell.c_str());
    std::printf("\n");
}

std::string
fmt(double value, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << value;
    return os.str();
}

} // namespace bench
} // namespace nupea
