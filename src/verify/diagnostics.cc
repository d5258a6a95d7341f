#include "verify/diagnostics.h"

#include <sstream>

#include "common/log.h"

namespace nupea
{

std::string_view
severityName(Severity s)
{
    switch (s) {
      case Severity::Error: return "error";
      case Severity::Warning: return "warning";
      case Severity::Note: return "note";
    }
    return "?";
}

namespace
{

/** Catalog row: stable string id, default severity, description. */
struct DiagInfo
{
    std::string_view name;
    Severity severity;
    std::string_view description;
};

constexpr DiagInfo kCatalog[kNumDiagIds] = {
    {"struct.bad-opcode", Severity::Error,
     "node opcode is outside the instruction set"},
    {"struct.arity", Severity::Error,
     "input count outside the opcode's [min, max] arity"},
    {"struct.port-unconnected", Severity::Error,
     "input port neither wired to a producer nor an immediate"},
    {"struct.port-bad-ref", Severity::Error,
     "input port references a node id outside the graph"},
    {"struct.sink-consumed", Severity::Error,
     "input wired to a Sink, which never produces tokens"},
    {"struct.crit-on-non-mem", Severity::Error,
     "criticality class set on a non-memory node"},
    {"struct.loop-ref", Severity::Error,
     "node's loop id is outside the graph's loop tree"},
    {"struct.loop-depth", Severity::Error,
     "node's loopDepth disagrees with the loop tree"},
    {"struct.merge-ctrl-imm", Severity::Error,
     "LoopMerge decider input is an immediate (ring never closes)"},
    {"struct.invariant-ctrl-imm", Severity::Error,
     "Invariant ctrl input is an immediate (unbounded re-emission)"},
    {"struct.comb-cycle", Severity::Error,
     "combinational cycle with no LoopMerge (zero-latency ring)"},
    {"struct.unused-output", Severity::Warning,
     "arith node's output has no consumers (dead compute)"},
    {"struct.unreachable", Severity::Warning,
     "node can never fire: no token path from any Source"},
    {"struct.steer-const-ctrl", Severity::Warning,
     "steer ctrl is an immediate (always-forward or always-drop)"},

    {"rate.all-imm", Severity::Error,
     "every input is an immediate: the node fires unboundedly"},
    {"rate.deadlock-cycle", Severity::Error,
     "dataflow cycle with no LoopMerge/Invariant to seed it"},
    {"rate.mismatch", Severity::Error,
     "inputs arrive at different token rates (leak or starvation)"},
    {"rate.back-edge", Severity::Error,
     "merge back edge does not produce once per body iteration"},
    {"rate.ctrl-rate", Severity::Error,
     "loop decider does not fire once per condition evaluation"},
    {"rate.decider-mismatch", Severity::Error,
     "merges/repeaters of one loop are driven by different deciders"},
    {"rate.nonterminating-loop", Severity::Error,
     "loop decider does not depend on any carried value"},

    {"place.size", Severity::Error,
     "placement does not assign exactly one tile per node"},
    {"place.off-fabric", Severity::Error,
     "node placed outside the fabric grid"},
    {"place.mem-on-non-ls", Severity::Error,
     "memory instruction placed on a tile without a memory FU"},
    {"place.fu-capacity", Severity::Error,
     "tile hosts more instructions of an FU class than it has slots"},
    {"place.port-range", Severity::Error,
     "memory instruction's tile maps to an invalid memory port"},
    {"route.failed", Severity::Error,
     "router gave up with oversubscribed links"},
    {"route.overuse", Severity::Error,
     "routed link usage exceeds its track capacity"},
    {"route.missing-net", Severity::Error,
     "inter-tile dataflow edge has no routed net"},
    {"route.stale-net", Severity::Warning,
     "routed net matches no dataflow edge of the placed graph"},

    {"perf.recurrence-bound", Severity::Warning,
     "a loop-carried recurrence dominates the predicted runtime"},
    {"perf.bank-hotspot", Severity::Warning,
     "memory traffic concentrates on one port/arbiter far above the mean"},
    {"perf.underutilized-column", Severity::Warning,
     "a D0 column carries no traffic while slower domains are loaded"},
};

const DiagInfo &
catalogEntry(DiagId id)
{
    auto idx = static_cast<int>(id);
    NUPEA_ASSERT(idx >= 0 && idx < kNumDiagIds, "bad DiagId ", idx);
    return kCatalog[idx];
}

} // namespace

std::string_view
diagIdName(DiagId id)
{
    return catalogEntry(id).name;
}

Severity
diagIdSeverity(DiagId id)
{
    return catalogEntry(id).severity;
}

std::string_view
diagIdDescription(DiagId id)
{
    return catalogEntry(id).description;
}

void
DiagnosticReport::add(DiagId id, std::string message)
{
    Diagnostic d;
    d.id = id;
    d.severity = diagIdSeverity(id);
    d.message = std::move(message);
    diags_.push_back(std::move(d));
}

void
DiagnosticReport::addNode(DiagId id, const Graph &graph, NodeId node,
                          std::string message)
{
    Diagnostic d;
    d.id = id;
    d.severity = diagIdSeverity(id);
    d.message = std::move(message);
    d.node = node;
    if (node < graph.numNodes()) {
        const Node &n = graph.node(node);
        d.nodeName = n.name;
        d.loop = n.loop;
    }
    diags_.push_back(std::move(d));
}

std::size_t
DiagnosticReport::errorCount() const
{
    std::size_t count = 0;
    for (const Diagnostic &d : diags_) {
        if (d.severity == Severity::Error)
            ++count;
    }
    return count;
}

std::size_t
DiagnosticReport::warningCount() const
{
    std::size_t count = 0;
    for (const Diagnostic &d : diags_) {
        if (d.severity == Severity::Warning)
            ++count;
    }
    return count;
}

bool
DiagnosticReport::has(DiagId id) const
{
    return find(id) != nullptr;
}

const Diagnostic *
DiagnosticReport::find(DiagId id) const
{
    for (const Diagnostic &d : diags_) {
        if (d.id == id)
            return &d;
    }
    return nullptr;
}

void
DiagnosticReport::append(const DiagnosticReport &other)
{
    diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

std::string
DiagnosticReport::renderText() const
{
    std::ostringstream os;
    for (const Diagnostic &d : diags_) {
        os << severityName(d.severity) << '[' << diagIdName(d.id) << ']';
        if (d.node != kInvalidId) {
            os << " node " << d.node;
            if (!d.nodeName.empty())
                os << " '" << d.nodeName << "'";
        }
        if (d.loop != kInvalidId)
            os << " in loop " << d.loop;
        os << ": " << d.message << '\n';
    }
    return os.str();
}

} // namespace nupea
