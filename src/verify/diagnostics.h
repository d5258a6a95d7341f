/**
 * @file
 * Structured diagnostics for the static verifier.
 *
 * Every verifier rule reports through a Diagnostic carrying a stable
 * id (e.g. "rate.back-edge"), a severity, a message, and provenance:
 * the offending node (with its builder debug name when one was set)
 * and, where meaningful, the loop it belongs to. A DiagnosticReport
 * collects them and renders either a human-readable text listing or
 * a machine-readable JSON array.
 *
 * Severity policy: an Error means the graph/placement will hang,
 * drop tokens, or violate a fabric constraint if simulated; a
 * Warning means the construct is legal but almost certainly
 * unintended (dead compute, constant steer control); Notes carry
 * supplementary provenance. Only Errors fail a check: takeGraph(),
 * placeGraph() and the bench harness stop on Errors alone.
 */

#ifndef NUPEA_VERIFY_DIAGNOSTICS_H
#define NUPEA_VERIFY_DIAGNOSTICS_H

#include <cstdint>
#include <string>
#include <vector>

#include "dfg/graph.h"

namespace nupea
{

/** How bad a finding is; ordered most-severe first. */
enum class Severity : std::uint8_t
{
    Error,   ///< would hang, leak tokens, or break a fabric constraint
    Warning, ///< legal but almost certainly a construction mistake
    Note,    ///< supplementary information attached to another finding
};

/** Printable severity name ("error", "warning", "note"). */
std::string_view severityName(Severity s);

/**
 * Stable identity of a verifier rule. The string form (diagIdName)
 * is the contract tests and tooling key on; enumerators may be
 * reordered but the strings must never change meaning.
 */
enum class DiagId : std::uint8_t
{
    // Structural rules (struct.*).
    StructBadOpcode,       ///< struct.bad-opcode
    StructArity,           ///< struct.arity
    StructPortUnconnected, ///< struct.port-unconnected
    StructPortBadRef,      ///< struct.port-bad-ref
    StructSinkConsumed,    ///< struct.sink-consumed
    StructCritNonMem,      ///< struct.crit-on-non-mem
    StructLoopRef,         ///< struct.loop-ref
    StructLoopDepth,       ///< struct.loop-depth
    StructMergeCtrlImm,    ///< struct.merge-ctrl-imm
    StructInvarCtrlImm,    ///< struct.invariant-ctrl-imm
    StructCombCycle,       ///< struct.comb-cycle
    StructUnusedOutput,    ///< struct.unused-output
    StructUnreachable,     ///< struct.unreachable
    StructSteerConstCtrl,  ///< struct.steer-const-ctrl

    // Token-rate / deadlock rules (rate.*).
    RateAllImm,         ///< rate.all-imm
    RateDeadlockCycle,  ///< rate.deadlock-cycle
    RateMismatch,       ///< rate.mismatch
    RateBackEdge,       ///< rate.back-edge
    RateCtrlRate,       ///< rate.ctrl-rate
    RateDeciderMixed,   ///< rate.decider-mismatch
    RateNonTerminating, ///< rate.nonterminating-loop

    // Placement / routing legality rules (place.* / route.*).
    PlaceSize,       ///< place.size
    PlaceOffFabric,  ///< place.off-fabric
    PlaceMemNonLs,   ///< place.mem-on-non-ls
    PlaceOverCap,    ///< place.fu-capacity
    PlacePortRange,  ///< place.port-range
    PlaceGraphDiff,  ///< place.graph-mismatch
    RouteFailed,     ///< route.failed
    RouteOveruse,    ///< route.overuse
    RouteMissingNet, ///< route.missing-net
    RouteStaleNet,   ///< route.stale-net

    // Static performance-model hazards (perf.*), reported by
    // analysis/hazards.h from the closed-form estimator.
    PerfRecurrenceBound,     ///< perf.recurrence-bound
    PerfBankHotspot,         ///< perf.bank-hotspot
    PerfUnderutilizedColumn, ///< perf.underutilized-column
};

/** Number of distinct diagnostic ids (for catalog iteration). */
constexpr int kNumDiagIds =
    static_cast<int>(DiagId::PerfUnderutilizedColumn) + 1;

/** Stable dotted string id, e.g. "struct.arity". */
std::string_view diagIdName(DiagId id);

/** Default severity a rule reports at. */
Severity diagIdSeverity(DiagId id);

/** One-line catalog description of the rule (for docs/tooling). */
std::string_view diagIdDescription(DiagId id);

/** One verifier finding. */
struct Diagnostic
{
    DiagId id = DiagId::StructArity;
    Severity severity = Severity::Error;
    std::string message;
    /** Offending node, or kInvalidId for graph-level findings. */
    NodeId node = kInvalidId;
    /** Builder debug name of `node` when one was set. */
    std::string nodeName;
    /** Loop provenance, when the rule is loop-scoped. */
    LoopId loop = kInvalidId;
};

/** Ordered collection of findings from one verifier run. */
class DiagnosticReport
{
  public:
    /** Append a graph-level finding at the rule's default severity. */
    void add(DiagId id, std::string message);

    /** Append a node-located finding; name/loop read from `graph`. */
    void addNode(DiagId id, const Graph &graph, NodeId node,
                 std::string message);

    /** Append a fully specified finding. */
    void addRaw(Diagnostic diag);

    const std::vector<Diagnostic> &diags() const { return diags_; }
    bool empty() const { return diags_.empty(); }
    std::size_t errorCount() const;
    std::size_t warningCount() const;
    bool hasErrors() const { return errorCount() > 0; }

    /** True if any finding carries this rule id. */
    bool has(DiagId id) const;

    /** First finding with this rule id, or nullptr. */
    const Diagnostic *find(DiagId id) const;

    /** Merge another report's findings after this one's. */
    void append(const DiagnosticReport &other);

    /**
     * Human-readable listing, one finding per line:
     *   error[rate.back-edge] node 7 'phi0' (merge) in loop 2: ...
     * Empty string when there are no findings.
     */
    std::string renderText() const;

    /** JSON array of findings (id, severity, message, node, ...). */
    std::string renderJson() const;

  private:
    std::vector<Diagnostic> diags_;
};

} // namespace nupea

#endif // NUPEA_VERIFY_DIAGNOSTICS_H
