/**
 * @file
 * Dataflow graph (DFG) intermediate representation.
 *
 * A Graph is a set of nodes, each holding one dataflow instruction.
 * Every node has a single output that may fan out to any number of
 * consumer input ports; each input port is either connected to a
 * producer or holds a compile-time immediate.
 *
 * Nodes carry loop metadata (set by the Builder) and a criticality
 * class (set by the compiler's criticality analysis) used by
 * NUPEA-aware place-and-route.
 */

#ifndef NUPEA_DFG_GRAPH_H
#define NUPEA_DFG_GRAPH_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "dfg/opcode.h"

namespace nupea
{

/** Index of a node within its Graph. */
using NodeId = std::uint32_t;

/** Index of a loop within the Graph's loop tree. */
using LoopId = std::uint32_t;

/**
 * Criticality class of a memory instruction, per the paper's effcc
 * heuristics (Sec. 5). Lower enumerator = more critical = stronger
 * preference for fast NUPEA domains.
 */
enum class Criticality : std::uint8_t
{
    Critical,  ///< class (a): load on a loop-governing recurrence
    InnerLoop, ///< class (b): memory op in an innermost loop
    OtherMem,  ///< class (c): any other memory op
    None,      ///< not a memory op / unclassified
};

/** Printable criticality name. */
std::string_view criticalityName(Criticality c);

/** One input port: either wired to a producer node or an immediate. */
struct InputConn
{
    NodeId src = kInvalidId; ///< producer node, or kInvalidId for imm
    Word imm = 0;            ///< immediate value when src is invalid
    bool isImm = false;

    static InputConn
    fromNode(NodeId n)
    {
        InputConn c;
        c.src = n;
        return c;
    }

    static InputConn
    fromImm(Word v)
    {
        InputConn c;
        c.imm = v;
        c.isImm = true;
        return c;
    }

    bool connected() const { return isImm || src != kInvalidId; }
};

/** A dataflow instruction plus its metadata. */
struct Node
{
    Op op = Op::Sink;
    Word imm = 0; ///< payload for Op::Source
    std::vector<InputConn> inputs;

    LoopId loop = kInvalidId;    ///< innermost enclosing loop, if any
    std::uint8_t loopDepth = 0;  ///< nesting depth (0 = top level)
    Criticality crit = Criticality::None;
    std::string name;            ///< optional debug label
};

/** One entry in the Graph's loop tree. */
struct LoopInfo
{
    LoopId parent = kInvalidId;
    std::uint8_t depth = 0;   ///< 1 for top-level loops
    bool hasChildren = false; ///< true if some loop nests inside this one
};

/** A (consumer node, input port) pair; the target of a fanout edge. */
struct PortRef
{
    NodeId node = kInvalidId;
    std::uint8_t port = 0;

    bool operator==(const PortRef &other) const = default;
};

/**
 * The dataflow graph. Construction normally goes through Builder;
 * Graph itself only offers the raw add/connect primitives plus
 * queries used by the compiler and simulator.
 */
class Graph
{
  public:
    /** Append a node; inputs are sized to `ninputs` and unconnected. */
    NodeId addNode(Op op, int ninputs, std::string name = "");

    /** Wire input `port` of `dst` to the output of `src`. */
    void connect(NodeId dst, int port, NodeId src);

    /** Set input `port` of `dst` to an immediate. */
    void setImm(NodeId dst, int port, Word value);

    /** Register a loop in the loop tree; returns its id. */
    LoopId addLoop(LoopId parent);

    /** Mutable access; drops the fanout cache. */
    Node &node(NodeId id);
    const Node &node(NodeId id) const;

    /** Set a node's criticality class. Unlike a write through the
     *  non-const node(), this keeps the fanout cache, which does not
     *  depend on criticality. */
    void setCrit(NodeId id, Criticality crit);

    std::size_t numNodes() const { return nodes_.size(); }
    const std::vector<Node> &nodes() const { return nodes_; }

    const LoopInfo &loopInfo(LoopId id) const;
    std::size_t numLoops() const { return loops_.size(); }

    /**
     * Consumers of each node's output, indexed by producer id.
     * Rebuilt lazily; invalidated by mutation.
     */
    const std::vector<std::vector<PortRef>> &fanout() const;

    /** Count nodes requiring a given FU class. */
    std::size_t countFu(FuClass fu) const;

  private:
    std::vector<Node> nodes_;
    std::vector<LoopInfo> loops_;
    mutable std::vector<std::vector<PortRef>> fanout_;
    mutable bool fanoutValid_ = false;
};

} // namespace nupea

#endif // NUPEA_DFG_GRAPH_H
