#include "dfg/graph.h"

#include <sstream>

#include "common/log.h"

namespace nupea
{

std::string_view
criticalityName(Criticality c)
{
    switch (c) {
      case Criticality::Critical: return "critical";
      case Criticality::InnerLoop: return "inner-loop";
      case Criticality::OtherMem: return "other-mem";
      case Criticality::None: return "none";
    }
    return "?";
}

NodeId
Graph::addNode(Op op, int ninputs, std::string name)
{
    const OpTraits &traits = opTraits(op);
    NUPEA_ASSERT(ninputs >= traits.minInputs && ninputs <= traits.maxInputs,
                 "op ", traits.name, " with ", ninputs, " inputs");
    Node n;
    n.op = op;
    n.inputs.resize(static_cast<std::size_t>(ninputs));
    n.name = std::move(name);
    nodes_.push_back(std::move(n));
    fanoutValid_ = false;
    return static_cast<NodeId>(nodes_.size() - 1);
}

void
Graph::connect(NodeId dst, int port, NodeId src)
{
    NUPEA_ASSERT(dst < nodes_.size() && src < nodes_.size());
    Node &n = nodes_[dst];
    NUPEA_ASSERT(port >= 0 && port < static_cast<int>(n.inputs.size()),
                 "bad port ", port, " on ", opName(n.op));
    n.inputs[static_cast<std::size_t>(port)] = InputConn::fromNode(src);
    fanoutValid_ = false;
}

void
Graph::setImm(NodeId dst, int port, Word value)
{
    NUPEA_ASSERT(dst < nodes_.size());
    Node &n = nodes_[dst];
    NUPEA_ASSERT(port >= 0 && port < static_cast<int>(n.inputs.size()));
    n.inputs[static_cast<std::size_t>(port)] = InputConn::fromImm(value);
}

LoopId
Graph::addLoop(LoopId parent)
{
    LoopInfo info;
    info.parent = parent;
    if (parent != kInvalidId) {
        NUPEA_ASSERT(parent < loops_.size());
        info.depth = static_cast<std::uint8_t>(loops_[parent].depth + 1);
        loops_[parent].hasChildren = true;
    } else {
        info.depth = 1;
    }
    loops_.push_back(info);
    return static_cast<LoopId>(loops_.size() - 1);
}

Node &
Graph::node(NodeId id)
{
    NUPEA_ASSERT(id < nodes_.size());
    fanoutValid_ = false;
    return nodes_[id];
}

const Node &
Graph::node(NodeId id) const
{
    NUPEA_ASSERT(id < nodes_.size());
    return nodes_[id];
}

const LoopInfo &
Graph::loopInfo(LoopId id) const
{
    NUPEA_ASSERT(id < loops_.size());
    return loops_[id];
}

const std::vector<std::vector<PortRef>> &
Graph::fanout() const
{
    if (!fanoutValid_) {
        fanout_.assign(nodes_.size(), {});
        for (NodeId id = 0; id < nodes_.size(); ++id) {
            const Node &n = nodes_[id];
            for (std::size_t p = 0; p < n.inputs.size(); ++p) {
                const InputConn &in = n.inputs[p];
                if (!in.isImm && in.src != kInvalidId) {
                    fanout_[in.src].push_back(
                        {id, static_cast<std::uint8_t>(p)});
                }
            }
        }
        fanoutValid_ = true;
    }
    return fanout_;
}

std::size_t
Graph::countFu(FuClass fu) const
{
    std::size_t count = 0;
    for (const Node &n : nodes_) {
        if (opTraits(n.op).fu == fu)
            ++count;
    }
    return count;
}

std::size_t
Graph::countCrit(Criticality c) const
{
    std::size_t count = 0;
    for (const Node &n : nodes_) {
        if (n.crit == c)
            ++count;
    }
    return count;
}

std::string
Graph::toDot() const
{
    std::ostringstream os;
    os << "digraph dfg {\n  rankdir=TB;\n";
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        const Node &n = nodes_[id];
        os << "  n" << id << " [label=\"" << id << ":" << opName(n.op);
        if (!n.name.empty())
            os << "\\n" << n.name;
        if (n.crit != Criticality::None)
            os << "\\n[" << criticalityName(n.crit) << "]";
        os << "\"";
        if (opTraits(n.op).isMemory)
            os << ", shape=box";
        if (n.crit == Criticality::Critical)
            os << ", color=red";
        os << "];\n";
    }
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        const Node &n = nodes_[id];
        for (std::size_t p = 0; p < n.inputs.size(); ++p) {
            const InputConn &in = n.inputs[p];
            if (!in.isImm && in.src != kInvalidId) {
                os << "  n" << in.src << " -> n" << id << " [label=\"" << p
                   << "\"];\n";
            }
        }
    }
    os << "}\n";
    return os.str();
}

std::string
Graph::toText() const
{
    std::ostringstream os;
    for (NodeId id = 0; id < nodes_.size(); ++id) {
        const Node &n = nodes_[id];
        os << id << "\t" << opName(n.op);
        if (n.op == Op::Source)
            os << " #" << n.imm;
        os << "\t[";
        for (std::size_t p = 0; p < n.inputs.size(); ++p) {
            if (p)
                os << ", ";
            const InputConn &in = n.inputs[p];
            if (in.isImm)
                os << "#" << in.imm;
            else if (in.src == kInvalidId)
                os << "?";
            else
                os << in.src;
        }
        os << "]";
        if (n.loopDepth)
            os << "\tL" << n.loop << "/d" << int(n.loopDepth);
        if (n.crit != Criticality::None)
            os << "\t" << criticalityName(n.crit);
        if (!n.name.empty())
            os << "\t; " << n.name;
        os << "\n";
    }
    return os.str();
}

} // namespace nupea
