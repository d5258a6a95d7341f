#include "dfg/interp.h"

#include "common/log.h"

namespace nupea
{

namespace
{

// NodeState::state values.
constexpr std::uint8_t kSourceDone = 0, kSourcePending = 1;
constexpr std::uint8_t kMergeInit = 0, kMergeCtrl = 1;
constexpr std::uint8_t kHoldEmpty = 0, kHoldHeld = 1;

/** Ring capacity a port allocates on its first token. */
constexpr std::uint32_t kFirstRingCap = 8;

} // namespace

Interp::Interp(const Graph &graph, ByteBuffer &memory) : mem_(memory)
{
    const std::size_t n = graph.numNodes();
    nodes_.resize(n);
    for (NodeId id = 0; id < n; ++id) {
        const Node &gn = graph.node(id);
        NodeState &ns = nodes_[id];
        ns.op = gn.op;
        ns.numInputs = static_cast<std::uint8_t>(gn.inputs.size());
        ns.firstPort = static_cast<std::uint32_t>(ports_.size());
        for (const InputConn &in : gn.inputs) {
            Port &port = ports_.emplace_back();
            port.isImm = in.isImm;
            port.imm = in.imm;
        }
        if (gn.op == Op::Source) {
            ns.state = kSourcePending;
            ns.value = gn.imm;
        } else if (gn.op == Op::Sink) {
            ns.value = static_cast<Word>(sinks_.size());
            sinks_.push_back({id, SinkRecord{}});
        }
    }

    const auto &fanout = graph.fanout();
    for (NodeId id = 0; id < n; ++id) {
        NodeState &ns = nodes_[id];
        ns.fanoutBegin = static_cast<std::uint32_t>(fanout_.size());
        for (const PortRef &dst : fanout[id])
            fanout_.push_back(
                {dst.node, nodes_[dst.node].firstPort + dst.port});
        ns.fanoutEnd = static_cast<std::uint32_t>(fanout_.size());
    }
}

Word
Interp::loadWord(Addr addr) const
{
    NUPEA_ASSERT(std::uint64_t{addr} + 4 <= mem_.size(),
                 "load out of bounds: ", addr);
    NUPEA_ASSERT((addr & 3) == 0, "unaligned load: ", addr);
    std::uint32_t v = 0;
    v |= mem_[addr];
    v |= static_cast<std::uint32_t>(mem_[addr + 1]) << 8;
    v |= static_cast<std::uint32_t>(mem_[addr + 2]) << 16;
    v |= static_cast<std::uint32_t>(mem_[addr + 3]) << 24;
    return static_cast<Word>(v);
}

void
Interp::storeWord(Addr addr, Word value)
{
    NUPEA_ASSERT(std::uint64_t{addr} + 4 <= mem_.size(),
                 "store out of bounds: ", addr);
    NUPEA_ASSERT((addr & 3) == 0, "unaligned store: ", addr);
    auto v = static_cast<std::uint32_t>(value);
    mem_[addr] = static_cast<std::uint8_t>(v);
    mem_[addr + 1] = static_cast<std::uint8_t>(v >> 8);
    mem_[addr + 2] = static_cast<std::uint8_t>(v >> 16);
    mem_[addr + 3] = static_cast<std::uint8_t>(v >> 24);
}

Word
Interp::Port::take()
{
    if (isImm)
        return imm;
    Word v = ring[head];
    head = (head + 1) & (cap - 1);
    --count;
    return v;
}

void
Interp::Port::push(Word value)
{
    if (count == cap) {
        std::uint32_t grown = cap == 0 ? kFirstRingCap : 2 * cap;
        std::unique_ptr<Word[]> fresh(new Word[grown]);
        for (std::uint32_t i = 0; i < count; ++i)
            fresh[i] = ring[(head + i) & (cap - 1)];
        ring = std::move(fresh);
        cap = grown;
        head = 0;
    }
    ring[(head + count) & (cap - 1)] = value;
    ++count;
}

void
Interp::emit(const NodeState &node, Word value)
{
    for (std::uint32_t e = node.fanoutBegin; e < node.fanoutEnd; ++e)
        ports_[fanout_[e].port].push(value);
}

int
Interp::step(NodeId id, InterpResult &result)
{
    NodeState &n = nodes_[id];
    Port *in = ports_.data() + n.firstPort;

    switch (n.op) {
      case Op::Source:
        if (n.state != kSourcePending)
            return -1;
        n.state = kSourceDone;
        emit(n, n.value);
        return 1;

      case Op::Sink: {
        if (!in[0].ready())
            return -1;
        Word a = in[0].take();
        SinkRecord &rec = sinks_[static_cast<std::size_t>(n.value)].rec;
        ++rec.count;
        rec.last = a;
        rec.sum += a;
        return 0;
      }

      case Op::LoopMerge:
        if (n.state == kMergeInit) {
            if (!in[0].ready())
                return -1;
            n.state = kMergeCtrl;
            emit(n, in[0].take());
            return 1;
        }
        if (!in[2].ready())
            return -1;
        if (in[2].front() != 0) {
            if (!in[1].ready())
                return -1;
            in[2].take();
            emit(n, in[1].take());
            return 1;
        }
        in[2].take();
        n.state = kMergeInit;
        return 0;

      case Op::Invariant:
      case Op::InvariantGated:
        if (n.state == kHoldEmpty) {
            if (!in[0].ready())
                return -1;
            n.value = in[0].take();
            n.state = kHoldHeld;
            if (n.op == Op::InvariantGated)
                return 0; // body-side flavor: wait for a true ctrl
            emit(n, n.value); // condition-side flavor: emit on arrival
            return 1;
        }
        if (!in[1].ready())
            return -1;
        if (in[1].take() != 0) {
            emit(n, n.value);
            return 1;
        }
        n.state = kHoldEmpty;
        return 0;

      case Op::SteerTrue:
      case Op::SteerFalse: {
        if (!in[0].ready() || !in[1].ready())
            return -1;
        Word c = in[0].take();
        Word a = in[1].take();
        if ((c != 0) == (n.op == Op::SteerTrue)) {
            emit(n, a);
            return 1;
        }
        return 0;
      }

      case Op::Select: {
        if (!in[0].ready() || !in[1].ready() || !in[2].ready())
            return -1;
        Word c = in[0].take();
        Word a = in[1].take();
        Word b = in[2].take();
        emit(n, c != 0 ? a : b);
        return 1;
      }

      case Op::Load: {
        if (!in[0].ready() || (n.numInputs > 1 && !in[1].ready()))
            return -1;
        auto addr = static_cast<Addr>(in[0].take());
        if (n.numInputs > 1)
            in[1].take();
        Word v = loadWord(addr);
        ++result.loads;
        if (memObserver_)
            memObserver_(id, addr, false);
        emit(n, v);
        return 1;
      }

      case Op::Store: {
        if (!in[0].ready() || !in[1].ready() ||
            (n.numInputs > 2 && !in[2].ready()))
            return -1;
        auto addr = static_cast<Addr>(in[0].take());
        Word v = in[1].take();
        if (n.numInputs > 2)
            in[2].take();
        storeWord(addr, v);
        ++result.stores;
        if (memObserver_)
            memObserver_(id, addr, true);
        emit(n, 0); // done token
        return 1;
      }

      case Op::Neg:
      case Op::Not:
        if (!in[0].ready())
            return -1;
        emit(n, evalUnary(n.op, in[0].take()));
        return 1;

      default: {
        if (!in[0].ready() || !in[1].ready())
            return -1;
        NUPEA_ASSERT(opIsBinaryArith(n.op), "unhandled op ",
                     opName(n.op));
        Word a = in[0].take();
        Word b = in[1].take();
        emit(n, evalBinary(n.op, a, b));
        return 1;
      }
    }
}

void
Interp::exportSinks(InterpResult &result) const
{
    for (const SinkSlot &s : sinks_) {
        if (s.rec.count > 0)
            result.sinks.emplace_hint(result.sinks.end(), s.node, s.rec);
    }
}

InterpResult
Interp::run(std::uint64_t max_firings)
{
    const std::size_t n = nodes_.size();
    InterpResult result;
    result.nodeFires.assign(n, 0);
    result.nodeEmits.assign(n, 0);
    for (SinkSlot &s : sinks_)
        s.rec = SinkRecord{};

    // Worklist execution: seed every node, pop from the back, fire the
    // popped node while it is ready, and after each firing queue its
    // consumers in fanout order. This schedule fixes the order of the
    // memory accesses (the observer sequence), and with it the outcome
    // of any accesses that race, so it must not change.
    std::vector<NodeId> worklist(n);
    std::vector<std::uint8_t> queued(n, 1);
    for (NodeId id = 0; id < n; ++id)
        worklist[id] = id;

    while (!worklist.empty()) {
        NodeId id = worklist.back();
        worklist.pop_back();
        queued[id] = 0;

        int emitted;
        while ((emitted = step(id, result)) >= 0) {
            ++result.nodeFires[id];
            result.nodeEmits[id] += static_cast<std::uint64_t>(emitted);
            ++result.firings;
            if (result.firings > max_firings) {
                result.problems.push_back(
                    "firing bound exceeded (livelock?)");
                exportSinks(result);
                return result;
            }
            const NodeState &ns = nodes_[id];
            for (std::uint32_t e = ns.fanoutBegin; e < ns.fanoutEnd; ++e) {
                NodeId dst = fanout_[e].node;
                if (!queued[dst]) {
                    queued[dst] = 1;
                    worklist.push_back(dst);
                }
            }
        }
    }
    exportSinks(result);

    // Quiescent: verify no stranded state.
    result.clean = true;
    for (NodeId id = 0; id < n; ++id) {
        const NodeState &ns = nodes_[id];
        for (std::uint32_t p = 0; p < ns.numInputs; ++p) {
            const Port &port = ports_[ns.firstPort + p];
            if (port.count != 0) {
                result.clean = false;
                result.problems.push_back(formatMessage(
                    port.count, " token(s) stranded at node ", id, " (",
                    opName(ns.op), ") port ", p));
            }
        }
        if ((ns.op == Op::Invariant || ns.op == Op::InvariantGated) &&
            ns.state == kHoldHeld) {
            result.clean = false;
            result.problems.push_back(formatMessage(
                "invariant node ", id, " still holds a value"));
        }
        if (ns.op == Op::LoopMerge && ns.state != kMergeInit) {
            result.clean = false;
            result.problems.push_back(formatMessage(
                "merge node ", id, " not back in init state"));
        }
    }
    return result;
}

} // namespace nupea
