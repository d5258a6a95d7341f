#include "sim/machine.h"

#include <algorithm>

#include "common/log.h"
#include "sim/trace.h"

namespace nupea
{

std::string_view
stallReasonName(StallReason r)
{
    switch (r) {
      case StallReason::Fired: return "fired";
      case StallReason::OperandWait: return "operand_wait";
      case StallReason::Backpressure: return "backpressure";
      case StallReason::OutstandingCap: return "outstanding_cap";
      case StallReason::RespUndeliverable: return "resp_undeliverable";
      case StallReason::MemWait: return "mem_wait";
      case StallReason::Idle: return "idle";
    }
    return "?";
}

namespace
{

/** FU-class name for stall stat keys. */
std::string_view
fuClassKey(FuClass fu)
{
    switch (fu) {
      case FuClass::Arith: return "arith";
      case FuClass::Control: return "control";
      case FuClass::Mem: return "mem";
      case FuClass::XData: return "xdata";
    }
    return "?";
}

/** Reasons that open/close a trace stall interval (not fired/idle). */
bool
isTracedStall(StallReason r)
{
    return r != StallReason::Fired && r != StallReason::Idle;
}

} // namespace

Machine::Machine(const Graph &graph, const Placement &placement,
                 const Topology &topo, const MachineConfig &config,
                 BackingStore &store)
    : graph_(graph), placement_(placement), topo_(topo), config_(config),
      store_(store), memsys_(config.memsys, store)
{
    NUPEA_ASSERT(config_.clockDivider >= 1);
    NUPEA_ASSERT(config_.fifoDepth >= 1);
    NUPEA_ASSERT(config_.maxOutstanding >= 1);
    // Token/PendingResponse pack their cycle into 32 bits.
    NUPEA_ASSERT(config_.maxFabricCycles < 0xffffff00ull,
                 "watchdog bound too large for packed token cycles");
    attrOn_ = config_.stallAttribution;

    memModel_ = makeMemAccessModel(config_.mem, config_.clockDivider,
                                   topo_, memsys_);

    buildDispatchTables();

    std::size_t n = graph_.numNodes();
    tokens_.init(inPorts_.size(),
                 static_cast<std::size_t>(config_.fifoDepth));
    pending_.init(memNodes_.size(),
                  static_cast<std::size_t>(config_.maxOutstanding));

    // Immediates live in their ring as one resident, always-visible
    // token (never popped, never emitted into), so portVisible() is a
    // plain ring probe.
    for (std::uint32_t p = 0; p < inPorts_.size(); ++p) {
        if (inPorts_[p].isImm)
            tokens_.push(p, Token{inPorts_[p].imm, 0});
    }

    mergeState_.assign(n, MergeState::Init);
    holdState_.assign(n, HoldState::Empty);
    heldValue_.assign(n, 0);
    sourcePending_.assign(n, 0);
    firedAt_.assign(n, kNoCycle);
    inNow_.assign(n, 0);
    inNext_.assign(n, 0);
    sinkRec_.assign(n, SinkRecord{});
    outstanding_.assign(n, 0);
    listNow_.reserve(n);
    listNext_.reserve(n);
    for (NodeId id = 0; id < n; ++id) {
        if (rows_[id].op == Op::Source) {
            sourcePending_[id] = 1;
            listNext_.push_back(id);
            inNext_[id] = 1;
        }
    }
    if (attrOn_) {
        nodeStalls_.resize(n);
        lastReason_.assign(n, static_cast<std::uint8_t>(StallReason::Idle));
        reasonSince_.assign(n, 0);
        dirtyFlag_.assign(n, 0);
        dirtyList_.reserve(n);
        nodeMemLatency_.resize(n);
    }
    if (config_.trace) {
        config_.trace->setClockDivider(config_.clockDivider);
        for (NodeId id = 0; id < n; ++id)
            config_.trace->onNodeMeta(id, opName(graph_.node(id).op),
                                      placement_.of(id));
    }
}

void
Machine::buildDispatchTables()
{
    std::size_t n = graph_.numNodes();
    NUPEA_ASSERT(placement_.pos.size() == n,
                 "placement does not cover the graph");
    const EnergyParams &energy = config_.energy;

    // Pass 1: per-node dispatch rows — opcode traits, flat port
    // bases, placement tile, per-firing energy. After this pass the
    // scheduling loop never consults graph_ / opTraits() again.
    rows_.resize(n);
    std::uint32_t num_ports = 0;
    for (NodeId id = 0; id < n; ++id) {
        const Node &node = graph_.node(id);
        const OpTraits &traits = opTraits(node.op);
        NodeRow &row = rows_[id];
        row.op = node.op;
        row.fu = traits.fu;
        row.combinational = traits.combinational;
        row.isMemory = traits.isMemory;
        row.numInputs = static_cast<std::uint8_t>(node.inputs.size());
        row.portBase = num_ports;
        num_ports += row.numInputs;
        row.coord = placement_.of(id);
        switch (traits.fu) {
          case FuClass::Arith:
            row.fireEnergy = energy.arithFire;
            break;
          case FuClass::Control:
            row.fireEnergy = energy.controlFire;
            break;
          case FuClass::Mem:
            row.fireEnergy = energy.memIssue;
            break;
          case FuClass::XData:
            row.fireEnergy = energy.xdataFire;
            break;
        }
        if (traits.isMemory) {
            row.memIndex = static_cast<std::int32_t>(memNodes_.size());
            memNodes_.push_back(id);
        }
    }

    // Pass 2: flat input connections and fanout edges. dstPort is a
    // tokens_ ring index and hopEnergy the exact per-token data-NoC
    // charge, so emit() is a pure table walk.
    inPorts_.resize(num_ports);
    const auto &fanout = graph_.fanout();
    std::size_t num_edges = 0;
    for (NodeId id = 0; id < n; ++id)
        num_edges += fanout[id].size();
    outEdges_.reserve(num_edges);
    for (NodeId id = 0; id < n; ++id) {
        const Node &node = graph_.node(id);
        NodeRow &row = rows_[id];
        for (std::size_t p = 0; p < node.inputs.size(); ++p) {
            const InputConn &in = node.inputs[p];
            InPort &port = inPorts_[row.portBase + p];
            port.src = in.src;
            port.imm = in.imm;
            port.isImm = in.isImm;
            if (in.isImm)
                row.immMask |= static_cast<std::uint8_t>(1u << p);
        }
        row.outBase = static_cast<std::uint32_t>(outEdges_.size());
        for (const PortRef &dst : fanout[id]) {
            OutEdge edge;
            edge.dst = dst.node;
            edge.dstPort = rows_[dst.node].portBase + dst.port;
            edge.hopEnergy = energy.noCHopPerToken *
                             row.coord.manhattan(rows_[dst.node].coord);
            outEdges_.push_back(edge);
        }
        row.outCount =
            static_cast<std::uint32_t>(outEdges_.size()) - row.outBase;
    }
}

void
Machine::activate(NodeId id, Cycle cycle)
{
    // Only the current and the next fabric cycle are directly
    // schedulable; later events go through the wakeup heap. A node
    // may sit on both lists at once (e.g., credit freed this cycle
    // while a token arrives next cycle); membership is tracked
    // independently so no wakeup is ever lost.
    if (cycle <= now_) {
        if (!inNow_[id]) {
            inNow_[id] = 1;
            listNow_.push_back(id);
        }
    } else {
        if (!inNext_[id]) {
            inNext_[id] = 1;
            listNext_.push_back(id);
        }
    }
}

void
Machine::markDirty(NodeId id)
{
    if (!dirtyFlag_[id]) {
        dirtyFlag_[id] = 1;
        dirtyList_.push_back(id);
    }
}

bool
Machine::portVisible(std::uint32_t p, Word &value) const
{
    // Immediate ports hold a resident token with visibleAt 0, so one
    // probe covers both cases.
    const Token *t = tokens_.peek(p);
    if (t == nullptr || t->visibleAt > now_)
        return false;
    value = t->value;
    return true;
}

void
Machine::popInput(NodeId id, int port)
{
    std::uint32_t p =
        rows_[id].portBase + static_cast<std::uint32_t>(port);
    const InPort &in = inPorts_[p];
    if (in.isImm)
        return;
    tokens_.pop(p);
    // Freed credit may unblock the producer, this cycle.
    if (in.src != kInvalidId)
        activate(in.src, now_);
}

bool
Machine::outputsHaveCredit(NodeId id) const
{
    const NodeRow &row = rows_[id];
    const OutEdge *edge = outEdges_.data() + row.outBase;
    for (std::uint32_t k = 0; k < row.outCount; ++k, ++edge) {
        if (tokens_.full(edge->dstPort))
            return false;
    }
    return true;
}

void
Machine::emit(NodeId id, Word value, Cycle visible_at)
{
    const NodeRow &row = rows_[id];
    const OutEdge *edge = outEdges_.data() + row.outBase;
    for (std::uint32_t k = 0; k < row.outCount; ++k, ++edge) {
        result_.energy.network += edge->hopEnergy;
        // TokenArena::push asserts ring capacity: emit without credit
        // is a scheduler bug.
        tokens_.push(edge->dstPort,
                     Token{value, static_cast<std::uint32_t>(visible_at)});
        // The push changes the consumer's queue occupancy now even if
        // the token is only visible later, so its classification may
        // flip (e.g. Idle -> OperandWait) this very cycle.
        if (attrOn_)
            markDirty(edge->dst);
        activate(edge->dst, visible_at);
    }
}

void
Machine::fireProlog(NodeId id, const NodeRow &row)
{
    ++result_.firings;
    if (row.fu == FuClass::Mem)
        result_.energy.memory += row.fireEnergy;
    else
        result_.energy.compute += row.fireEnergy;
    firedAt_[id] = now_;
    if (config_.trace)
        config_.trace->onFire(now_, id, opName(row.op));
    // The node may have more queued work next cycle.
    activate(id, now_ + 1);
}

bool
Machine::tryFire(NodeId id)
{
    const NodeRow &row = rows_[id];
    const Cycle out_cycle = row.combinational ? now_ : now_ + 1;
    Word a = 0, b = 0, c = 0;
    // Readiness order within each op: operands before consumer
    // credit — both are pure predicates, and the operand probe
    // touches this node's own rings while the credit scan walks
    // every consumer's, so it is the cheaper one to fail on.
    switch (row.op) {
      case Op::Source:
        if (!sourcePending_[id] || !outputsHaveCredit(id))
            return false;
        fireProlog(id, row);
        sourcePending_[id] = 0;
        emit(id, graph_.node(id).imm, out_cycle);
        return true;

      case Op::Sink: {
        if (!portVisible(row.portBase, a))
            return false;
        fireProlog(id, row);
        popInput(id, 0);
        SinkRecord &rec = sinkRec_[id];
        ++rec.count;
        rec.last = a;
        rec.sum += a;
        return true;
      }

      case Op::LoopMerge:
        if (mergeState_[id] == MergeState::Init) {
            if (!portVisible(row.portBase + 0, a) ||
                !outputsHaveCredit(id))
                return false;
            fireProlog(id, row);
            popInput(id, 0);
            mergeState_[id] = MergeState::Ctrl;
            emit(id, a, out_cycle);
            return true;
        }
        if (!portVisible(row.portBase + 2, c))
            return false;
        if (c != 0 && !portVisible(row.portBase + 1, a))
            return false;
        if (!outputsHaveCredit(id))
            return false;
        fireProlog(id, row);
        popInput(id, 2);
        if (c != 0) {
            popInput(id, 1);
            emit(id, a, out_cycle);
        } else {
            mergeState_[id] = MergeState::Init;
        }
        return true;

      case Op::Invariant:
        if (holdState_[id] == HoldState::Empty) {
            if (!portVisible(row.portBase + 0, a) ||
                !outputsHaveCredit(id))
                return false;
            fireProlog(id, row);
            popInput(id, 0);
            heldValue_[id] = a;
            holdState_[id] = HoldState::Held;
            emit(id, a, out_cycle);
            return true;
        }
        if (!portVisible(row.portBase + 1, c) ||
            !outputsHaveCredit(id))
            return false;
        fireProlog(id, row);
        popInput(id, 1);
        if (c != 0)
            emit(id, heldValue_[id], out_cycle);
        else
            holdState_[id] = HoldState::Empty;
        return true;

      case Op::InvariantGated:
        if (holdState_[id] == HoldState::Empty) {
            if (!portVisible(row.portBase + 0, a) ||
                !outputsHaveCredit(id))
                return false;
            fireProlog(id, row);
            popInput(id, 0);
            heldValue_[id] = a;
            holdState_[id] = HoldState::Held;
            return true;
        }
        if (!portVisible(row.portBase + 1, c) ||
            !outputsHaveCredit(id))
            return false;
        fireProlog(id, row);
        popInput(id, 1);
        if (c != 0)
            emit(id, heldValue_[id], out_cycle);
        else
            holdState_[id] = HoldState::Empty;
        return true;

      case Op::SteerTrue:
      case Op::SteerFalse:
        if (!portVisible(row.portBase + 0, c) ||
            !portVisible(row.portBase + 1, a) ||
            !outputsHaveCredit(id))
            return false;
        fireProlog(id, row);
        popInput(id, 0);
        popInput(id, 1);
        if ((c != 0) == (row.op == Op::SteerTrue))
            emit(id, a, out_cycle);
        return true;

      case Op::Select:
        if (!portVisible(row.portBase + 0, c) ||
            !portVisible(row.portBase + 1, a) ||
            !portVisible(row.portBase + 2, b) ||
            !outputsHaveCredit(id))
            return false;
        fireProlog(id, row);
        popInput(id, 0);
        popInput(id, 1);
        popInput(id, 2);
        emit(id, c != 0 ? a : b, out_cycle);
        return true;

      case Op::Load:
      case Op::Store: {
        if (outstanding_[id] >= config_.maxOutstanding)
            return false;
        const bool is_store = row.op == Op::Store;
        if (!portVisible(row.portBase + 0, a)) // address
            return false;
        Word data = 0;
        if (is_store && !portVisible(row.portBase + 1, data))
            return false;
        // Any further inputs (ordering tokens) must be present too.
        for (std::uint32_t p = is_store ? 2u : 1u; p < row.numInputs;
             ++p) {
            if (!portVisible(row.portBase + p, b))
                return false;
        }
        fireProlog(id, row);
        for (std::uint32_t p = 0; p < row.numInputs; ++p)
            popInput(id, static_cast<int>(p));

        Cycle issue_sys = now_ * static_cast<Cycle>(config_.clockDivider);
        MemAccessOutcome out = memModel_->access(
            row.coord, static_cast<Addr>(a), is_store, data, issue_sys);
        if (config_.trace)
            config_.trace->onMemIssue(issue_sys, out.completeAt, id,
                                      static_cast<Addr>(a), is_store,
                                      out.hit);
        if (attrOn_)
            nodeMemLatency_[id].sample(
                static_cast<double>(out.completeAt - issue_sys));
        // Data-movement energy on the fabric-memory path. Local
        // accesses (NUMA-UPEA same-group hits) bypass the network in
        // both directions and cross zero stages.
        double stages =
            out.local ? 0.0 : memModel_->path().energyStages(row.coord);
        result_.energy.memory +=
            config_.energy.arbHop * stages +
            (out.hit ? config_.energy.cacheHit
                     : config_.energy.cacheMiss);
        if (is_store)
            ++result_.stores;
        else
            ++result_.loads;

        // Response consumable at the first fabric edge at or after
        // system-cycle completion, never before the next fabric cycle.
        Cycle div = static_cast<Cycle>(config_.clockDivider);
        Cycle fabric_ready =
            std::max<Cycle>((out.completeAt + div - 1) / div, now_ + 1);
        pending_.push(static_cast<std::size_t>(row.memIndex),
                      PendingResponse{
                          is_store ? Word{0} : out.data,
                          static_cast<std::uint32_t>(fabric_ready)});
        ++outstanding_[id];
        ++inFlight_;
        wakeups_.push(fabric_ready);
        return true;
      }

      case Op::Neg:
      case Op::Not:
        if (!portVisible(row.portBase + 0, a) ||
            !outputsHaveCredit(id))
            return false;
        fireProlog(id, row);
        popInput(id, 0);
        emit(id, evalUnary(row.op, a), out_cycle);
        return true;

      default:
        NUPEA_ASSERT(opIsBinaryArith(row.op), "unhandled op ",
                     opName(row.op));
        if (!portVisible(row.portBase + 0, a) ||
            !portVisible(row.portBase + 1, b) ||
            !outputsHaveCredit(id))
            return false;
        fireProlog(id, row);
        popInput(id, 0);
        popInput(id, 1);
        emit(id, evalBinary(row.op, a, b), out_cycle);
        return true;
    }
}

void
Machine::deliverResponses()
{
    // Deliver the oldest due response of every memory node (one per
    // node per cycle: the PE's single output port).
    for (std::size_t m = 0; m < memNodes_.size(); ++m) {
        if (pending_.empty(m) || pending_.front(m).fabricReady > now_)
            continue;
        NodeId id = memNodes_[m];
        if (!outputsHaveCredit(id)) {
            // The due-but-blocked response flips this node's
            // classification (MemWait -> RespUndeliverable) without
            // any worklist activity this cycle.
            if (attrOn_)
                markDirty(id);
            activate(id, now_ + 1); // retry next cycle
            continue;
        }
        if (config_.trace)
            config_.trace->onMemDeliver(now_, id);
        emit(id, pending_.front(m).value, now_);
        pending_.pop(m);
        --outstanding_[id];
        --inFlight_;
        activate(id, now_); // an issue slot freed up
        if (!pending_.empty(m))
            wakeups_.push(std::max(Cycle{pending_.front(m).fabricReady},
                                   now_ + 1));
    }
}

StallReason
Machine::classifyStall(NodeId id) const
{
    const NodeRow &row = rows_[id];
    const std::size_t mi = static_cast<std::size_t>(row.memIndex);
    const bool has_pending = row.memIndex >= 0 && !pending_.empty(mi);

    // A due response that cannot leave the PE is the most actionable
    // reason: the consumer, not this node, is the bottleneck.
    if (has_pending && pending_.front(mi).fabricReady <= now_ &&
        !outputsHaveCredit(id))
        return StallReason::RespUndeliverable;

    bool operands = true; ///< all operands the op needs are visible
    bool engaged = false; ///< holds mid-computation state
    Word v;
    switch (row.op) {
      case Op::Source:
        if (!sourcePending_[id])
            operands = false; // nothing left to emit, ever
        else
            return StallReason::Backpressure; // ready() only gated on credit
        break;
      case Op::LoopMerge:
        engaged = mergeState_[id] != MergeState::Init;
        if (mergeState_[id] == MergeState::Init) {
            operands = portVisible(row.portBase + 0, v);
        } else if (!portVisible(row.portBase + 2, v)) {
            operands = false;
        } else {
            operands = v == 0 || portVisible(row.portBase + 1, v);
        }
        break;
      case Op::Invariant:
      case Op::InvariantGated:
        engaged = holdState_[id] != HoldState::Empty;
        operands = portVisible(
            row.portBase + (holdState_[id] == HoldState::Empty ? 0 : 1),
            v);
        break;
      default:
        for (std::uint32_t p = 0; operands && p < row.numInputs; ++p)
            operands = portVisible(row.portBase + p, v);
        break;
    }

    if (operands) {
        // Operands present but the node did not fire: memory ops are
        // only ever gated by the outstanding cap (they need no output
        // credit to issue); everything else is consumer backpressure.
        if (row.isMemory)
            return StallReason::OutstandingCap;
        return StallReason::Backpressure;
    }
    if (!engaged) {
        // Resident immediate tokens don't count as queued work.
        for (std::uint32_t p = 0; p < row.numInputs; ++p) {
            if (!(row.immMask >> p & 1) &&
                !tokens_.empty(row.portBase + p)) {
                engaged = true;
                break;
            }
        }
    }
    if (engaged)
        return StallReason::OperandWait;
    if (has_pending)
        return StallReason::MemWait;
    return StallReason::Idle;
}

void
Machine::closeSpan(NodeId id, StallReason reason, Cycle upTo)
{
    Cycle span = upTo - reasonSince_[id];
    if (span == 0)
        return;
    auto ri = static_cast<std::size_t>(reason);
    nodeStalls_[id].cycles[ri] += span;
    classStalls_[static_cast<std::size_t>(rows_[id].fu)][ri] += span;
}

void
Machine::attributeDirty()
{
    // Transition events must land in the trace in ascending node
    // order per cycle (the order the old full-scan attribution
    // emitted them); with no trace the order is immaterial.
    if (config_.trace && dirtyList_.size() > 1)
        std::sort(dirtyList_.begin(), dirtyList_.end());
    for (NodeId id : dirtyList_) {
        dirtyFlag_[id] = 0;
        StallReason r = firedAt_[id] == now_ ? StallReason::Fired
                                             : classifyStall(id);
        auto prev = static_cast<StallReason>(lastReason_[id]);
        if (prev == r)
            continue; // span extends; nothing to close
        closeSpan(id, prev, now_);
        if (config_.trace) {
            if (isTracedStall(prev))
                config_.trace->onStallEnd(now_, id,
                                          stallReasonName(prev));
            if (isTracedStall(r))
                config_.trace->onStallBegin(now_, id,
                                            stallReasonName(r));
        }
        lastReason_[id] = static_cast<std::uint8_t>(r);
        reasonSince_[id] = now_;
    }
    dirtyList_.clear();
}

void
Machine::flushAttribution()
{
    // Close every node's open span at the final cycle; fast-forward
    // spans folded in here for free (no events => no reclassification).
    for (NodeId id = 0; id < graph_.numNodes(); ++id)
        closeSpan(id, static_cast<StallReason>(lastReason_[id]), now_);

    // Close any stall interval left open at the end of the run so the
    // trace has balanced begin/end pairs.
    if (config_.trace) {
        for (NodeId id = 0; id < graph_.numNodes(); ++id) {
            auto r = static_cast<StallReason>(lastReason_[id]);
            if (isTracedStall(r))
                config_.trace->onStallEnd(now_, id, stallReasonName(r));
        }
    }

    for (std::size_t fu = 0; fu < classStalls_.size(); ++fu) {
        for (std::size_t ri = 0; ri < kNumStallReasons; ++ri) {
            if (classStalls_[fu][ri] == 0)
                continue;
            result_.stats.counter(formatMessage(
                "stall.", fuClassKey(static_cast<FuClass>(fu)), ".",
                stallReasonName(static_cast<StallReason>(ri)))) =
                classStalls_[fu][ri];
        }
    }
    // Per-node rows only for memory nodes: they are the subjects of
    // the paper's attribution questions and there are few of them.
    for (NodeId id : memNodes_) {
        for (std::size_t ri = 0; ri < kNumStallReasons; ++ri) {
            if (nodeStalls_[id].cycles[ri] == 0)
                continue;
            result_.stats.counter(formatMessage(
                "stall.node", id, ".",
                stallReasonName(static_cast<StallReason>(ri)))) =
                nodeStalls_[id].cycles[ri];
        }
    }
    result_.nodeStalls = std::move(nodeStalls_);
    result_.nodeMemLatency = std::move(nodeMemLatency_);
}

void
Machine::checkCleanliness()
{
    result_.clean = true;
    for (NodeId id = 0; id < graph_.numNodes(); ++id) {
        const NodeRow &row = rows_[id];
        for (std::uint32_t p = 0; p < row.numInputs; ++p) {
            // Resident immediate tokens are not stranded work.
            if (!(row.immMask >> p & 1) &&
                !tokens_.empty(row.portBase + p)) {
                result_.clean = false;
                result_.problem = formatMessage(
                    "token stranded at node ", id, " (", opName(row.op),
                    ") port ", p);
                return;
            }
        }
        if ((row.op == Op::Invariant || row.op == Op::InvariantGated) &&
            holdState_[id] == HoldState::Held) {
            result_.clean = false;
            result_.problem =
                formatMessage("invariant ", id, " still holds a value");
            return;
        }
        if (row.op == Op::LoopMerge &&
            mergeState_[id] != MergeState::Init) {
            result_.clean = false;
            result_.problem =
                formatMessage("merge ", id, " not in init state");
            return;
        }
        if (row.memIndex >= 0 &&
            !pending_.empty(static_cast<std::size_t>(row.memIndex))) {
            result_.clean = false;
            result_.problem = formatMessage(
                "memory node ", id, " has undelivered responses");
            return;
        }
    }
}

RunResult
Machine::run()
{
    while (now_ < config_.maxFabricCycles) {
        // Roll the next-cycle list into the current one. listNow_
        // is always fully drained before the roll, so the membership
        // flags can simply swap as well.
        listNow_.swap(listNext_);
        listNext_.clear();
        // The walk below clears inNow_ entry-by-entry as it drains
        // listNow_, so the buffer swapped out here is already
        // all-zero — no per-cycle fill needed.
        inNow_.swap(inNext_);

        if (inFlight_ != 0)
            deliverResponses();

        // Fixpoint over this cycle: combinational outputs are visible
        // immediately, so firing cascades; each node fires at most
        // once per fabric cycle. The list grows while we walk it.
        bool any_activity = false;
        for (std::size_t i = 0; i < listNow_.size(); ++i) {
            NodeId id = listNow_[i];
            inNow_[id] = 0;
            // Every walked node had a (potential) state change this
            // cycle; queue it for end-of-cycle reclassification.
            if (attrOn_)
                markDirty(id);
            if (firedAt_[id] == now_) {
                // Already fired this cycle; try again next cycle.
                activate(id, now_ + 1);
                continue;
            }
            any_activity |= tryFire(id);
        }
        listNow_.clear();

        if (attrOn_)
            attributeDirty();

        ++now_;

        if (listNext_.empty()) {
            const bool in_flight = inFlight_ != 0;
            if (!any_activity && !in_flight)
                break; // fully quiescent

            // Fast-forward to the next response if nothing else runs.
            // With incremental attribution the skipped span needs no
            // bookkeeping: no events fire, so every node's open
            // classification span simply extends across it.
            while (!wakeups_.empty() && wakeups_.top() <= now_)
                wakeups_.pop();
            if (in_flight && !wakeups_.empty()) {
                now_ = wakeups_.top();
                // Queue every memory node with pending responses for
                // the cycle we jumped to (the next loop iteration).
                for (std::size_t m = 0; m < memNodes_.size(); ++m) {
                    NodeId id = memNodes_[m];
                    if (!pending_.empty(m) && !inNext_[id]) {
                        inNext_[id] = 1;
                        listNext_.push_back(id);
                    }
                }
            }
        }
    }

    result_.fabricCycles = now_;
    result_.systemCycles =
        now_ * static_cast<Cycle>(config_.clockDivider);
    result_.finished = now_ < config_.maxFabricCycles;
    if (!result_.finished) {
        result_.problem = "fabric-cycle watchdog expired";
        result_.clean = false;
    } else {
        checkCleanliness();
    }

    // Sink records were accumulated flat; export only the sinks that
    // consumed at least one token (ascending id keeps the map order
    // identical to on-the-fly insertion).
    for (NodeId id = 0; id < graph_.numNodes(); ++id) {
        if (rows_[id].op == Op::Sink && sinkRec_[id].count > 0)
            result_.sinks[id] = sinkRec_[id];
    }

    for (const auto &[name, value] : memModel_->stats().counters())
        result_.stats.counter("fmnoc." + name) = value;
    for (const auto &[name, d] : memModel_->stats().dists())
        result_.stats.dist("fmnoc." + name) = d;
    for (const auto &[name, value] : memsys_.stats().counters())
        result_.stats.counter("mem." + name) = value;
    for (const auto &[name, d] : memsys_.stats().dists())
        result_.stats.dist("mem." + name) = d;
    result_.stats.counter("firings") = result_.firings;
    result_.stats.counter("fabric_cycles") = result_.fabricCycles;
    result_.stats.counter("system_cycles") = result_.systemCycles;

    if (attrOn_)
        flushAttribution();

    return result_;
}

} // namespace nupea
