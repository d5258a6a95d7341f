/**
 * @file
 * Untimed dataflow interpreter.
 *
 * Executes a Graph functionally with unbounded token FIFOs and
 * zero-latency memory. Used as the semantic reference for the timed
 * microarchitectural simulator (both must produce identical memory
 * contents and sink streams) and for fast workload validation.
 */

#ifndef NUPEA_DFG_INTERP_H
#define NUPEA_DFG_INTERP_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "dfg/graph.h"

namespace nupea
{

/** What a Sink node observed during execution. */
struct SinkRecord
{
    std::uint64_t count = 0; ///< tokens consumed
    Word last = 0;           ///< most recent value
    std::int64_t sum = 0;    ///< running sum of values
};

/** Outcome of an interpreter run. */
struct InterpResult
{
    bool clean = false;          ///< quiesced with no stranded tokens
    std::uint64_t firings = 0;   ///< total node firings
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::map<NodeId, SinkRecord> sinks;
    std::vector<std::string> problems; ///< stranded-token diagnostics
    /** Per-node firing counts, indexed by NodeId. Firing counts are a
     *  property of the dataflow semantics, so they match the timed
     *  Machine's per-node activity exactly — the static performance
     *  model (analysis/) is built on this equivalence. */
    std::vector<std::uint64_t> nodeFires;
    /** Per-node emitted-token counts (a firing emits 0 or 1 token to
     *  every fanout edge), indexed by NodeId. */
    std::vector<std::uint64_t> nodeEmits;
};

/**
 * Functional executor over a flat byte-addressed memory. The memory
 * is borrowed; callers own allocation and initialization.
 */
class Interp
{
  public:
    /**
     * @param graph  validated dataflow graph
     * @param memory backing store; loads/stores must stay in bounds
     */
    Interp(const Graph &graph, ByteBuffer &memory);

    /**
     * Run to quiescence.
     * @param max_firings safety bound; exceeding it marks the result
     *                    not clean (livelock diagnosis)
     */
    InterpResult run(std::uint64_t max_firings = 500'000'000);

    /** Per-access callback: (memory node, address, is_store). Used by
     *  the static performance model to build footprint and port-load
     *  histograms without a second execution. */
    using MemObserver = std::function<void(NodeId, Addr, bool)>;

    /** Install an observer invoked on every load/store fired. */
    void setMemObserver(MemObserver observer)
    {
        memObserver_ = std::move(observer);
    }

  private:
    /** One input port: an immediate, or an unbounded ring FIFO whose
     *  storage is allocated when the port first receives a token and
     *  doubles when full. */
    struct Port
    {
        std::unique_ptr<Word[]> ring;
        std::uint32_t cap = 0;   ///< ring capacity (0 or a power of 2)
        std::uint32_t head = 0;  ///< index of the oldest token
        std::uint32_t count = 0; ///< tokens queued
        bool isImm = false;
        Word imm = 0;

        bool ready() const { return count != 0 || isImm; }
        Word front() const { return isImm ? imm : ring[head]; }
        /** Consume the front token; an immediate is never consumed. */
        Word take();
        void push(Word value);
    };

    /** Per-node firing state; a node's ports are the contiguous range
     *  ports_[firstPort, firstPort + numInputs), its consumers the
     *  range fanout_[fanoutBegin, fanoutEnd). */
    struct NodeState
    {
        Op op = Op::Sink;
        std::uint8_t numInputs = 0;
        /** Source: 1 until it fires. LoopMerge: 0 Init, 1 Ctrl.
         *  Invariant(-Gated): 0 Empty, 1 Held. */
        std::uint8_t state = 0;
        std::uint32_t firstPort = 0;
        std::uint32_t fanoutBegin = 0;
        std::uint32_t fanoutEnd = 0;
        /** Source: its immediate. Invariant(-Gated): the held value.
         *  Sink: its index in sinks_. */
        Word value = 0;
    };

    /** A fanout edge: consumer node and its port's index in ports_. */
    struct Edge
    {
        NodeId node;
        std::uint32_t port;
    };

    struct SinkSlot
    {
        NodeId node;
        SinkRecord rec;
    };

    /** Fire `id` if it is ready; returns the tokens it emitted (0 or
     *  1), or -1 when it is not ready. */
    int step(NodeId id, InterpResult &result);
    void emit(const NodeState &node, Word value);
    void exportSinks(InterpResult &result) const;

    Word loadWord(Addr addr) const;
    void storeWord(Addr addr, Word value);

    ByteBuffer &mem_;
    std::vector<NodeState> nodes_;
    std::vector<Port> ports_;
    std::vector<Edge> fanout_; ///< in Graph::fanout() order
    std::vector<SinkSlot> sinks_; ///< in id order
    MemObserver memObserver_;
};

} // namespace nupea

#endif // NUPEA_DFG_INTERP_H
