/**
 * @file
 * The cycle-level Monaco machine model.
 *
 * Executes a placed dataflow graph under ordered-dataflow semantics
 * (paper Sec. 4.1): tokens queue in bounded per-operand FIFOs; a node
 * fires when all required operands are present and every consumer
 * FIFO has space; each PE fires at most one instruction per fabric
 * cycle. Arithmetic takes one fabric cycle; control flow (steer,
 * merge, invariant) executes combinationally — its outputs are
 * visible within the firing cycle. Loads and stores issue requests
 * into a fabric-memory access model and deliver their result tokens
 * when the response returns, in issue order.
 *
 * Two clocks (paper Sec. 4.2): PEs step on the fabric clock; memory
 * and the fabric-memory NoC run on the system clock, `clockDivider`
 * times faster.
 *
 * Data layout (hot-path contract): all per-cycle state lives in flat
 * arrays sized at construction. Operand FIFOs and in-flight response
 * queues are rings in a TokenArena; everything `ready()` / `fire()` /
 * `classifyStall()` need about a node (opcode traits, input
 * connections, fanout edges with precomputed arena offsets and
 * per-hop energy, placement tile) is resolved once into per-node
 * dispatch tables, so the scheduling loop never touches the Graph.
 * New per-node Machine state must follow the same rule — add a field
 * to the tables, not a lookup into graph_/placement_ (see DESIGN.md,
 * "Machine hot-path data layout").
 */

#ifndef NUPEA_SIM_MACHINE_H
#define NUPEA_SIM_MACHINE_H

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "compiler/placement.h"
#include "dfg/graph.h"
#include "dfg/interp.h" // SinkRecord
#include "fabric/topology.h"
#include "memory/backing_store.h"
#include "memory/memsys.h"
#include "sim/energy.h"
#include "sim/mem_model.h"
#include "sim/token_arena.h"

namespace nupea
{

class ChromeTraceSink;

/**
 * Why a node did (or did not) fire in one fabric cycle. Every
 * node-cycle falls into exactly one bucket, so per node
 * sum(all reasons) == fabricCycles (the conservation identity the
 * observability tests pin).
 */
enum class StallReason : std::uint8_t
{
    Fired = 0,         ///< the node fired this cycle
    OperandWait,       ///< partially supplied: some operand missing
                       ///< while tokens are queued or state is held
    Backpressure,      ///< operands ready, a consumer FIFO is full
    OutstandingCap,    ///< LS node at its in-flight request limit
    RespUndeliverable, ///< due memory response blocked on credit
    MemWait,           ///< drained, waiting on an in-flight response
    Idle,              ///< no tokens, no state, nothing in flight
};

constexpr std::size_t kNumStallReasons = 7;

/** Printable snake_case reason name (stat-key / trace-event safe). */
std::string_view stallReasonName(StallReason r);

/** Per-node stall-attribution counters, in fabric cycles. */
struct NodeStallCounters
{
    std::array<std::uint64_t, kNumStallReasons> cycles{};

    std::uint64_t
    of(StallReason r) const
    {
        return cycles[static_cast<std::size_t>(r)];
    }

    /** Sum over all reasons; equals fabricCycles when attributed. */
    std::uint64_t
    total() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t c : cycles)
            sum += c;
        return sum;
    }
};

/** Full machine configuration. */
struct MachineConfig
{
    MemModelConfig mem;
    MemSysConfig memsys;
    /** Fabric clock divider (from PnR static timing). */
    int clockDivider = 2;
    /** Token FIFO depth per input operand. */
    int fifoDepth = 2;
    /** Maximum in-flight memory requests per LS PE. */
    int maxOutstanding = 4;
    /** Watchdog bound on simulated fabric cycles. */
    Cycle maxFabricCycles = 100'000'000;
    /** Energy-accounting cost table. */
    EnergyParams energy;
    /**
     * Classify every not-ready node-cycle into StallReason buckets
     * (per-node and per-FU-class counters, plus per-node memory
     * latency distributions). Off by default; attribution is
     * incremental (a node is reclassified only when a state-changing
     * event touches it), so the cost scales with activity, not with
     * numNodes * cycles.
     */
    bool stallAttribution = false;
    /**
     * Optional structured event trace (see sim/trace.h). Borrowed;
     * may be null. Stall begin/end events additionally require
     * stallAttribution; firings and memory events do not.
     */
    ChromeTraceSink *trace = nullptr;
};

/** Outcome of one simulation. */
struct RunResult
{
    bool finished = false; ///< quiesced before the watchdog
    bool clean = false;    ///< no stranded tokens / held state
    Cycle fabricCycles = 0;
    Cycle systemCycles = 0;
    std::uint64_t firings = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::map<NodeId, SinkRecord> sinks;
    std::string problem;
    StatSet stats;
    EnergyBreakdown energy;
    /**
     * Per-node stall attribution, indexed by NodeId. Empty unless
     * MachineConfig::stallAttribution was set; when present, each
     * node's counters sum to fabricCycles.
     */
    std::vector<NodeStallCounters> nodeStalls;
    /**
     * Per-node memory-access latency (system cycles, issue to bank
     * completion), indexed by NodeId; only memory nodes have samples.
     * Empty unless stallAttribution was set. Feeds the criticality
     * cross-validation in compiler/report.h.
     */
    std::vector<Distribution> nodeMemLatency;
};

/**
 * One compiled-and-placed program on one fabric. The BackingStore is
 * borrowed: workloads initialize it before run() and verify it after.
 */
class Machine
{
  public:
    Machine(const Graph &graph, const Placement &placement,
            const Topology &topo, const MachineConfig &config,
            BackingStore &store);

    /** Simulate to quiescence (or the watchdog). Single use. */
    RunResult run();

  private:
    /** One input connection, flattened for the hot loop. */
    struct InPort
    {
        NodeId src = kInvalidId; ///< producer node; kInvalidId for imm
        Word imm = 0;
        bool isImm = false;
    };

    /** One fanout edge with its arena destination precomputed. */
    struct OutEdge
    {
        NodeId dst = kInvalidId;
        std::uint32_t dstPort = 0; ///< flat ring index in tokens_
        double hopEnergy = 0.0;    ///< data-NoC energy per token
    };

    /** Per-node dispatch row: everything the scheduling loop needs,
     *  resolved from Graph / opTraits() / Placement at construction. */
    struct NodeRow
    {
        Op op = Op::Sink;
        FuClass fu = FuClass::XData;
        bool combinational = false;
        bool isMemory = false;
        std::uint8_t numInputs = 0;
        std::uint8_t immMask = 0;   ///< bit p set: input p is immediate
        std::uint32_t portBase = 0; ///< first flat ring in tokens_
        std::uint32_t outBase = 0;  ///< first OutEdge in outEdges_
        std::uint32_t outCount = 0;
        std::int32_t memIndex = -1; ///< ring in pending_; -1 if not mem
        Coord coord;                ///< placement tile
        double fireEnergy = 0.0;    ///< per-firing FU energy
    };

    /** 8-byte packed FIFO entry: cycles fit in 32 bits because the
     *  watchdog bounds a run to well under 2^32 fabric cycles (checked
     *  at construction). Halving the entry keeps twice as many ring
     *  slots per cache line on the hottest data in the simulator. */
    struct Token
    {
        Word value;
        std::uint32_t visibleAt; ///< fabric cycle it becomes consumable
    };

    enum class MergeState : std::uint8_t { Init, Ctrl };
    enum class HoldState : std::uint8_t { Empty, Held };

    /** Per-node pending memory response (delivered in order);
     *  packed like Token. */
    struct PendingResponse
    {
        Word value;
        std::uint32_t fabricReady; ///< earliest delivery fabric cycle
    };

    /** Resolve graph_ + placement_ into the dispatch tables (rows_,
     *  inPorts_, outEdges_, memNodes_), baking in the per-firing FU
     *  and per-token data-NoC energy of config_.energy. */
    void buildDispatchTables();

    bool portVisible(std::uint32_t p, Word &value) const;
    void popInput(NodeId id, int port);
    bool outputsHaveCredit(NodeId id) const;
    void emit(NodeId id, Word value, Cycle visible_at);
    /** Fire `id` if it is ready; one fused readiness-check-and-fire
     *  so each operand is read and the opcode dispatched only once.
     *  No side effects when the node is not ready. */
    bool tryFire(NodeId id);
    /** Common bookkeeping once a node is committed to firing. */
    void fireProlog(NodeId id, const NodeRow &row);
    /** Schedule a readiness re-check for `id` at `cycle`. */
    void activate(NodeId id, Cycle cycle);

    void deliverResponses();
    void checkCleanliness();

    /** Why `id` did not fire in the current cycle (attribution on). */
    StallReason classifyStall(NodeId id) const;
    /** Queue `id` for end-of-cycle reclassification (attribution on). */
    void markDirty(NodeId id);
    /** Reclassify every node a state-changing event touched this
     *  cycle; untouched nodes keep their running classification. */
    void attributeDirty();
    /** Close `id`'s open classification span at fabric cycle `upTo`,
     *  folding its length into the per-node / per-FU-class tallies. */
    void closeSpan(NodeId id, StallReason reason, Cycle upTo);
    /** Close all spans and export attribution counters into result_. */
    void flushAttribution();

    const Graph &graph_;
    const Placement &placement_;
    const Topology &topo_;
    MachineConfig config_;
    BackingStore &store_;
    MemorySystem memsys_;
    std::unique_ptr<MemAccessModel> memModel_;

    Cycle now_ = 0; ///< current fabric cycle
    bool attrOn_ = false; ///< config_.stallAttribution, hot copy

    /** @{ Flat dispatch tables, built once at construction and
     *  read-only afterwards. */
    std::vector<NodeRow> rows_;     ///< indexed by NodeId
    std::vector<InPort> inPorts_;   ///< indexed by flat port
    std::vector<OutEdge> outEdges_; ///< indexed by NodeRow::outBase
    std::vector<NodeId> memNodes_;  ///< ascending; NodeRow::memIndex
    /** @} */

    /** Operand FIFOs: one ring per (node, input port). Immediate
     *  operands are materialized as a permanently-resident,
     *  always-visible token in their ring, so the visibility check
     *  needs no per-port immediate branch; popInput() and the
     *  engaged/cleanliness scans exempt them via NodeRow::immMask. */
    TokenArena<Token> tokens_;
    std::vector<MergeState> mergeState_;
    std::vector<HoldState> holdState_;
    std::vector<Word> heldValue_;
    std::vector<std::uint8_t> sourcePending_;
    /** Fabric cycle each node last fired (<= 1 firing per cycle). */
    std::vector<Cycle> firedAt_;
    /** Worklist membership flags for the current / next cycle. */
    std::vector<std::uint8_t> inNow_;
    std::vector<std::uint8_t> inNext_;
    /** Sink bookkeeping, exported into result_.sinks after the run. */
    std::vector<SinkRecord> sinkRec_;

    /** In-flight responses: one ring per memory node (issue order,
     *  capacity maxOutstanding), indexed by NodeRow::memIndex. */
    TokenArena<PendingResponse> pending_;
    std::vector<int> outstanding_;
    /** Total in-flight responses across all memory nodes, so the
     *  per-cycle quiescence / delivery checks are O(1). */
    std::size_t inFlight_ = 0;
    /** Min-heap of fabric cycles with scheduled response deliveries. */
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<Cycle>>
        wakeups_;

    /** Worklists for the current and next fabric cycle. */
    std::vector<NodeId> listNow_;
    std::vector<NodeId> listNext_;

    /** @{ Stall attribution (sized only when enabled). Incremental:
     *  lastReason_/reasonSince_ hold each node's open classification
     *  span; spans close (and tally) only when a state-changing event
     *  marks the node dirty and its classification actually changed. */
    std::vector<NodeStallCounters> nodeStalls_;
    std::vector<std::uint8_t> lastReason_;
    std::vector<Cycle> reasonSince_;
    std::vector<std::uint8_t> dirtyFlag_;
    std::vector<NodeId> dirtyList_;
    std::vector<Distribution> nodeMemLatency_;
    /** Per-FU-class aggregate counters, flushed into stats. */
    std::array<std::array<std::uint64_t, kNumStallReasons>, 4>
        classStalls_{};
    /** @} */

    RunResult result_;
};

} // namespace nupea

#endif // NUPEA_SIM_MACHINE_H
