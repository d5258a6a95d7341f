/**
 * @file
 * Structured simulation tracing.
 *
 * The Machine reports discrete events (node firings, stall intervals,
 * memory request lifetimes) to an optional TraceSink. The interface is
 * zero-overhead when no sink is attached: the Machine performs exactly
 * one null-pointer check per potential event, and stall begin/end
 * events additionally require stall attribution to be enabled (they
 * are derived from the per-cycle classification).
 *
 * Two sinks ship with the simulator:
 *
 *  - TextTraceSink: the historical line-oriented firing trace
 *    ("cycle <n> fire <id> <op> @(r,c)"), one line per firing.
 *  - ChromeTraceSink: Chrome trace_event JSON (open in
 *    chrome://tracing or https://ui.perfetto.dev). Each node is a
 *    timeline row: firings are instant events, stalls are B/E
 *    duration events named by stall reason, and memory requests are
 *    complete ("X") events spanning issue to bank completion. All
 *    timestamps are in system cycles (fabric cycles are scaled by
 *    the clock divider so both clock domains share one timeline).
 */

#ifndef NUPEA_SIM_TRACE_H
#define NUPEA_SIM_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "common/types.h"

namespace nupea
{

/** Receiver of structured simulation events. All hooks default to
 *  no-ops so sinks implement only what they need. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Fabric clock divider, reported once before any event. */
    virtual void setClockDivider(int divider) { (void)divider; }

    /** Static node metadata, reported once per node before the run. */
    virtual void
    onNodeMeta(std::uint32_t node, std::string_view op, Coord at)
    {
        (void)node;
        (void)op;
        (void)at;
    }

    /** One node firing (fabric cycle). */
    virtual void
    onFire(Cycle fabric_cycle, std::uint32_t node, std::string_view op,
           Coord at)
    {
        (void)fabric_cycle;
        (void)node;
        (void)op;
        (void)at;
    }

    /** A node entered a stall state (fabric cycle). */
    virtual void
    onStallBegin(Cycle fabric_cycle, std::uint32_t node,
                 std::string_view reason)
    {
        (void)fabric_cycle;
        (void)node;
        (void)reason;
    }

    /** The node left the stall state it last reported. */
    virtual void
    onStallEnd(Cycle fabric_cycle, std::uint32_t node,
               std::string_view reason)
    {
        (void)fabric_cycle;
        (void)node;
        (void)reason;
    }

    /**
     * One memory request, issue through bank completion (system
     * cycles; the access models are analytic, so the completion time
     * is known at issue).
     */
    virtual void
    onMemIssue(Cycle issue_sys, Cycle complete_sys, std::uint32_t node,
               Addr addr, bool is_store, bool hit)
    {
        (void)issue_sys;
        (void)complete_sys;
        (void)node;
        (void)addr;
        (void)is_store;
        (void)hit;
    }

    /** A memory response token was delivered to the fabric. */
    virtual void
    onMemDeliver(Cycle fabric_cycle, std::uint32_t node)
    {
        (void)fabric_cycle;
        (void)node;
    }
};

/**
 * The historical text firing trace: one "cycle <n> fire <id> <op>
 * @(r,c)" line per firing, nothing else. The stream is borrowed.
 */
class TextTraceSink final : public TraceSink
{
  public:
    explicit TextTraceSink(std::ostream &os) : os_(os) {}

    void onFire(Cycle fabric_cycle, std::uint32_t node,
                std::string_view op, Coord at) override;

  private:
    std::ostream &os_;
};

/**
 * Chrome trace_event JSON writer. Events stream to the borrowed
 * ostream as they happen; finish() (also called by the destructor)
 * closes the JSON document. pid 0 is the fabric (one tid per node),
 * pid 1 is the memory system; every timestamp is a system cycle.
 */
class ChromeTraceSink final : public TraceSink
{
  public:
    explicit ChromeTraceSink(std::ostream &os);
    ~ChromeTraceSink() override;

    /** Write the closing bracket; idempotent. */
    void finish();

    void setClockDivider(int divider) override;
    void onNodeMeta(std::uint32_t node, std::string_view op,
                    Coord at) override;
    void onFire(Cycle fabric_cycle, std::uint32_t node,
                std::string_view op, Coord at) override;
    void onStallBegin(Cycle fabric_cycle, std::uint32_t node,
                      std::string_view reason) override;
    void onStallEnd(Cycle fabric_cycle, std::uint32_t node,
                    std::string_view reason) override;
    void onMemIssue(Cycle issue_sys, Cycle complete_sys,
                    std::uint32_t node, Addr addr, bool is_store,
                    bool hit) override;
    void onMemDeliver(Cycle fabric_cycle, std::uint32_t node) override;

  private:
    /** Begin one event object (writes the separator and "{"). */
    void open();
    Cycle sys(Cycle fabric_cycle) const;

    std::ostream &os_;
    Cycle divider_ = 1;
    bool first_ = true;
    bool finished_ = false;
};

} // namespace nupea

#endif // NUPEA_SIM_TRACE_H
