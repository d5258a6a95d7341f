/**
 * @file
 * Structured simulation tracing.
 *
 * The Machine reports discrete events (node firings, stall intervals,
 * memory request lifetimes) to an optional ChromeTraceSink. Tracing
 * is zero-overhead when no sink is attached: the Machine performs
 * exactly one null-pointer check per potential event, and stall
 * begin/end events additionally require stall attribution to be
 * enabled (they are derived from the per-cycle classification).
 *
 * The sink writes Chrome trace_event JSON (open in chrome://tracing
 * or https://ui.perfetto.dev). Each node is a timeline row: firings
 * are instant events, stalls are B/E duration events named by stall
 * reason, and memory requests are complete ("X") events spanning
 * issue to bank completion. All timestamps are in system cycles
 * (fabric cycles are scaled by the clock divider so both clock
 * domains share one timeline).
 */

#ifndef NUPEA_SIM_TRACE_H
#define NUPEA_SIM_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "common/types.h"

namespace nupea
{

/**
 * Chrome trace_event JSON writer. Events stream to the borrowed
 * ostream as they happen; finish() (also called by the destructor)
 * closes the JSON document. pid 0 is the fabric (one tid per node),
 * pid 1 is the memory system; every timestamp is a system cycle.
 */
class ChromeTraceSink
{
  public:
    explicit ChromeTraceSink(std::ostream &os);
    ~ChromeTraceSink();

    /** Write the closing bracket; idempotent. */
    void finish();

    /** Fabric clock divider, reported once before any event. */
    void setClockDivider(int divider);

    /** Static node metadata, reported once per node before the run. */
    void onNodeMeta(std::uint32_t node, std::string_view op, Coord at);

    /** One node firing (fabric cycle). */
    void onFire(Cycle fabric_cycle, std::uint32_t node,
                std::string_view op);

    /** A node entered a stall state (fabric cycle). */
    void onStallBegin(Cycle fabric_cycle, std::uint32_t node,
                      std::string_view reason);

    /** The node left the stall state it last reported. */
    void onStallEnd(Cycle fabric_cycle, std::uint32_t node,
                    std::string_view reason);

    /**
     * One memory request, issue through bank completion (system
     * cycles; the access models are analytic, so the completion time
     * is known at issue).
     */
    void onMemIssue(Cycle issue_sys, Cycle complete_sys,
                    std::uint32_t node, Addr addr, bool is_store,
                    bool hit);

    /** A memory response token was delivered to the fabric. */
    void onMemDeliver(Cycle fabric_cycle, std::uint32_t node);

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
