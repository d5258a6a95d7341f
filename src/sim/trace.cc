#include "sim/trace.h"

#include <ostream>

namespace nupea
{

ChromeTraceSink::ChromeTraceSink(std::ostream &os) : os_(os)
{
    os_ << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    open();
    os_ << "\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
           "\"args\": {\"name\": \"fabric (system cycles)\"}}";
    open();
    os_ << "\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"args\": {\"name\": \"memory (system cycles)\"}}";
}

ChromeTraceSink::~ChromeTraceSink()
{
    finish();
}

void
ChromeTraceSink::finish()
{
    if (finished_)
        return;
    finished_ = true;
    os_ << "]}\n";
    os_.flush();
}

void
ChromeTraceSink::setClockDivider(int divider)
{
    divider_ = divider < 1 ? 1 : static_cast<Cycle>(divider);
}

Cycle
ChromeTraceSink::sys(Cycle fabric_cycle) const
{
    return fabric_cycle * divider_;
}

void
ChromeTraceSink::open()
{
    if (!first_)
        os_ << ",";
    first_ = false;
    os_ << "\n{";
}

void
ChromeTraceSink::onNodeMeta(std::uint32_t node, std::string_view op,
                            Coord at)
{
    open();
    os_ << "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
           "\"tid\": "
        << node << ", \"args\": {\"name\": \"n" << node << " " << op
        << " @" << at.str() << "\"}}";
    // Mirror the row on the memory process so requests line up.
    open();
    os_ << "\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": "
        << node << ", \"args\": {\"name\": \"n" << node << " " << op
        << " @" << at.str() << "\"}}";
}

void
ChromeTraceSink::onFire(Cycle fabric_cycle, std::uint32_t node,
                        std::string_view op)
{
    open();
    os_ << "\"name\": \"fire " << op
        << "\", \"cat\": \"fire\", \"ph\": \"i\", \"s\": \"t\", "
           "\"ts\": "
        << sys(fabric_cycle) << ", \"pid\": 0, \"tid\": " << node
        << "}";
}

void
ChromeTraceSink::onStallBegin(Cycle fabric_cycle, std::uint32_t node,
                              std::string_view reason)
{
    open();
    os_ << "\"name\": \"" << reason
        << "\", \"cat\": \"stall\", \"ph\": \"B\", \"ts\": "
        << sys(fabric_cycle) << ", \"pid\": 0, \"tid\": " << node
        << "}";
}

void
ChromeTraceSink::onStallEnd(Cycle fabric_cycle, std::uint32_t node,
                            std::string_view reason)
{
    open();
    os_ << "\"name\": \"" << reason
        << "\", \"cat\": \"stall\", \"ph\": \"E\", \"ts\": "
        << sys(fabric_cycle) << ", \"pid\": 0, \"tid\": " << node
        << "}";
}

void
ChromeTraceSink::onMemIssue(Cycle issue_sys, Cycle complete_sys,
                            std::uint32_t node, Addr addr, bool is_store,
                            bool hit)
{
    open();
    os_ << "\"name\": \"" << (is_store ? "store" : "load")
        << "\", \"cat\": \"mem\", \"ph\": \"X\", \"ts\": " << issue_sys
        << ", \"dur\": "
        << (complete_sys > issue_sys ? complete_sys - issue_sys : 0)
        << ", \"pid\": 1, \"tid\": " << node
        << ", \"args\": {\"addr\": " << addr << ", \"hit\": "
        << (hit ? "true" : "false") << "}}";
}

void
ChromeTraceSink::onMemDeliver(Cycle fabric_cycle, std::uint32_t node)
{
    open();
    os_ << "\"name\": \"mem response\", \"cat\": \"mem\", \"ph\": "
           "\"i\", \"s\": \"t\", \"ts\": "
        << sys(fabric_cycle) << ", \"pid\": 0, \"tid\": " << node
        << "}";
}

} // namespace nupea
