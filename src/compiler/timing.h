/**
 * @file
 * Static timing analysis: choose the fabric clock divider.
 *
 * Monaco's data NoC is bufferless and statically routed, so the
 * fabric clock period must cover the longest producer-to-consumer
 * path in the placed-and-routed bitstream (paper Sec. 4.2, "Clock
 * divider"). The divider is the ratio between the fabric clock and
 * the fixed system clock that memory and the fabric-memory NoC run
 * on. PnR minimizes the divider by minimizing the longest net.
 */

#ifndef NUPEA_COMPILER_TIMING_H
#define NUPEA_COMPILER_TIMING_H

#include "compiler/routing.h"

namespace nupea
{

/** Timing model constants (abstract wire-delay units). Nothing here
 *  is settable; the struct remains so that PnrOptions::timing and
 *  analyzeTiming's last argument keep their shape. */
struct TimingOptions
{
    /** Wire-delay units one system-clock period can cover. */
    static constexpr double cycleBudget = 4.0;
    /** Fixed intra-PE logic delay added to the longest net. */
    static constexpr double peDelay = 1.0;
    /** Upper bound on the divider (sanity clamp). */
    static constexpr int maxDivider = 16;
};

/** Result of static timing analysis. */
struct TimingResult
{
    double maxPathDelay = 0.0; ///< wire units incl. PE logic
    int clockDivider = 1;      ///< fabric cycles per system cycle
};

/** Compute the divider for a routed design. */
TimingResult analyzeTiming(const RouteResult &route,
                           const TimingOptions &options = TimingOptions{});

} // namespace nupea

#endif // NUPEA_COMPILER_TIMING_H
