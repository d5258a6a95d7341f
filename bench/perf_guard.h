/**
 * @file
 * The exact checks of `bench_perf_smoke --guard`: pure outputs of the
 * run, functions of the code and the seeds alone, compared with the
 * committed baseline json. A difference is changed behaviour, not
 * host noise, so these run before any timing gate, and their
 * verdicts are unit-tested without a wall clock.
 */

#ifndef NUPEA_BENCH_PERF_GUARD_H
#define NUPEA_BENCH_PERF_GUARD_H

#include <string>
#include <vector>

#include "bench/sweep_runner.h"

namespace nupea
{
namespace bench
{

/**
 * Pull `"<key>": <number>` out of a baseline json by its LAST
 * occurrence — for "firings_per_sec" that is the "total" object's
 * copy, not a per-workload one. False when the key is absent (the
 * baseline predates it) or holds no number; a pinned 0 is a value.
 */
bool readBaselineValue(const std::string &text, const char *key,
                       double &value);

/** One pure output; `format` is the precision the json writes it at. */
struct ExactCheck
{
    const char *key;     ///< baseline json key (last occurrence)
    const char *format;  ///< printf format of the json value
    const char *changed; ///< what a mismatch means
    double measured;     ///< this run's value
};

/** Report one exact check; false when it fails the guard. A baseline
 *  without the key skips the check with a note. */
bool passesExactCheck(const ExactCheck &check,
                      const std::string &baselineText);

/**
 * Compare each point's fabric_cycles and firings with the baseline's
 * "points" row of the same label; false at the first point that
 * differs or that the baseline lacks, naming it. A baseline without
 * a "points" array skips the checks with a note.
 */
bool passesPointChecks(const std::vector<PointResult> &points,
                       const std::string &baselineText);

} // namespace bench
} // namespace nupea

#endif // NUPEA_BENCH_PERF_GUARD_H
