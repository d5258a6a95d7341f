#include "bench/perf_guard.h"

#include <cstdio>
#include <cstdlib>

#include "common/log.h"

namespace nupea
{
namespace bench
{

namespace
{

/** The number right after `needle` at or after `from`, before
 *  `until`; false when there is none. */
bool
readNumberAfter(const std::string &text, const std::string &needle,
                std::size_t from, std::size_t until, double &value)
{
    std::size_t pos = text.find(needle, from);
    if (pos == std::string::npos || pos >= until)
        return false;
    const char *start = text.c_str() + pos + needle.size();
    char *end = nullptr;
    value = std::strtod(start, &end);
    return end != start;
}

} // namespace

bool
readBaselineValue(const std::string &text, const char *key, double &value)
{
    std::string needle = std::string("\"") + key + "\":";
    std::size_t pos = text.rfind(needle);
    return pos != std::string::npos &&
           readNumberAfter(text, needle, pos, text.size(), value);
}

bool
passesExactCheck(const ExactCheck &check, const std::string &baselineText)
{
    double baseline_value = 0.0;
    if (!readBaselineValue(baselineText, check.key, baseline_value)) {
        std::printf("perf guard: baseline has no %s; skipping its "
                    "check\n",
                    check.key);
        return true;
    }
    char baseline[64], measured[64];
    std::snprintf(baseline, sizeof baseline, check.format,
                  baseline_value);
    std::snprintf(measured, sizeof measured, check.format,
                  check.measured);
    std::printf("perf guard: %s baseline %s, measured %s\n", check.key,
                baseline, measured);
    if (std::strtod(measured, nullptr) != baseline_value) {
        warn("perf guard: ", check.key, " ", measured,
             " differs from the baseline's ", baseline, "; ",
             check.changed);
        return false;
    }
    return true;
}

bool
passesPointChecks(const std::vector<PointResult> &points,
                  const std::string &baselineText)
{
    if (baselineText.find("\"points\":") == std::string::npos) {
        std::printf("perf guard: baseline has no points; skipping the "
                    "per-point checks\n");
        return true;
    }
    for (const PointResult &p : points) {
        std::size_t row =
            baselineText.find("\"label\": \"" + p.label + "\"");
        std::size_t row_end = baselineText.find('}', row);
        const std::pair<const char *, std::uint64_t> values[] = {
            {"fabric_cycles", p.run.fabricCycles},
            {"firings", p.run.firings},
        };
        for (const auto &[key, measured] : values) {
            double pinned = 0.0;
            if (row == std::string::npos ||
                !readNumberAfter(baselineText,
                                 std::string("\"") + key + "\":", row,
                                 row_end, pinned)) {
                warn("perf guard: baseline has no ", key, " for point ",
                     p.label);
                return false;
            }
            if (static_cast<double>(measured) != pinned) {
                char baseline[32];
                std::snprintf(baseline, sizeof baseline, "%.17g", pinned);
                warn("perf guard: point ", p.label, " ", key, " ",
                     measured, " differs from the baseline's ", baseline,
                     "; the simulation changed");
                return false;
            }
        }
    }
    std::printf("perf guard: all %zu points' fabric_cycles and firings "
                "match the baseline\n",
                points.size());
    return true;
}

} // namespace bench
} // namespace nupea
