/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one call into a library layer, recorded from the
 * benchmark's own files: layer, start, end, the span that caused it,
 * the recording thread, and the compilation or point it belongs to.
 * Spans stay in memory for the whole run and are written out once, as
 * a Chrome trace_event file, when the benchmark ends. A null Tracer
 * pointer turns every span into a no-op (the untraced run).
 */

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** What a span wraps. The order is the order of the summary arrays. */
enum class Layer : std::uint8_t
{
    Iteration,    ///< one traced set-up plus one pass (root)
    Setup,        ///< workload construction, images, set-up compiles
    Pass,         ///< one timed pass over the workload
    PoolBatch,    ///< TaskPool::runAll on the submitting thread
    PoolTask,     ///< one task of a batch, on the thread that ran it
    Pnr,          ///< compile driver: ramp / back-off, capacity check
    Build,        ///< Workload::build
    Init,         ///< makeWorkload + Workload::init
    WlVerify,     ///< Workload::verify (host-reference check)
    Criticality,  ///< analyzeCriticality
    Placement,    ///< placeGraph
    Routing,      ///< routeGraph
    Timing,       ///< analyzeTiming
    Verify,       ///< verifyCompiled
    Point,        ///< one simulated point (glue around the calls below)
    Reset,        ///< BackingStore::resetTo
    SimConstruct, ///< Machine constructor
    SimRun,       ///< Machine::run
    Profile,      ///< profileGraph
    Predict,      ///< predictPerformance
};

constexpr std::size_t kNumLayers = static_cast<std::size_t>(Layer::Predict) + 1;

/** Span name as written to the trace file. */
std::string_view layerName(Layer layer);

/** Monotonic clock in nanoseconds. */
std::int64_t nowNs();

/** CPU time of the calling thread in nanoseconds. Unlike nowNs() it
 *  leaves out time the thread spent descheduled. */
std::int64_t threadCpuNs();

struct Span
{
    Layer layer = Layer::Iteration;
    std::int32_t parent = -1; ///< index of the causing span, -1 = root
    std::uint32_t thread = 0; ///< small per-thread id
    std::int64_t item = -1;   ///< compilation or point id, -1 = none
    std::int64_t start = 0;   ///< ns
    std::int64_t end = 0;     ///< ns
};

/** Thread-safe append-only span store. */
class Tracer
{
  public:
    /** Open a span; returns its index. */
    std::int32_t open(Layer layer, std::int64_t item, std::int32_t parent);
    void close(std::int32_t id);

    /** Number of spans recorded so far. */
    std::size_t size() const;

    /** Copy of spans [begin, end). */
    std::vector<Span> slice(std::size_t begin, std::size_t end) const;

    /** Write every span as Chrome trace_event JSON; false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< guarded by mu_
};

/**
 * RAII span. The parent defaults to the innermost open span of the
 * calling thread; tasks that run on pool workers pass their batch span
 * explicitly.
 */
class ScopedSpan
{
  public:
    static constexpr std::int32_t kInnermost = -2;

    ScopedSpan(Tracer *tracer, Layer layer, std::int64_t item = -1,
               std::int32_t parent = kInnermost);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Index of this span, -1 when untraced. */
    std::int32_t id() const { return id_; }

  private:
    Tracer *tracer_;
    std::int32_t id_ = -1;
};

/** Per-layer totals over a set of spans. */
struct LayerSummary
{
    /** Duration minus the part covered by same-thread child spans. */
    std::array<std::int64_t, kNumLayers> selfNs{};
    std::array<std::int64_t, kNumLayers> totalNs{};
    std::array<std::uint64_t, kNumLayers> count{};
};

/** Summarize spans taken from one slice (parents index the slice's
 *  tracer, so `base` is the slice's first index). */
LayerSummary summarize(const std::vector<Span> &spans, std::size_t base);

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
