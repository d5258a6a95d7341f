#include "tracer.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>

namespace perfbench
{

namespace
{

thread_local std::vector<std::int32_t> tlsOpen;

std::uint32_t
threadId()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local std::uint32_t id = next.fetch_add(1);
    return id;
}

} // namespace

std::string_view
layerName(Layer layer)
{
    switch (layer) {
    case Layer::Iteration: return "iteration";
    case Layer::Setup: return "setup";
    case Layer::Pass: return "pass";
    case Layer::PoolBatch: return "common.task_pool.batch";
    case Layer::PoolTask: return "common.task_pool.task";
    case Layer::Pnr: return "compiler.pnr";
    case Layer::Build: return "workloads.build";
    case Layer::Init: return "workloads.init";
    case Layer::WlVerify: return "workloads.verify";
    case Layer::Criticality: return "compiler.criticality";
    case Layer::Placement: return "compiler.placement";
    case Layer::Routing: return "compiler.routing";
    case Layer::Timing: return "compiler.timing";
    case Layer::Verify: return "verify";
    case Layer::Point: return "point";
    case Layer::Reset: return "memory.reset";
    case Layer::SimConstruct: return "sim.construct";
    case Layer::SimRun: return "sim.run";
    case Layer::Profile: return "analysis.profile";
    case Layer::Predict: return "analysis.predict";
    }
    return "?";
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int32_t
Tracer::open(Layer layer, std::int64_t item, std::int32_t parent)
{
    Span s;
    s.layer = layer;
    s.parent = parent;
    s.thread = threadId();
    s.item = item;
    std::lock_guard<std::mutex> lock(mu_);
    s.start = nowNs();
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
Tracer::close(std::int32_t id)
{
    std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = end;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::vector<Span>
Tracer::slice(std::size_t begin, std::size_t end) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<Span>(
        spans_.begin() + static_cast<std::ptrdiff_t>(begin),
        spans_.begin() + static_cast<std::ptrdiff_t>(end));
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::string_view name = layerName(s.layer);
        std::fprintf(f,
                     "%s{\"name\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                     "{\"id\":%zu,\"parent\":%d,\"item\":%lld}}\n",
                     i == 0 ? "" : ",", static_cast<int>(name.size()),
                     name.data(), s.thread,
                     static_cast<double>(s.start - t0) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3, i,
                     s.parent, static_cast<long long>(s.item));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer *tracer, Layer layer, std::int64_t item,
                       std::int32_t parent)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    if (parent == kInnermost)
        parent = tlsOpen.empty() ? -1 : tlsOpen.back();
    id_ = tracer_->open(layer, item, parent);
    tlsOpen.push_back(id_);
}

ScopedSpan::~ScopedSpan()
{
    if (!tracer_)
        return;
    tlsOpen.pop_back();
    tracer_->close(id_);
}

LayerSummary
summarize(const std::vector<Span> &spans, std::size_t base)
{
    LayerSummary out;
    std::vector<std::int64_t> childNs(spans.size(), 0);
    for (const Span &s : spans) {
        if (s.parent < 0 || static_cast<std::size_t>(s.parent) < base)
            continue;
        std::size_t p = static_cast<std::size_t>(s.parent) - base;
        if (p < spans.size() && spans[p].thread == s.thread)
            childNs[p] += s.end - s.start;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto l = static_cast<std::size_t>(s.layer);
        std::int64_t dur = s.end - s.start;
        out.totalNs[l] += dur;
        out.selfNs[l] += dur - childNs[i];
        ++out.count[l];
    }
    return out;
}

} // namespace perfbench
