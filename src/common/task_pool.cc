#include "common/task_pool.h"

#include "common/log.h"

namespace nupea
{

namespace
{

/** Worker index of the pool currently executing on this thread. */
thread_local int tlsWorkerId = -1;
/** The pool this thread is currently running tasks for (detects
 *  nested runAll calls on the same pool). */
thread_local const TaskPool *tlsPool = nullptr;

/** Scoped (pool, worker-id) assignment for inline batches. A nested
 *  inline batch keeps the enclosing worker id so per-worker scratch
 *  state stays exclusive; a top-level one runs as worker 0. */
struct ScopedInline
{
    ScopedInline(const TaskPool *pool, bool top_level)
        : savedPool(tlsPool), savedId(tlsWorkerId)
    {
        tlsPool = pool;
        if (top_level)
            tlsWorkerId = 0;
    }
    ~ScopedInline()
    {
        tlsPool = savedPool;
        tlsWorkerId = savedId;
    }
    const TaskPool *savedPool;
    int savedId;
};

} // namespace

TaskPool::TaskPool(int jobs) : jobs_(jobs > 0 ? jobs : 1)
{
    if (jobs_ == 1)
        return;
    try {
        workers_.reserve(static_cast<std::size_t>(jobs_));
        for (int w = 0; w < jobs_; ++w)
            workers_.emplace_back([this, w] { workerLoop(w); });
    } catch (const std::exception &e) {
        // The destructor will not run: release the started workers
        // here, or they would block forever on destroyed members.
        stopWorkers();
        fatal("cannot start ", jobs_, " worker threads: ", e.what());
    }
}

TaskPool::~TaskPool()
{
    stopWorkers();
}

void
TaskPool::stopWorkers()
{
    if (workers_.empty())
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    cvWork_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
}

int
TaskPool::currentWorker()
{
    return tlsWorkerId;
}

void
TaskPool::executeTask(std::size_t task)
{
    if (poisoned_.load(std::memory_order_relaxed)) {
        skipped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    try {
        batch_[task]();
    } catch (...) {
        errors_[task] = std::current_exception();
        poisoned_.store(true, std::memory_order_relaxed);
    }
}

void
TaskPool::runInline(std::vector<std::function<void()>> &tasks,
                    bool top_level)
{
    ScopedInline scope(this, top_level);
    std::exception_ptr first;
    std::size_t skipped = 0;
    for (std::function<void()> &task : tasks) {
        if (first) {
            ++skipped; // fail-fast: poisoned batch skips the rest
            continue;
        }
        try {
            task();
        } catch (...) {
            first = std::current_exception();
        }
    }
    if (top_level)
        skipped_.store(skipped, std::memory_order_relaxed);
    if (first)
        std::rethrow_exception(first);
}

void
TaskPool::runAll(std::vector<std::function<void()>> tasks)
{
    if (tasks.empty())
        return;

    // Nested call from one of this pool's own tasks: the caller's
    // batch holds the pool, so run inline under the caller's id.
    if (tlsPool == this) {
        runInline(tasks, /*top_level=*/false);
        return;
    }

    std::lock_guard<std::mutex> turn(submitMu_);
    if (workers_.empty()) {
        // jobs=1: the exact serial path; skippedLast() is meaningful.
        runInline(tasks, /*top_level=*/true);
        return;
    }

    batch_ = std::move(tasks);
    errors_.assign(batch_.size(), nullptr);
    next_.store(0, std::memory_order_relaxed);
    poisoned_.store(false, std::memory_order_relaxed);
    skipped_.store(0, std::memory_order_relaxed);

    // The epoch bump under mu_ publishes the batch state above to
    // every worker, which reads it only after waking under mu_; the
    // check-outs, also under mu_, publish the tasks' writes back.
    {
        std::unique_lock<std::mutex> lock(mu_);
        checkedOut_ = 0;
        ++epoch_;
        cvWork_.notify_all();
        cvDone_.wait(lock, [this] { return checkedOut_ == jobs_; });
    }

    std::exception_ptr first;
    for (std::exception_ptr &err : errors_) {
        if (err) {
            first = err;
            break;
        }
    }
    batch_.clear();
    errors_.clear();
    if (first)
        std::rethrow_exception(first);
}

void
TaskPool::workerLoop(int wid)
{
    tlsWorkerId = wid;
    tlsPool = this;
    std::uint64_t seen_epoch = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            cvWork_.wait(lock, [this, seen_epoch] {
                return shutdown_ || epoch_ != seen_epoch;
            });
            if (shutdown_)
                return;
            seen_epoch = epoch_;
        }
        const std::size_t n = batch_.size();
        for (std::size_t task;
             (task = next_.fetch_add(1, std::memory_order_relaxed)) < n;)
            executeTask(task);
        std::lock_guard<std::mutex> lock(mu_);
        if (++checkedOut_ == jobs_)
            cvDone_.notify_one();
    }
}

} // namespace nupea
