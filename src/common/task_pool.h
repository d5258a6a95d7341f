/**
 * @file
 * A small self-scheduling thread pool for batches of independent
 * tasks.
 *
 * Extracted from the bench sweep runner so library code (and the
 * repository benchmark) can run batches without depending on the
 * bench layer. Its tasks are coarse — sweep points of milliseconds,
 * compilations of up to seconds — so the scheduling shape is the
 * simplest one that keeps every worker busy:
 *
 *  - One task cursor: a woken worker claims the next unclaimed task
 *    with a single atomic fetch_add until the cursor passes the end
 *    of the batch, so a free worker always takes the next task in
 *    submission order. No lock is taken per task.
 *  - Check-out handshake: a worker that runs off the end of the
 *    batch checks out under the pool mutex, and runAll() returns
 *    only once all `jobs` workers have checked out. No worker can
 *    therefore still be claiming from a batch that the next runAll()
 *    replaces; workers read the batch only after waking under that
 *    same mutex.
 *  - Fail-fast: the first task exception poisons the batch. Workers
 *    still claim every task, but un-started ones are skipped (and
 *    counted — see skippedLast()); the first-submitted recorded
 *    exception is re-thrown from runAll() after the drain.
 *
 * Callers take turns: top-level runAll() calls from different threads
 * serialize on one submit mutex, so at most one thread at a time runs
 * tasks under a given worker id. A runAll() from inside a task of the
 * same pool runs its batch inline on the calling thread and keeps the
 * enclosing worker's currentWorker() id; results are identical either
 * way. Cross-pool cycles are not supported: a task of pool A that
 * waits on pool B, whose task in turn submits to A, blocks.
 */

#ifndef NUPEA_COMMON_TASK_POOL_H
#define NUPEA_COMMON_TASK_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nupea
{

class TaskPool
{
  public:
    /** A pool of `jobs` workers; jobs <= 1 runs every batch inline on
     *  the calling thread (the exact serial path, no threads made).
     *  fatal() when the workers cannot be started. */
    explicit TaskPool(int jobs = 1);
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    int jobs() const { return jobs_; }

    /**
     * The executing pool's worker index for the current thread:
     * 0..jobs-1 on pool threads (and on the calling thread while an
     * inline batch runs), -1 elsewhere. Tasks use it to index
     * per-worker scratch state without any locking.
     */
    static int currentWorker();

    /**
     * Execute every task to completion (blocks). If any task threw,
     * the batch is poisoned — tasks not yet started are skipped —
     * and the first-submitted recorded exception is re-thrown here
     * after the whole batch has drained. Safe to call from inside a
     * task of this pool (the nested batch runs inline).
     */
    void runAll(std::vector<std::function<void()>> tasks);

    /** Tasks skipped by fail-fast poisoning in the last top-level
     *  batch (nested inline batches do not disturb this count). */
    std::size_t
    skippedLast() const
    {
        return skipped_.load(std::memory_order_relaxed);
    }

    /**
     * Parallel map with submission-ordered results. T must be
     * default-constructible and move-assignable.
     */
    template <typename T>
    std::vector<T>
    map(std::vector<std::function<T()>> tasks)
    {
        std::vector<T> out(tasks.size());
        std::vector<std::function<void()>> thunks;
        thunks.reserve(tasks.size());
        for (std::size_t i = 0; i < tasks.size(); ++i)
            thunks.push_back([&out, &tasks, i] { out[i] = tasks[i](); });
        runAll(std::move(thunks));
        return out;
    }

  private:
    void workerLoop(int wid);
    /** Run one task of the dispatched batch, recording errors and
     *  honoring poisoning. */
    void executeTask(std::size_t task);
    /** Serial execution with purely local error/skip state; used for
     *  jobs=1 pools and nested calls. */
    void runInline(std::vector<std::function<void()>> &tasks,
                   bool top_level);
    /** Wake and join every started worker. */
    void stopWorkers();

    int jobs_;

    /** Held by the top-level runAll() for its whole batch. */
    std::mutex submitMu_;

    /** Current dispatched batch; written by runAll() before the epoch
     *  bump, read by workers only after they wake under mu_. */
    std::vector<std::function<void()>> batch_;
    std::vector<std::exception_ptr> errors_; ///< slot per task

    std::atomic<std::size_t> next_{0};    ///< first unclaimed task
    std::atomic<bool> poisoned_{false};   ///< a task threw
    std::atomic<std::size_t> skipped_{0}; ///< fail-fast skips

    std::mutex mu_; ///< guards epoch_, checkedOut_ and shutdown_
    std::condition_variable cvWork_;
    std::condition_variable cvDone_;
    std::uint64_t epoch_ = 0; ///< bumped per dispatched batch
    int checkedOut_ = 0;      ///< workers done with this epoch
    bool shutdown_ = false;

    /** Last: its threads use every member above. */
    std::vector<std::thread> workers_;
};

} // namespace nupea

#endif // NUPEA_COMMON_TASK_POOL_H
