/**
 * @file
 * Parallel sweep runner for the figure-reproduction benches.
 *
 * Every figure sweep is a set of (compiled workload, machine config)
 * points; each point is a pure function of its inputs — a fresh
 * Machine over a BackingStore reset to the compiled image — so points
 * execute concurrently on a small thread pool and aggregate
 * deterministically in submission order. Simulated results are
 * bit-identical for any job count (enforced by test_golden_stats);
 * only harness wall-clock changes.
 *
 * The scheduler itself — one atomic task cursor, a check-out
 * handshake per batch, and fail-fast poisoning — lives in
 * common/task_pool.h, where the repository benchmark uses it too;
 * SweepRunner is a thin wrapper that owns one TaskPool plus the
 * sweep-level options.
 *
 * Thread-safety contract leaned on here (audited with the original
 * pool PR):
 *  - CompiledWorkload is immutable after compileWorkload(): runs
 *    reset a per-worker BackingStore to its baked memory image
 *    instead of re-running the workload's init(), and
 *    Workload::verify() is const.
 *  - Machine, MemorySystem, MemAccessModel, StatSet and Rng hold all
 *    state per instance; the library has no mutable globals (the only
 *    function-local static is the const workloadNames() vector, whose
 *    C++11 magic-static init is thread-safe).
 *  - fatal() inside a point is caught on the worker and re-thrown
 *    from runAll() on the submitting thread, first-submitted first.
 */

#ifndef NUPEA_BENCH_SWEEP_RUNNER_H
#define NUPEA_BENCH_SWEEP_RUNNER_H

#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/task_pool.h"

namespace nupea
{
namespace bench
{

/** Knobs for the runner (CLI/env resolution in parseSweepArgs). */
struct SweepOptions
{
    SweepOptions() = default;
    explicit SweepOptions(int jobs_count) : jobs(jobs_count) {}

    /** Worker count; 0 = NUPEA_BENCH_JOBS, else the core count. */
    int jobs = 0;
    /** Run every point with stall attribution and print per-point
     *  attribution tables after the sweep. */
    bool stallReport = false;
    /** When non-empty, write one Chrome trace_event JSON per point
     *  into this directory (implies stall attribution, so the traces
     *  carry stall intervals). */
    std::string traceDir;
    /** Run the static verifier on every compilation (`--verify`, the
     *  default; `--no-verify` clears it). */
    bool verify = true;
    /** Statically score every point with the performance model
     *  (analysis/perf_model.h) and cycle-simulate only the best
     *  `prune` fraction, Pareto-selected on (predicted cycles,
     *  predicted energy); skipped points carry the model's
     *  predictions instead of measurements (PointResult::pruned).
     *  1.0 (the default) simulates everything. */
    double prune = 1.0;
    /** Portfolio-placer chains per compilation (`--pnr-chains`).
     *  1 (the default) is the historical single-seed placer; larger
     *  values run that many independent annealing chains with
     *  dominated-chain early kill (compiler/placement.h). Applied by
     *  compileAll() to specs that don't pin their own chain count. */
    int pnrChains = 1;

    /** Any observability feature requested? */
    bool
    observing() const
    {
        return stallReport || !traceDir.empty();
    }
};

/** NUPEA_BENCH_JOBS when set and non-empty, else the hardware
 *  concurrency. A set, non-empty value must be a positive integer;
 *  anything else is fatal() naming the variable. */
int defaultJobs();

/**
 * `text` as a whole decimal integer in [min, max]; otherwise fatal()
 * naming `opt`. The check behind --jobs and --pnr-chains, exported
 * for benches with integer options of their own.
 */
long long parseIntArg(const std::string &opt, const std::string &text,
                      long long min,
                      long long max = std::numeric_limits<int>::max());

/** A bench-specific option taking one value, `--opt VALUE` or
 *  `--opt=VALUE`: parseSweepArgs stores the last occurrence's value
 *  in `*value` and leaves it empty when the option is absent. */
struct ValueOption
{
    std::string name;
    std::optional<std::string> *value;
};

/**
 * Parse --jobs N / --jobs=N / -j N / -jN, --prune FRAC /
 * --prune=FRAC (a fraction in (0, 1]; <= 0 or > 1 is fatal),
 * --pnr-chains N / --pnr-chains=N (< 1 is fatal), --stall-report,
 * --trace-out DIR / --trace-out=DIR, --verify / --no-verify, and the
 * bench's own `extraOptions`. --help / -h prints the usage message
 * and exits 0. Any other argument, option or positional, is fatal()
 * with the usage message — a typo like `--job 8` or a bare `4` meant
 * as `-j 4` must not silently run at the default job count.
 */
SweepOptions
parseSweepArgs(int argc, char **argv,
               const std::vector<ValueOption> &extraOptions = {});

/**
 * Sweep options wrapped around one TaskPool (see common/task_pool.h
 * for the scheduling shape). With jobs == 1 every batch runs inline
 * on the calling thread (the exact serial path).
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = SweepOptions{});

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    int jobs() const { return pool_.jobs(); }
    const SweepOptions &options() const { return options_; }

    /**
     * The executing pool's worker index for the current thread:
     * 0..jobs-1 on pool threads (and on the calling thread while an
     * inline jobs=1 batch runs), -1 elsewhere. Tasks use it to index
     * per-worker scratch state — e.g. runSweep's StoreBanks —
     * without any locking.
     */
    static int currentWorker() { return TaskPool::currentWorker(); }

    /**
     * Execute every task to completion (blocks). If any task threw,
     * the batch is poisoned — tasks not yet started are skipped —
     * and the first-submitted recorded exception is re-thrown here
     * after the whole batch has drained.
     */
    void
    runAll(std::vector<std::function<void()>> tasks)
    {
        pool_.runAll(std::move(tasks));
    }

    /** Tasks skipped by fail-fast poisoning in the last batch. */
    std::size_t skippedLast() const { return pool_.skippedLast(); }

    /**
     * Parallel map with submission-ordered results. T must be
     * default-constructible and move-assignable.
     */
    template <typename T>
    std::vector<T>
    map(std::vector<std::function<T()>> tasks)
    {
        return pool_.map(std::move(tasks));
    }

  private:
    SweepOptions options_;
    TaskPool pool_;
};

/** One sweep point: run `cw` under `config` on a fresh machine. */
struct RunSpec
{
    const CompiledWorkload *cw = nullptr;
    MachineConfig config;
    /** For error messages and per-point timing records. */
    std::string label;
};

/** One executed point, in submission order. */
struct PointResult
{
    BenchRun run;
    /** Host wall-clock of the simulated run only (store acquisition
     *  and page prefaulting are excluded). */
    double wallSeconds = 0.0;
    std::string label;
    /** The point was dropped by --prune: `run` holds the static
     *  model's predictions (cycles, energy, avg latency, functional
     *  load/store/firing counts), not measurements, and verified is
     *  false. */
    bool pruned = false;
};

/** A drained sweep plus harness-throughput accounting. */
struct SweepResult
{
    std::vector<PointResult> points; ///< submission order
    double wallSeconds = 0.0;        ///< batch wall-clock
    int jobs = 1;
    /** Points dropped by --prune (their slots carry predictions). */
    std::size_t prunedPoints = 0;

    /** Sum of per-point wall times (the serial-equivalent cost). */
    double pointSeconds() const;
};

/**
 * Execute every spec through the runner, one pool task per simulated
 * point; results in spec order. The compiled image is shared
 * read-only across workers: each worker reuses one pre-faulted
 * BackingStore from its own StoreBank, reset to the point's image
 * before every run (see BackingStore::resetTo), instead of mapping a
 * fresh store per point. When the runner's options request
 * observability, every point runs with stall attribution (and, with
 * a trace directory, writes `<dir>/<label>.trace.json`, suffixing
 * the point index when two labels sanitize to the same file stem);
 * per-point stall reports print after the sweep drains, in
 * submission order. If the sweep throws, partially-written trace
 * files are removed rather than left as truncated, invalid JSON.
 *
 * With options().prune < 1, every point is first scored by the
 * static performance model (one interpreter profile per distinct
 * compiled workload, then pure arithmetic per point) and only the
 * best max(1, floor(prune * n)) points — whole Pareto fronts on
 * (predicted system cycles, predicted total energy), ties broken by
 * predicted cycles then submission order — are cycle-simulated.
 * Dropped points keep their submission-order slots with the model's
 * predictions and pruned = true; trace files are written only for
 * simulated points, stall reports skip pruned points, and the count
 * of dropped points is logged and recorded in prunedPoints. If any
 * workload's profile is unclean (interpreter livelock), pruning is
 * disabled for the whole sweep rather than scoring on garbage.
 * Composes with --jobs.
 */
SweepResult runSweep(SweepRunner &runner,
                     const std::vector<RunSpec> &specs);

/** One workload compilation request. */
struct CompileSpec
{
    std::string name;
    Topology topo;
    CompileOptions options;
};

/**
 * Compile every spec through the runner (PnR dominates harness time
 * for the topology studies); results in spec order.
 */
std::vector<CompiledWorkload>
compileAll(SweepRunner &runner, const std::vector<CompileSpec> &specs);

/**
 * Print the standard "[sweep] N points ... " harness footer, with the
 * count and labels of simulated points that missed their host
 * reference (pruned points carry no verdict and are not counted).
 * Returns that count; a bench exits 1 when it is non-zero.
 */
std::size_t printSweepFooter(const SweepResult &sweep);

} // namespace bench
} // namespace nupea

#endif // NUPEA_BENCH_SWEEP_RUNNER_H
