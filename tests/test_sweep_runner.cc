/**
 * @file
 * Unit tests for the SweepRunner and its TaskPool scheduler (the
 * simulated-stats guarantees live in test_golden_stats): jobs=1-vs-N
 * result equality, first-submitted exception ordering, fail-fast skip
 * accounting, imbalanced task lengths, a many-tiny-task stress case,
 * nested and racing top-level batches, back-to-back batches through
 * the check-out handshake, a pool whose workers cannot start, the
 * strict CLI and NUPEA_BENCH_JOBS parsing, the sweep footer's
 * unverified-point count, and runSweep's reused per-worker stores
 * against fresh-store runs.
 * Labeled `tsan` so the tsan preset races the scheduler.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <thread>

#include "bench/sweep_runner.h"

namespace nupea
{
namespace
{

using namespace nupea::bench;

TEST(SweepRunnerTest, MapPreservesSubmissionOrder)
{
    SweepRunner runner(SweepOptions{8});
    constexpr int kTasks = 64;
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < kTasks; ++i) {
        tasks.push_back([i]() {
            // Imbalanced task lengths: free workers take the rest.
            if (i % 7 == 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
            return i * i;
        });
    }
    std::vector<int> out = runner.map(std::move(tasks));
    ASSERT_EQ(out.size(), static_cast<std::size_t>(kTasks));
    for (int i = 0; i < kTasks; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(SweepRunnerTest, ChunkedParallelMatchesSerial)
{
    // 130 tasks on 8 workers: each worker claims many tasks off the
    // shared cursor, yet results land in submission order.
    constexpr int kTasks = 130;
    auto makeTasks = []() {
        std::vector<std::function<long()>> tasks;
        for (int i = 0; i < kTasks; ++i)
            tasks.push_back([i]() { return 3L * i * i - i + 1; });
        return tasks;
    };
    SweepRunner serial(SweepOptions{1});
    SweepRunner parallel(SweepOptions{8});
    std::vector<long> a = serial.map(makeTasks());
    std::vector<long> b = parallel.map(makeTasks());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], b[i]) << i;
}

TEST(SweepRunnerTest, ReusableAcrossBatches)
{
    SweepRunner runner(SweepOptions{4});
    for (int batch = 0; batch < 3; ++batch) {
        std::vector<std::function<int()>> tasks;
        for (int i = 0; i < 16; ++i)
            tasks.push_back([batch, i]() { return batch * 100 + i; });
        std::vector<int> out = runner.map(std::move(tasks));
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(out[static_cast<std::size_t>(i)],
                      batch * 100 + i);
    }
}

TEST(SweepRunnerTest, ManyTinyTasksStress)
{
    SweepRunner runner(SweepOptions{8});
    constexpr int kTasks = 2000;
    for (int batch = 0; batch < 3; ++batch) {
        std::atomic<int> ran{0};
        std::vector<std::function<int()>> tasks;
        for (int i = 0; i < kTasks; ++i) {
            tasks.push_back([i, &ran]() {
                ran.fetch_add(1, std::memory_order_relaxed);
                return i;
            });
        }
        std::vector<int> out = runner.map(std::move(tasks));
        EXPECT_EQ(ran.load(), kTasks);
        EXPECT_EQ(runner.skippedLast(), 0u);
        for (int i = 0; i < kTasks; ++i)
            EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
    }
}

TEST(SweepRunnerTest, InlineFailFastSkipsAndOrdersDeterministically)
{
    // jobs=1 runs in submission order on the calling thread, so
    // fail-fast is fully deterministic: task 3 throws, 4..31 are
    // skipped (28 of them, including would-fail task 7), and the
    // re-thrown exception is task 3's.
    SweepRunner runner(SweepOptions{1});
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 32; ++i) {
        tasks.push_back([i]() -> int {
            if (i == 3 || i == 7)
                fatal("task ", i, " failed");
            return i;
        });
    }
    try {
        runner.map(std::move(tasks));
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("task 3"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_EQ(runner.skippedLast(), 28u);
}

TEST(SweepRunnerTest, ParallelPropagatesFirstSubmittedError)
{
    // Only task 0 fails, so regardless of execution interleaving the
    // first-submitted recorded exception is task 0's.
    SweepRunner runner(SweepOptions{8});
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 64; ++i) {
        tasks.push_back([i]() -> int {
            if (i == 0)
                fatal("task ", i, " failed");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            return i;
        });
    }
    try {
        runner.map(std::move(tasks));
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("task 0"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_LE(runner.skippedLast(), 63u);

    // The pool survives a poisoned batch.
    std::vector<std::function<int()>> clean;
    for (int i = 0; i < 16; ++i)
        clean.push_back([i]() { return i + 1; });
    std::vector<int> out = runner.map(std::move(clean));
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i + 1);
    EXPECT_EQ(runner.skippedLast(), 0u);
}

TEST(SweepRunnerTest, ParallelFailFastSkipsQueuedWork)
{
    // Task 0 poisons the batch immediately; every other task sleeps,
    // so by the time the workers reach the end of the batch a
    // meaningful share of it must be skipped rather than executed.
    SweepRunner runner(SweepOptions{4});
    std::vector<std::function<int()>> tasks;
    std::atomic<int> executed{0};
    for (int i = 0; i < 96; ++i) {
        tasks.push_back([i, &executed]() -> int {
            if (i == 0)
                fatal("poison");
            executed.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            return i;
        });
    }
    EXPECT_THROW(runner.map(std::move(tasks)), FatalError);
    EXPECT_GT(runner.skippedLast(), 0u);
    EXPECT_EQ(static_cast<std::size_t>(executed.load()) +
                  runner.skippedLast() + 1,
              96u);
}

TEST(SweepRunnerTest, JobsResolution)
{
    // Explicit jobs win.
    EXPECT_EQ(SweepRunner(SweepOptions{3}).jobs(), 3);
    // --jobs parsing in its spellings.
    const char *argv1[] = {"bench", "--jobs", "5"};
    EXPECT_EQ(parseSweepArgs(3, const_cast<char **>(argv1)).jobs, 5);
    const char *argv2[] = {"bench", "--jobs=6"};
    EXPECT_EQ(parseSweepArgs(2, const_cast<char **>(argv2)).jobs, 6);
    const char *argv3[] = {"bench", "-j4"};
    EXPECT_EQ(parseSweepArgs(2, const_cast<char **>(argv3)).jobs, 4);
    const char *argv4[] = {"bench", "-j", "2"};
    EXPECT_EQ(parseSweepArgs(3, const_cast<char **>(argv4)).jobs, 2);
    // No flag: deferred to env/hardware.
    const char *argv5[] = {"bench"};
    EXPECT_EQ(parseSweepArgs(1, const_cast<char **>(argv5)).jobs, 0);
    EXPECT_GE(defaultJobs(), 1);

    // NUPEA_BENCH_JOBS, when set and non-empty, must be a positive
    // integer, and a bad value is reported under the variable's name
    // rather than a --jobs flag the user never passed.
    const char *inherited = std::getenv("NUPEA_BENCH_JOBS");
    const std::optional<std::string> saved =
        inherited ? std::optional<std::string>(inherited) : std::nullopt;
    setenv("NUPEA_BENCH_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3);
    EXPECT_EQ(SweepRunner(SweepOptions{}).jobs(), 3);
    for (const char *bad : {"abc", "0"}) {
        setenv("NUPEA_BENCH_JOBS", bad, 1);
        try {
            defaultJobs();
            ADD_FAILURE() << "accepted NUPEA_BENCH_JOBS=" << bad;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("NUPEA_BENCH_JOBS"),
                      std::string::npos)
                << e.what();
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    const int cores = hw == 0 ? 1 : static_cast<int>(hw);
    setenv("NUPEA_BENCH_JOBS", "", 1);
    EXPECT_EQ(defaultJobs(), cores);
    unsetenv("NUPEA_BENCH_JOBS");
    EXPECT_EQ(defaultJobs(), cores);
    if (saved)
        setenv("NUPEA_BENCH_JOBS", saved->c_str(), 1);
}

/** Trace files in `dir` (the sweep writes `<label>.trace.json`). */
std::vector<std::filesystem::path>
traceFilesIn(const std::string &dir)
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files.push_back(entry.path());
    return files;
}

TEST(SweepRunnerTest, SweepExceptionRemovesPartialTraceFiles)
{
    std::string dir = ::testing::TempDir() + "sweep_trace_raii";
    std::filesystem::remove_all(dir);

    CompiledWorkload cw = compileWorkload(
        "dmv", Topology::makeMonaco(12, 12), CompileOptions{});

    SweepOptions opts{1};
    opts.traceDir = dir;
    SweepRunner runner(opts);

    // A 1-cycle watchdog makes the second point fatal() mid-sweep.
    std::vector<RunSpec> specs;
    specs.push_back({&cw, primaryConfig(MemModel::Monaco, 0), "ok"});
    RunSpec doomed{&cw, primaryConfig(MemModel::Monaco, 0), "doomed"};
    doomed.config.maxFabricCycles = 1;
    specs.push_back(doomed);

    EXPECT_THROW(runSweep(runner, specs), FatalError);
    // No truncated, invalid JSON left behind — the aborted sweep
    // removes every per-point trace file, including completed ones.
    EXPECT_TRUE(traceFilesIn(dir).empty());

    // The same sweep without the doomed point keeps its traces, and
    // each file is a finished (bracket-closed) JSON document.
    specs.pop_back();
    SweepResult sweep = runSweep(runner, specs);
    EXPECT_EQ(sweep.points.size(), 1u);
    std::vector<std::filesystem::path> files = traceFilesIn(dir);
    ASSERT_EQ(files.size(), 1u);
    std::ifstream in(files[0]);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.rfind("{\"displayTimeUnit\"", 0), 0u);
    EXPECT_NE(text.rfind("]}"), std::string::npos);
    std::filesystem::remove_all(dir);
}

TEST(SweepRunnerTest, SameLabelPointsKeepDistinctTraceFiles)
{
    // Two points whose labels sanitize to the same stem must not
    // silently overwrite each other's Chrome trace; the collision
    // gets the point index appended while the first keeps the plain
    // label-derived filename.
    std::string dir = ::testing::TempDir() + "sweep_trace_dup";
    std::filesystem::remove_all(dir);

    CompiledWorkload cw = compileWorkload(
        "dmv", Topology::makeMonaco(12, 12), CompileOptions{});

    SweepOptions opts{1};
    opts.traceDir = dir;
    SweepRunner runner(opts);

    std::vector<RunSpec> specs;
    specs.push_back({&cw, primaryConfig(MemModel::Monaco, 0), "dup"});
    specs.push_back({&cw, primaryConfig(MemModel::Upea, 2), "du/p"});
    specs.push_back({&cw, primaryConfig(MemModel::Upea, 4), "dup"});

    SweepResult sweep = runSweep(runner, specs);
    EXPECT_EQ(sweep.points.size(), 3u);
    std::vector<std::filesystem::path> files = traceFilesIn(dir);
    ASSERT_EQ(files.size(), 3u);
    std::vector<std::string> names;
    for (const std::filesystem::path &p : files)
        names.push_back(p.filename().string());
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names[0], "du_p.trace.json");
    EXPECT_EQ(names[1], "dup.p2.trace.json");
    EXPECT_EQ(names[2], "dup.trace.json");
    std::filesystem::remove_all(dir);
}

TEST(SweepRunnerTest, LanesResolution)
{
    // There is one simulation engine and no batching knob: every
    // spelling of `--lanes` is an unknown argument, never silently
    // accepted.
    const char *argv1[] = {"bench", "--lanes", "4"};
    const char *argv2[] = {"bench", "--lanes=6"};
    const char *argv3[] = {"bench", "--jobs", "2", "--lanes", "1"};
    const std::pair<int, const char **> cases[] = {
        {3, argv1}, {2, argv2}, {5, argv3}};
    for (const auto &[argc, argv] : cases) {
        try {
            parseSweepArgs(argc, const_cast<char **>(argv));
            ADD_FAILURE() << "accepted " << argv[argc - 1];
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("unrecognized argument"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SweepRunnerTest, LaneBatchedSweepMatchesScalar)
{
    // Each worker runs its points back to back on one StoreBank lane,
    // resetTo() the point's image before each. A sweep mixing two
    // compiled images and four configs (one with deeper FIFOs) must
    // give, in submission order, exactly what a fresh-store
    // runCompiled gives per point: serially, where one lane carries
    // every point, and on three workers. The per-field store-reuse
    // fuzz is LaneGenFuzz in test_gen_fuzz.
    CompileOptions copts;
    copts.saIterationsPerNode = 20;
    Topology topo = Topology::makeMonaco(12, 12);
    CompiledWorkload dmv = compileWorkload("dmv", topo, copts);
    CompiledWorkload ms = compileWorkload("mergesort", topo, copts);

    std::vector<RunSpec> specs;
    specs.push_back({&dmv, primaryConfig(MemModel::Monaco, 0), "dmv/monaco"});
    specs.push_back({&dmv, primaryConfig(MemModel::Upea, 2), "dmv/upea2"});
    specs.push_back({&dmv, primaryConfig(MemModel::NumaUpea, 2), "dmv/numa2"});
    RunSpec deep{&dmv, primaryConfig(MemModel::Monaco, 0), "dmv/deep-fifo"};
    deep.config.fifoDepth = 4;
    specs.push_back(deep);
    specs.push_back({&ms, primaryConfig(MemModel::Monaco, 0), "ms/monaco"});
    specs.push_back({&ms, primaryConfig(MemModel::Upea, 2), "ms/upea2"});

    std::vector<BenchRun> fresh;
    for (const RunSpec &spec : specs)
        fresh.push_back(runCompiled(*spec.cw, spec.config));

    for (int jobs : {1, 3}) {
        SweepRunner runner(SweepOptions{jobs});
        SweepResult swept = runSweep(runner, specs);
        ASSERT_EQ(swept.points.size(), specs.size()) << "jobs " << jobs;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::string who =
                formatMessage("jobs ", jobs, " ", specs[i].label);
            const BenchRun &a = fresh[i];
            const BenchRun &b = swept.points[i].run;
            EXPECT_EQ(swept.points[i].label, specs[i].label) << who;
            EXPECT_TRUE(a.verified) << who;
            EXPECT_TRUE(b.verified) << who;
            EXPECT_EQ(a.fabricCycles, b.fabricCycles) << who;
            EXPECT_EQ(a.systemCycles, b.systemCycles) << who;
            EXPECT_EQ(a.firings, b.firings) << who;
            EXPECT_EQ(a.loads, b.loads) << who;
            EXPECT_EQ(a.stores, b.stores) << who;
            EXPECT_EQ(a.energy.compute, b.energy.compute) << who;
            EXPECT_EQ(a.energy.network, b.energy.network) << who;
            EXPECT_EQ(a.energy.memory, b.energy.memory) << who;
            EXPECT_EQ(a.stats.counters(), b.stats.counters()) << who;
        }
    }
}

TEST(SweepRunnerTest, PnrChainsResolution)
{
    const char *argv1[] = {"bench", "--pnr-chains", "4"};
    EXPECT_EQ(parseSweepArgs(3, const_cast<char **>(argv1)).pnrChains,
              4);
    const char *argv2[] = {"bench", "--pnr-chains=2"};
    EXPECT_EQ(parseSweepArgs(2, const_cast<char **>(argv2)).pnrChains,
              2);
    // Default: the single-seed placer.
    const char *argv3[] = {"bench"};
    EXPECT_EQ(parseSweepArgs(1, const_cast<char **>(argv3)).pnrChains,
              1);
    // Zero, negative, and garbage counts are refused loudly.
    const char *argv4[] = {"bench", "--pnr-chains", "0"};
    EXPECT_THROW(parseSweepArgs(3, const_cast<char **>(argv4)),
                 FatalError);
    const char *argv5[] = {"bench", "--pnr-chains=-3"};
    EXPECT_THROW(parseSweepArgs(2, const_cast<char **>(argv5)),
                 FatalError);
    const char *argv6[] = {"bench", "--pnr-chains", "many"};
    EXPECT_THROW(parseSweepArgs(3, const_cast<char **>(argv6)),
                 FatalError);
    const char *argv7[] = {"bench", "--pnr-chains"};
    EXPECT_THROW(parseSweepArgs(2, const_cast<char **>(argv7)),
                 FatalError);
}

TEST(SweepRunnerTest, PnrEpochResolution)
{
    // The portfolio epoch length is the placer's fixed default (tests
    // set PortfolioOptions::epochMovesPerNode directly); every
    // spelling of `--pnr-epoch` is an unknown argument.
    const char *argv1[] = {"bench", "--pnr-epoch", "10"};
    const char *argv2[] = {"bench", "--pnr-epoch=5"};
    const std::pair<int, const char **> cases[] = {{3, argv1},
                                                   {2, argv2}};
    for (const auto &[argc, argv] : cases) {
        try {
            parseSweepArgs(argc, const_cast<char **>(argv));
            ADD_FAILURE() << "accepted " << argv[1];
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("unrecognized argument"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(TaskPoolTest, NestedRunAllRunsInlineKeepingWorkerId)
{
    // A task that submits a batch to its own pool: the nested batch
    // must run inline (no deadlock) and keep the enclosing worker's
    // id so per-worker arenas stay exclusive.
    TaskPool pool(4);
    std::atomic<int> inner_ran{0};
    std::atomic<int> id_mismatches{0};
    std::vector<std::function<void()>> outer;
    for (int i = 0; i < 16; ++i) {
        outer.push_back([&pool, &inner_ran, &id_mismatches]() {
            int outer_id = TaskPool::currentWorker();
            std::vector<std::function<void()>> inner;
            for (int j = 0; j < 8; ++j) {
                inner.push_back([&inner_ran, &id_mismatches,
                                 outer_id]() {
                    inner_ran.fetch_add(1, std::memory_order_relaxed);
                    if (TaskPool::currentWorker() != outer_id)
                        id_mismatches.fetch_add(
                            1, std::memory_order_relaxed);
                });
            }
            pool.runAll(std::move(inner));
        });
    }
    pool.runAll(std::move(outer));
    EXPECT_EQ(inner_ran.load(), 16 * 8);
    EXPECT_EQ(id_mismatches.load(), 0);
    EXPECT_EQ(TaskPool::currentWorker(), -1);
}

TEST(TaskPoolTest, RacingTopLevelBatchesKeepWorkerIdsExclusive)
{
    // Two threads submit to one pool at once. Top-level batches take
    // turns, so no two tasks ever run under the same currentWorker()
    // id at the same time: tasks may index per-worker state by it
    // without locking.
    constexpr int kJobs = 2;
    TaskPool pool(kJobs);
    std::array<std::atomic<int>, kJobs> holders{};
    std::atomic<int> collisions{0};
    std::atomic<int> bad_ids{0};
    auto submit = [&]() {
        for (int batch = 0; batch < 10; ++batch) {
            std::vector<std::function<void()>> tasks;
            for (int t = 0; t < 6; ++t) {
                tasks.push_back([&]() {
                    int w = TaskPool::currentWorker();
                    if (w < 0 || w >= kJobs) {
                        bad_ids.fetch_add(1);
                        return;
                    }
                    std::atomic<int> &slot =
                        holders[static_cast<std::size_t>(w)];
                    if (slot.fetch_add(1) != 0)
                        collisions.fetch_add(1);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                    slot.fetch_sub(1);
                });
            }
            pool.runAll(std::move(tasks));
        }
    };
    std::thread a(submit), b(submit);
    a.join();
    b.join();
    EXPECT_EQ(collisions.load(), 0);
    EXPECT_EQ(bad_ids.load(), 0);
}

TEST(TaskPoolTest, BackToBackBatchesRunEveryTaskOnce)
{
    // Many tiny batches in a row, most smaller than the pool: every
    // worker must check out of a batch before the next one replaces
    // it, so a late-waking worker never claims a task of the next
    // batch. Each task marks its own slot; all must end at exactly 1.
    constexpr int kBatches = 2000;
    TaskPool pool(8);
    std::vector<std::size_t> first_slot;
    std::size_t slots = 0;
    for (int b = 0; b < kBatches; ++b) {
        first_slot.push_back(slots);
        slots += 1 + static_cast<std::size_t>(b % 3);
    }
    std::vector<std::atomic<int>> marks(slots);
    for (int b = 0; b < kBatches; ++b) {
        const std::size_t begin = first_slot[static_cast<std::size_t>(b)];
        std::vector<std::function<void()>> tasks;
        for (int t = 0; t <= b % 3; ++t) {
            std::atomic<int> &mark =
                marks[begin + static_cast<std::size_t>(t)];
            tasks.push_back([&mark]() { mark.fetch_add(1); });
        }
        pool.runAll(std::move(tasks));
    }
    for (std::size_t i = 0; i < slots; ++i)
        ASSERT_EQ(marks[i].load(), 1) << "slot " << i;
}

/**
 * Death-test body: cap the address space a little above its current
 * size, so only a few of 200 workers can get a stack, and build the
 * pool. It must report fatal() — leaving the started workers joined —
 * rather than hang; the child exits 3 on that FatalError.
 */
void
startPoolUnderAddressSpaceCap()
{
    alarm(10); // a hang kills the child instead of stalling the suite
    long pages = 0;
    std::ifstream("/proc/self/statm") >> pages;
    const rlim_t in_use = static_cast<rlim_t>(pages) *
                          static_cast<rlim_t>(sysconf(_SC_PAGESIZE));
    rlimit cap{};
    getrlimit(RLIMIT_AS, &cap);
    cap.rlim_cur = std::min(cap.rlim_max, in_use + (rlim_t{64} << 20));
    setrlimit(RLIMIT_AS, &cap);
    try {
        TaskPool pool(200);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        _exit(3);
    }
    _exit(0);
}

TEST(TaskPoolDeathTest, WorkerStartFailureIsFatalNotAHang)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer runtimes reserve more address space "
                    "than the cap leaves";
#endif
    EXPECT_EXIT(startPoolUnderAddressSpaceCap(),
                ::testing::ExitedWithCode(3),
                "cannot start 200 worker threads");
}

TEST(SweepRunnerTest, UnknownArgumentsAreFatal)
{
    // A typo like `--job 8` must not silently run serial.
    const char *argv1[] = {"bench", "--job", "8"};
    EXPECT_THROW(parseSweepArgs(3, const_cast<char **>(argv1)),
                 FatalError);
    const char *argv2[] = {"bench", "--jbos=8"};
    EXPECT_THROW(parseSweepArgs(2, const_cast<char **>(argv2)),
                 FatalError);
    const char *argv3[] = {"bench", "-x"};
    EXPECT_THROW(parseSweepArgs(2, const_cast<char **>(argv3)),
                 FatalError);
    // Nor may a stray positional argument, such as a bare job count
    // meant as `-j 4` or a second value after --jobs's own.
    const char *argv4[] = {"bench", "4"};
    const char *argv5[] = {"bench", "--jobs", "2", "8"};
    const char *argv6[] = {"bench", "-"};
    const std::pair<int, const char **> positional[] = {
        {2, argv4}, {4, argv5}, {2, argv6}};
    for (const auto &[argc, argv] : positional) {
        try {
            parseSweepArgs(argc, const_cast<char **>(argv));
            ADD_FAILURE() << "accepted " << argv[argc - 1];
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("unrecognized argument"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SweepRunnerTest, ExtraOptionsAreAccepted)
{
    // Bench-specific options come back with their values in both
    // spellings, and their values are not mistaken for unknown
    // arguments.
    std::optional<std::string> out, guard;
    const std::vector<ValueOption> declared = {{"--out", &out},
                                               {"--guard", &guard}};
    const char *argv1[] = {"bench", "--out",  "x.json", "--jobs", "3",
                           "--guard", "y.json"};
    SweepOptions opts =
        parseSweepArgs(7, const_cast<char **>(argv1), declared);
    EXPECT_EQ(opts.jobs, 3);
    EXPECT_EQ(out, "x.json");
    EXPECT_EQ(guard, "y.json");

    out.reset();
    guard.reset();
    const char *argv2[] = {"bench", "--guard=g.json", "--out=x.json"};
    opts = parseSweepArgs(3, const_cast<char **>(argv2), declared);
    EXPECT_EQ(opts.jobs, 0);
    EXPECT_EQ(out, "x.json");
    EXPECT_EQ(guard, "g.json");

    // The last occurrence wins, whatever its spelling; an absent
    // option stays empty.
    out.reset();
    guard.reset();
    const char *argv3[] = {"bench", "--out", "a.json", "--out=b.json"};
    parseSweepArgs(4, const_cast<char **>(argv3), declared);
    EXPECT_EQ(out, "b.json");
    EXPECT_FALSE(guard.has_value());
    const char *argv4[] = {"bench", "--out=a.json", "--out", "c.json"};
    parseSweepArgs(4, const_cast<char **>(argv4), declared);
    EXPECT_EQ(out, "c.json");

    // A declared option without its value is fatal...
    const char *argv5[] = {"bench", "--out"};
    EXPECT_THROW(parseSweepArgs(2, const_cast<char **>(argv5), declared),
                 FatalError);
    // ...and so is any undeclared one.
    const char *argv6[] = {"bench", "--out", "x.json"};
    EXPECT_THROW(parseSweepArgs(3, const_cast<char **>(argv6)),
                 FatalError);
}

TEST(SweepRunnerTest, GenSweepSeedArgumentsAreValidated)
{
    // bench_gen_sweep reads `--seeds` (random shape count, >= 1) and
    // `--seed` (base seed, >= 0) through parseIntArg with these
    // bounds; a negative or non-integer count must not run an empty,
    // vacuously passing sweep or fall back to the curated registry.
    const long long kSeedMax = std::numeric_limits<long long>::max();
    EXPECT_EQ(parseIntArg("--seeds", "12", 1), 12);
    EXPECT_EQ(parseIntArg("--seed", "0", 0, kSeedMax), 0);
    EXPECT_EQ(parseIntArg("--seed", "9000000000", 0, kSeedMax),
              9000000000LL);
    for (const char *bad : {"-3", "0", "abc", "", "3x", "1.5"})
        EXPECT_THROW(parseIntArg("--seeds", bad, 1), FatalError) << bad;
    for (const char *bad : {"-1", "seven", "1e3"})
        EXPECT_THROW(parseIntArg("--seed", bad, 0, kSeedMax), FatalError)
            << bad;
    // The default bound is int's range, which --jobs and --seeds use.
    EXPECT_THROW(parseIntArg("--seeds", "9000000000", 1), FatalError);
    try {
        parseIntArg("--seeds", "-3", 1);
        ADD_FAILURE() << "accepted --seeds -3";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("--seeds must be >= 1"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SweepRunnerTest, FooterCountsUnverifiedSimulatedPoints)
{
    // Simulated points that missed their host reference are counted
    // and named; pruned points carry no verdict and are not.
    SweepResult sweep;
    auto add = [&](const char *label, bool verified, bool pruned) {
        PointResult p;
        p.label = label;
        p.run.verified = verified;
        p.pruned = pruned;
        sweep.points.push_back(p);
        sweep.prunedPoints += pruned ? 1 : 0;
    };
    add("a/monaco", true, false);
    add("b/monaco", true, false);
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(printSweepFooter(sweep), 0u);
    std::string clean = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(clean.find("[sweep] 0 simulated points missed the host "
                         "reference\n"),
              std::string::npos)
        << clean;

    add("c/upea2", false, false);
    add("d/upea2", false, true);
    add("e/numa-upea2", false, false);
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(printSweepFooter(sweep), 2u);
    std::string failed = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(failed.find("[sweep] 2 simulated points missed the host "
                          "reference: c/upea2, e/numa-upea2\n"),
              std::string::npos)
        << failed;
    EXPECT_EQ(failed.find("d/upea2"), std::string::npos) << failed;
}

} // namespace
} // namespace nupea
