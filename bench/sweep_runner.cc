#include "bench/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_set>

#include "analysis/hazards.h"
#include "analysis/perf_model.h"
#include "analysis/profile.h"
#include "common/log.h"
#include "sim/trace.h"

namespace nupea
{
namespace bench
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

int
parseCountValue(const char *opt, const std::string &text)
{
    return static_cast<int>(parseIntArg(opt, text, 1));
}

double
parsePruneValue(const std::string &text)
{
    double value = 0.0;
    try {
        std::size_t used = 0;
        value = std::stod(text, &used);
        if (used != text.size())
            fatal("--prune expects a fraction, got '", text, "'");
    } catch (const FatalError &) {
        throw;
    } catch (const std::exception &) {
        fatal("--prune expects a fraction, got '", text, "'");
    }
    if (!(value > 0.0) || value > 1.0)
        fatal("--prune must be in (0, 1], got ", text,
              " (1 simulates everything; smaller fractions trade "
              "accuracy for speed)");
    return value;
}

void
printUsage(std::FILE *to, const char *prog,
           const std::vector<ValueOption> &extraOptions)
{
    std::fprintf(to,
                 "usage: %s [options]\n"
                 "  --jobs N | -j N | -jN   worker threads (default: "
                 "NUPEA_BENCH_JOBS, else core count)\n"
                 "  --prune FRAC            statically score every point "
                 "and cycle-simulate only the best FRAC in (0, 1];\n"
                 "                          skipped points report static-"
                 "model predictions, not measurements (approximate\n"
                 "                          near throughput cliffs -- see "
                 "EXPERIMENTS.md before trusting pruned sweeps)\n"
                 "  --stall-report          per-point stall-attribution "
                 "tables after the sweep\n"
                 "  --trace-out DIR         one Chrome trace_event JSON "
                 "per point into DIR\n"
                 "  --help | -h             this message\n",
                 prog);
    for (const ValueOption &opt : extraOptions)
        std::fprintf(to, "  %s VALUE\n", opt.name.c_str());
}

} // namespace

long long
parseIntArg(const std::string &opt, const std::string &text,
            long long min, long long max)
{
    long long value = 0;
    try {
        std::size_t used = 0;
        value = std::stoll(text, &used);
        if (used != text.size())
            fatal(opt, " expects an integer, got '", text, "'");
    } catch (const FatalError &) {
        throw;
    } catch (const std::exception &) {
        fatal(opt, " expects an integer, got '", text, "'");
    }
    if (value < min)
        fatal(opt, " must be >= ", min, ", got ", text);
    if (value > max)
        fatal(opt, " must be <= ", max, ", got ", text);
    return value;
}

int
defaultJobs()
{
    if (const char *env = std::getenv("NUPEA_BENCH_JOBS")) {
        if (*env != '\0')
            return parseCountValue("NUPEA_BENCH_JOBS", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

SweepOptions
parseSweepArgs(int argc, char **argv,
               const std::vector<ValueOption> &extraOptions)
{
    // The value of `--opt VALUE` (the next argument) or `--opt=VALUE`.
    // A missing or empty value is fatal: an empty path would switch
    // the option off without a word.
    auto nextValue = [&](const std::string &opt, int &i,
                         const char *what) {
        if (i + 1 >= argc || *argv[i + 1] == '\0')
            fatal(opt, " expects ", what);
        return std::string(argv[++i]);
    };
    auto inlineValue = [](const std::string &opt, const std::string &arg,
                          const char *what) {
        std::string value = arg.substr(opt.size() + 1);
        if (value.empty())
            fatal(opt, " expects ", what);
        return value;
    };
    auto matchesExtra = [&](const std::string &arg, int &i) {
        for (const ValueOption &opt : extraOptions) {
            if (arg == opt.name) {
                *opt.value = nextValue(arg, i, "a value");
                return true;
            }
            if (arg.rfind(opt.name + "=", 0) == 0) {
                *opt.value = inlineValue(opt.name, arg, "a value");
                return true;
            }
        }
        return false;
    };

    SweepOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--jobs" || arg == "-j") {
            opts.jobs =
                parseCountValue("--jobs", nextValue(arg, i, "a value"));
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opts.jobs = parseCountValue("--jobs", arg.substr(7));
        } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
            opts.jobs = parseCountValue("--jobs", arg.substr(2));
        } else if (arg == "--prune") {
            opts.prune =
                parsePruneValue(nextValue(arg, i, "a fraction in (0, 1]"));
        } else if (arg.rfind("--prune=", 0) == 0) {
            opts.prune = parsePruneValue(arg.substr(8));
        } else if (arg == "--stall-report") {
            opts.stallReport = true;
        } else if (arg == "--trace-out") {
            opts.traceDir = nextValue(arg, i, "a directory");
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            opts.traceDir = inlineValue("--trace-out", arg, "a directory");
        } else if (arg == "--help" || arg == "-h") {
            printUsage(stdout, argv[0], extraOptions);
            std::exit(0);
        } else if (matchesExtra(arg, i)) {
            // Bench-specific; the value is now in the caller's slot.
        } else {
            printUsage(stderr, argv[0], extraOptions);
            fatal("unrecognized argument '", arg, "'");
        }
    }
    return opts;
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(options),
      pool_(options.jobs > 0 ? options.jobs : defaultJobs())
{}

double
SweepResult::pointSeconds() const
{
    double sum = 0.0;
    for (const PointResult &p : points)
        sum += p.wallSeconds;
    return sum;
}

namespace
{

/** A spec label turned into a safe file stem. */
std::string
sanitizeLabel(const std::string &label)
{
    std::string out;
    out.reserve(label.size());
    for (char ch : label) {
        bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                  (ch >= '0' && ch <= '9') || ch == '.' || ch == '-' ||
                  ch == '_';
        out.push_back(ok ? ch : '_');
    }
    return out.empty() ? "point" : out;
}

/**
 * Per-point trace files + sinks, finished via RAII: if the sweep
 * throws mid-batch, the destructor closes every sink and removes the
 * partial files, so no truncated, invalid JSON survives on disk.
 */
class TraceFiles
{
  public:
    struct Slot
    {
        std::ofstream os;
        std::unique_ptr<ChromeTraceSink> sink;
        std::filesystem::path path;
    };

    explicit TraceFiles(std::size_t points) : slots_(points) {}

    ~TraceFiles()
    {
        for (std::unique_ptr<Slot> &slot : slots_) {
            if (slot && slot->sink)
                slot->sink->finish();
        }
        if (completed_)
            return;
        for (std::unique_ptr<Slot> &slot : slots_) {
            if (!slot)
                continue;
            slot->os.close();
            std::error_code ec;
            std::filesystem::remove(slot->path, ec);
        }
    }

    /** Open `<dir>/<label>.trace.json` and attach a sink for point
     *  `index`; returns the sink to hook into the point's config.
     *  Two labels sanitizing to one stem must not silently overwrite
     *  each other's file, so a colliding stem gets the point index
     *  (unique per sweep) appended; collision-free sweeps keep the
     *  plain label-derived filenames. */
    ChromeTraceSink *
    open(std::size_t index, const std::string &dir,
         const std::string &label)
    {
        auto slot = std::make_unique<Slot>();
        std::string stem = sanitizeLabel(label);
        if (!usedStems_.insert(stem).second) {
            stem += ".p" + std::to_string(index);
            NUPEA_ASSERT(usedStems_.insert(stem).second,
                         "trace file stem '", stem,
                         "' collides even with the point index");
        }
        slot->path = std::filesystem::path(dir) /
                     (stem + ".trace.json");
        slot->os.open(slot->path);
        if (!slot->os)
            fatal("cannot open trace file ", slot->path.string());
        slot->sink = std::make_unique<ChromeTraceSink>(slot->os);
        ChromeTraceSink *sink = slot->sink.get();
        slots_[index] = std::move(slot);
        return sink;
    }

    /** Close every sink's JSON document; the files are now valid and
     *  the destructor will keep them. */
    void
    finishAll()
    {
        for (std::unique_ptr<Slot> &slot : slots_) {
            if (slot && slot->sink)
                slot->sink->finish();
        }
        completed_ = true;
    }

  private:
    std::vector<std::unique_ptr<Slot>> slots_;
    std::unordered_set<std::string> usedStems_;
    bool completed_ = false;
};

} // namespace

namespace
{

/**
 * Pick the points --prune keeps: whole non-dominated fronts on
 * (predicted system cycles, predicted total energy), ties inside a
 * front broken by predicted cycles then submission order, until the
 * budget is filled. Returns a simulate/skip flag per point.
 */
std::vector<std::uint8_t>
selectByPrediction(const std::vector<PerfPrediction> &predictions,
                   std::size_t budget)
{
    const std::size_t n = predictions.size();
    std::vector<std::uint8_t> simulate(n, 0);
    auto dominates = [&](std::size_t a, std::size_t b) {
        double ca = predictions[a].systemCycles;
        double cb = predictions[b].systemCycles;
        double ea = predictions[a].energy.total();
        double eb = predictions[b].energy.total();
        return ca <= cb && ea <= eb && (ca < cb || ea < eb);
    };

    std::vector<std::size_t> remaining(n);
    for (std::size_t i = 0; i < n; ++i)
        remaining[i] = i;
    std::size_t chosen = 0;
    while (chosen < budget && !remaining.empty()) {
        std::vector<std::size_t> front, rest;
        for (std::size_t a : remaining) {
            bool dominated = false;
            for (std::size_t b : remaining) {
                if (b != a && dominates(b, a)) {
                    dominated = true;
                    break;
                }
            }
            (dominated ? rest : front).push_back(a);
        }
        std::sort(front.begin(), front.end(),
                  [&](std::size_t a, std::size_t b) {
                      double ca = predictions[a].systemCycles;
                      double cb = predictions[b].systemCycles;
                      if (ca != cb)
                          return ca < cb;
                      return a < b;
                  });
        for (std::size_t idx : front) {
            if (chosen >= budget)
                break;
            simulate[idx] = 1;
            ++chosen;
        }
        remaining = std::move(rest);
    }
    return simulate;
}

} // namespace

SweepResult
runSweep(SweepRunner &runner, const std::vector<RunSpec> &specs)
{
    const SweepOptions &opts = runner.options();
    if (!opts.traceDir.empty())
        std::filesystem::create_directories(opts.traceDir);

    // One slot per point so concurrent workers never share a stream.
    TraceFiles traces(specs.size());

    // One reusable, pre-faulted BackingStore per worker; the compiled
    // image itself is shared read-only across all workers.
    std::vector<StoreBank> banks(static_cast<std::size_t>(runner.jobs()));

    // Resolve the effective per-point configs up front (observability
    // knobs apply here). Trace files are opened later, once pruning
    // has decided which points actually simulate.
    std::vector<MachineConfig> configs(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        NUPEA_ASSERT(specs[i].cw != nullptr,
                     "RunSpec without a workload");
        configs[i] = specs[i].config;
        if (opts.observing())
            configs[i].stallAttribution = true;
    }

    // --prune: score every point statically and keep only the best
    // fraction (whole Pareto fronts on predicted cycles/energy).
    std::vector<std::uint8_t> simulate(specs.size(), 1);
    std::vector<PerfPrediction> predictions;
    std::vector<ExecutionProfile> profiles; ///< one per distinct cw
    std::vector<std::size_t> cw_of(specs.size(), 0);
    if (opts.prune < 1.0 && !specs.empty()) {
        // Distinct compiled workloads, first-appearance order; each
        // profiles once (the profile is config-independent) with a
        // scratch store big enough for any of its points.
        std::vector<const CompiledWorkload *> cws;
        std::vector<std::size_t> store_bytes;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            std::size_t k = 0;
            while (k < cws.size() && cws[k] != specs[i].cw)
                ++k;
            if (k == cws.size()) {
                cws.push_back(specs[i].cw);
                store_bytes.push_back(0);
            }
            cw_of[i] = k;
            store_bytes[k] = std::max(store_bytes[k],
                                      configs[i].memsys.memBytes);
        }

        std::vector<std::function<ExecutionProfile()>> profile_tasks;
        profile_tasks.reserve(cws.size());
        for (std::size_t k = 0; k < cws.size(); ++k) {
            const CompiledWorkload *cw = cws[k];
            std::size_t bytes = store_bytes[k];
            profile_tasks.push_back([cw, bytes]() {
                return profileGraph(cw->graph, cw->image, bytes);
            });
        }
        profiles = runner.map(std::move(profile_tasks));

        bool clean = true;
        for (std::size_t k = 0; k < profiles.size(); ++k) {
            if (!profiles[k].clean) {
                warn(cws[k]->workload->name(),
                     ": profile did not quiesce; --prune disabled "
                     "for this sweep");
                clean = false;
            }
        }

        if (clean) {
            predictions.resize(specs.size());
            for (std::size_t i = 0; i < specs.size(); ++i) {
                const MachineConfig &c = configs[i];
                PerfModelConfig pc{c.mem, c.memsys, c.energy,
                                   c.clockDivider, c.maxOutstanding,
                                   c.fifoDepth};
                predictions[i] = predictPerformance(
                    specs[i].cw->graph, specs[i].cw->pnr.placement,
                    specs[i].cw->topo, profiles[cw_of[i]], pc);
            }

            // Surface placement hazards the model found, once per
            // distinct workload (the first point's config).
            std::vector<std::uint8_t> hazard_done(cws.size(), 0);
            for (std::size_t i = 0; i < specs.size(); ++i) {
                if (hazard_done[cw_of[i]])
                    continue;
                hazard_done[cw_of[i]] = 1;
                DiagnosticReport hazards = analyzePlacementHazards(
                    specs[i].cw->graph, specs[i].cw->pnr.placement,
                    specs[i].cw->topo, profiles[cw_of[i]],
                    predictions[i]);
                for (const Diagnostic &d : hazards.diags())
                    warn(specs[i].cw->workload->name(), ": ",
                         diagIdName(d.id), ": ", d.message);
            }

            auto budget = static_cast<std::size_t>(
                opts.prune * static_cast<double>(specs.size()));
            budget = std::max<std::size_t>(1, budget);
            simulate = selectByPrediction(predictions, budget);
            std::size_t kept = 0;
            for (std::uint8_t s : simulate)
                kept += s;
            std::printf("[prune] statically scored %zu points: "
                        "simulating %zu, dropped %zu\n",
                        specs.size(), kept, specs.size() - kept);
        }
    }

    // Open trace files for the points that will actually run.
    std::size_t traced = 0;
    if (!opts.traceDir.empty()) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (!simulate[i])
                continue;
            configs[i].trace =
                traces.open(i, opts.traceDir, specs[i].label);
            ++traced;
        }
    }

    std::vector<std::size_t> run_order;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (simulate[i])
            run_order.push_back(i);
    }

    std::vector<std::function<PointResult()>> tasks;
    tasks.reserve(run_order.size());
    for (std::size_t i : run_order) {
        tasks.push_back([&specs, &configs, &banks, i]() {
            int worker = SweepRunner::currentWorker();
            NUPEA_ASSERT(worker >= 0 &&
                             static_cast<std::size_t>(worker) <
                                 banks.size(),
                         "sweep point outside a pool worker");
            const CompiledWorkload &cw = *specs[i].cw;
            const MachineConfig &config = configs[i];

            // Acquire (and prefault) the store before starting the
            // clock: a first-touch acquire faults in the whole image
            // span, which once inflated per-point wall times ~16x on
            // points whose simulated run is shorter than the fault
            // storm. Timed span = resetTo + simulation, matching what
            // "serial-equivalent cost" means for a recycled store.
            BackingStore &store =
                banks[static_cast<std::size_t>(worker)].acquire(
                    0, config.memsys.memBytes, cw.image.allocated());
            PointResult point;
            point.label = specs[i].label;
            auto start = std::chrono::steady_clock::now();
            point.run = runCompiled(cw, config, store);
            point.wallSeconds = secondsSince(start);
            return point;
        });
    }

    SweepResult sweep;
    sweep.jobs = runner.jobs();
    auto start = std::chrono::steady_clock::now();
    std::vector<PointResult> ran = runner.map(std::move(tasks));
    sweep.wallSeconds = secondsSince(start);
    sweep.points.resize(specs.size());
    for (std::size_t k = 0; k < run_order.size(); ++k)
        sweep.points[run_order[k]] = std::move(ran[k]);

    // Fill the pruned slots with the model's predictions so the
    // sweep's positional layout is unchanged for downstream tables.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (simulate[i])
            continue;
        PointResult &p = sweep.points[i];
        p.label = specs[i].label;
        p.pruned = true;
        const PerfPrediction &pred = predictions[i];
        const ExecutionProfile &prof = profiles[cw_of[i]];
        p.run.fabricCycles =
            static_cast<Cycle>(std::llround(pred.fabricCycles));
        p.run.systemCycles =
            static_cast<Cycle>(std::llround(pred.systemCycles));
        p.run.energy = pred.energy;
        p.run.avgMemLatency = pred.avgMemLatency;
        p.run.loads = prof.loads;
        p.run.stores = prof.stores;
        p.run.firings = prof.firings;
        p.run.verified = false;
        ++sweep.prunedPoints;
    }

    traces.finishAll();
    if (!opts.traceDir.empty())
        std::printf("[trace] wrote %zu Chrome trace files to %s\n",
                    traced, opts.traceDir.c_str());
    if (opts.stallReport) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (sweep.points[i].pruned)
                continue; // no machine ran; nothing to attribute
            printStallReport(*specs[i].cw, sweep.points[i].label,
                             sweep.points[i].run);
        }
    }
    return sweep;
}

std::vector<CompiledWorkload>
compileAll(SweepRunner &runner, const std::vector<CompileSpec> &specs)
{
    std::vector<std::function<CompiledWorkload()>> tasks;
    tasks.reserve(specs.size());
    for (const CompileSpec &spec : specs) {
        tasks.push_back([&spec]() {
            return compileWorkload(spec.name, spec.topo, spec.options);
        });
    }
    return runner.map(std::move(tasks));
}

std::size_t
printSweepFooter(const SweepResult &sweep)
{
    double serial = sweep.pointSeconds();
    double speedup =
        sweep.wallSeconds > 0.0 ? serial / sweep.wallSeconds : 1.0;
    std::printf("[sweep] %zu points on %d job%s: %.2fs wall "
                "(points sum %.2fs, %.2fx harness speedup)\n",
                sweep.points.size(), sweep.jobs,
                sweep.jobs == 1 ? "" : "s", sweep.wallSeconds, serial,
                speedup);
    if (sweep.prunedPoints > 0)
        std::printf("[sweep] %zu of those points were pruned: their "
                    "numbers are static-model predictions\n",
                    sweep.prunedPoints);
    std::string missed;
    std::size_t unverified = 0;
    for (const PointResult &p : sweep.points) {
        if (p.pruned || p.run.verified)
            continue;
        missed += (unverified++ ? ", " : ": ") + p.label;
    }
    std::printf("[sweep] %zu simulated point%s missed the host "
                "reference%s\n",
                unverified, unverified == 1 ? "" : "s", missed.c_str());
    return unverified;
}

} // namespace bench
} // namespace nupea
