/**
 * @file
 * phloemc: the Phloem command-line compiler driver.
 *
 * Reads a mini-C source file, compiles the requested kernel (the first
 * `#pragma phloem` function by default) into a pipeline, and prints the
 * serial IR, the generated pipeline, and the compiler's notes. With
 * --taco, the input is a tensor index expression instead of C.
 *
 * Usage:
 *   phloemc [options] <file.c>
 *   phloemc --taco 'y(i) = A(i,j) * x(j)'
 *
 * Options:
 *   --stages N      target stage-thread count (default 4)
 *   --no-ra         disable reference accelerators
 *   --no-cv         disable control values (implies no DCE/handlers)
 *   --no-dce        disable inter-stage dead code elimination
 *   --no-handlers   disable control-value handlers
 *   --kernel NAME   compile the named function
 *   --ir-only       print only the serial IR
 *   --quiet         print only the pipeline summary line
 *   --run[=MODE]    execute the compiled pipeline on synthetic inputs;
 *                   MODE is native (host threads, default), sim
 *                   (cycle-approximate simulator), or both (run both and
 *                   compare outputs bit-for-bit)
 *   --size N        synthetic input size for --run (default 4096)
 *   --profile       with --run=native: per-opcode dynamic instruction
 *                   counts and per-queue scan-RA push-batch statistics
 *   --trace=PATH    with --run: write a stall-attribution trace as
 *                   Chrome trace_event JSON (load in Perfetto). Native
 *                   runs trace wall-clock ns; sim runs trace simulated
 *                   cycles. With --run=both the sim trace goes to
 *                   PATH with ".sim" inserted before the extension.
 *   --report=PATH   with --run: write one schema-versioned metrics
 *                   report (metrics/metrics.h). --run=both puts both
 *                   backends' runs in the same report and prints a
 *                   side-by-side comparison; inspect or diff with
 *                   tools/phloem-report.
 *   --autotune[=MODE]
 *                   profile-guided search instead of (not on top of) a
 *                   single static compile: synthesize training inputs,
 *                   profile candidate pipelines (cut sets, replication,
 *                   queue depths) on MODE — native (default; measured
 *                   wall clocks + per-queue backpressure steering) or
 *                   sim (deterministic cycle counts) — and print the
 *                   winner, the Fig. 13-style candidate distribution,
 *                   and the cost-model calibration. --report adds the
 *                   autotune_* metrics family; --size sets the largest
 *                   training input.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <map>

#include "compiler/compiler.h"
#include "driver/compile_service.h"
#include "driver/experiment.h"
#include "ir/op.h"
#include "ir/printer.h"
#include "metrics/autotune.h"
#include "metrics/collect.h"
#include "metrics/metrics.h"
#include "runtime/trace.h"
#include "sim/binding.h"
#include "taco/taco.h"

using namespace phloem;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: phloemc [--stages N] [--no-ra] [--no-cv] "
                 "[--no-dce] [--no-handlers]\n"
                 "               [--kernel NAME] [--ir-only] [--quiet]\n"
                 "               [--run[=native|sim|both]] [--size N]\n"
                 "               [--profile] [--trace=PATH]\n"
                 "               [--report=PATH] "
                 "[--autotune[=native|sim]] <file.c>\n"
                 "       phloemc --taco '<tensor expression>'\n");
    return 2;
}

enum class RunMode { kNone, kNative, kSim, kBoth };

/**
 * Strict integer parse for option operands: the whole operand must be a
 * decimal number. atoi() would quietly map garbage ("4x", "--run") to a
 * number and compile with a nonsense configuration.
 */
bool
parseInt64(const char* s, int64_t* out)
{
    if (s == nullptr || *s == '\0')
        return false;
    errno = 0;
    char* end = nullptr;
    long long v = std::strtoll(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0')
        return false;
    *out = static_cast<int64_t>(v);
    return true;
}

/**
 * Fetch the operand of option `flag`, advancing `i`; on a missing
 * operand, print a diagnostic and return nullptr.
 */
const char*
optionOperand(const char* flag, int argc, char** argv, int* i)
{
    if (*i + 1 >= argc) {
        std::fprintf(stderr, "phloemc: %s requires an operand\n", flag);
        return nullptr;
    }
    return argv[++*i];
}

/**
 * Per-opcode dynamic counts and per-queue push-batch statistics from
 * one native run (--profile).
 */
void
printProfile(const rt::NativeStats& st)
{
    std::vector<uint64_t> counts = st.totalOpCounts();
    std::vector<std::pair<uint64_t, int>> order;
    for (size_t op = 0; op < counts.size(); ++op)
        if (counts[op] > 0)
            order.emplace_back(counts[op], static_cast<int>(op));
    order.emplace_back(st.totalBranches(), -1);  // branch pseudo-row
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::printf("profile: dynamic instructions by opcode:\n");
    for (const auto& [n, op] : order) {
        if (n == 0)
            continue;
        std::printf("  %-10s %12llu\n",
                    op < 0 ? "branch"
                           : ir::opcodeName(static_cast<ir::Opcode>(op)),
                    static_cast<unsigned long long>(n));
    }

    uint64_t fused = 0;
    for (const auto& w : st.workers)
        fused += w.fusedSites;
    std::printf("profile: %llu fused superinstruction sites (static)\n",
                static_cast<unsigned long long>(fused));

    std::printf("profile: scan-RA push batches (values per ring sync):\n");
    for (const auto& q : st.queues) {
        if (q.pushBatches == 0)
            continue;
        std::printf("  q%-3d mean %7.1f over %8llu, hist:", q.id,
                    q.meanPushBatch(),
                    static_cast<unsigned long long>(q.pushBatches));
        // Buckets are log2: 1, 2-3, 4-7, ..., >= 128.
        for (int b = 0; b < rt::QueueStats::kBatchHistBuckets; ++b) {
            if (q.pushHist[b] == 0)
                continue;
            int lo = 1 << b;
            if (b == rt::QueueStats::kBatchHistBuckets - 1)
                std::printf(" %d+:%llu", lo,
                            static_cast<unsigned long long>(q.pushHist[b]));
            else
                std::printf(" %d-%d:%llu", lo, (1 << (b + 1)) - 1,
                            static_cast<unsigned long long>(q.pushHist[b]));
        }
        std::printf("\n");
    }

    if (st.sched.poolSize > 0) {
        std::printf("profile: scheduler: %d of %d pool workers used, "
                    "replica homes",
                    st.sched.workersUsed, st.sched.poolSize);
        for (int home : st.sched.homes)
            std::printf(" pool/%d", home);
        std::printf("; %llu parks, %llu unparks, %llu yields\n",
                    static_cast<unsigned long long>(st.sched.parks),
                    static_cast<unsigned long long>(st.sched.unparks),
                    static_cast<unsigned long long>(st.sched.yields));
    }
    std::printf("profile: rusage maxrss %.0f KiB, ctxsw %llu voluntary / "
                "%llu involuntary\n",
                st.rusage.maxRssKb,
                static_cast<unsigned long long>(st.rusage.voluntaryCtxSw),
                static_cast<unsigned long long>(st.rusage.involuntaryCtxSw));
}

/**
 * Write one backend's trace to disk, reporting rather than failing the
 * run on I/O errors (the trace is diagnostics, not the result).
 */
void
writeTrace(const trace::Tracer& tracer, const std::string& path)
{
    std::string err;
    if (!tracer.writeJson(path, &err))
        std::fprintf(stderr, "run: trace write failed: %s\n", err.c_str());
    else
        std::printf("run: trace written to %s (%zu workers)\n", path.c_str(),
                    tracer.buffers().size());
}

/** Insert ".sim" before the extension (or append it) for --run=both. */
std::string
simTracePath(const std::string& path)
{
    size_t dot = path.rfind('.');
    size_t slash = path.find_last_of('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + ".sim";
    return path.substr(0, dot) + ".sim" + path.substr(dot);
}

/** Sum one counter over a run's family points. */
uint64_t
familyCounterSum(const metrics::Run& run, const std::string& family,
                 const std::string& counter)
{
    auto it = run.families.find(family);
    if (it == run.families.end())
        return 0;
    uint64_t n = 0;
    for (const auto& p : it->second.points) {
        auto c = p.metrics.counters.find(counter);
        if (c != p.metrics.counters.end())
            n += c->second;
    }
    return n;
}

/**
 * Side-by-side sim-vs-native comparison for --run=both, sourced from
 * the two metrics runs. The functional counters (instructions, queue
 * ops, pushes/pops) must agree — both backends execute the same
 * program — so any mismatch is flagged; wall-cycles vs wall-ns are
 * different clocks and only shown for orientation.
 */
bool
printBothComparison(const metrics::Run& native, const metrics::Run& sim)
{
    struct FunctionalRow
    {
        const char* label;
        uint64_t nativeVal;
        uint64_t simVal;
    };
    auto counter = [](const metrics::Run& r, const char* name) {
        auto it = r.top.counters.find(name);
        return it != r.top.counters.end() ? it->second : uint64_t{0};
    };
    const FunctionalRow rows[] = {
        {"instructions", counter(native, "instructions"),
         counter(sim, "instructions")},
        {"queue ops", counter(native, "queue_ops"),
         counter(sim, "queue_ops")},
        {"queue pushes", familyCounterSum(native, "queue", "enq"),
         familyCounterSum(sim, "queue", "enq")},
        {"queue pops", familyCounterSum(native, "queue", "deq"),
         familyCounterSum(sim, "queue", "deq")},
        {"RA elements", counter(native, "ra_elements"),
         counter(sim, "ra_elements")},
    };

    std::printf("run: sim vs native\n");
    std::printf("  %-16s %16s %16s\n", "", "native", "sim");
    bool mismatch = false;
    for (const auto& r : rows) {
        bool differs = r.nativeVal != r.simVal;
        mismatch = mismatch || differs;
        std::printf("  %-16s %16llu %16llu%s\n", r.label,
                    static_cast<unsigned long long>(r.nativeVal),
                    static_cast<unsigned long long>(r.simVal),
                    differs ? "  << MISMATCH" : "");
    }
    auto gauge = [](const metrics::Run& r, const char* name) {
        auto it = r.top.gauges.find(name);
        return it != r.top.gauges.end() ? it->second : 0.0;
    };
    std::printf("  %-16s %13.3f ms %10llu cyc   (different clocks)\n",
                "wall", gauge(native, "wall_ns") / 1e6,
                static_cast<unsigned long long>(gauge(sim, "cycles")));
    if (mismatch) {
        std::fprintf(stderr,
                     "run: WARNING: functional counters differ between "
                     "backends (see table above)\n");
    }
    return !mismatch;
}

/** Write the report if requested; never fails the run on I/O errors. */
void
writeReport(const metrics::Report& report, const std::string& path)
{
    if (path.empty())
        return;
    std::string err;
    if (!metrics::writeFile(report, path, &err))
        std::fprintf(stderr, "run: report write failed: %s\n",
                     err.c_str());
    else
        std::printf("run: metrics report written to %s (%zu runs)\n",
                    path.c_str(), report.runs.size());
}

/** Execute the pipeline per --run; returns the process exit code. */
int
runPipeline(const driver::CompiledPipeline& cp, RunMode mode,
            int64_t size, bool profile,
            const std::string& trace_path, const std::string& report_path)
{
    const ir::Function& fn = *cp.kernel.fn;
    sim::SysConfig cfg;
    metrics::Report report;
    report.meta["tool"] = "phloemc";
    report.meta["kernel"] = fn.name;
    report.meta["input_size"] = std::to_string(size);
    report.meta["config_fingerprint"] = metrics::configFingerprint(cfg);

    sim::Binding native_binding;
    if (mode == RunMode::kNative || mode == RunMode::kBoth) {
        driver::synthesizeBinding(fn, size, native_binding);
        trace::Tracer tracer{trace::Timebase::kWallNs};
        driver::RunSpec spec;
        spec.backend = driver::Backend::kNative;
        spec.size = size;
        spec.cfg = cfg;
        if (!trace_path.empty())
            spec.tracer = &tracer;
        driver::ExecOutcome outcome =
            driver::runCompiled(cp, spec, native_binding);
        // Write the trace even on failure: stall attribution is most
        // useful exactly when the run deadlocked.
        if (!trace_path.empty())
            writeTrace(tracer, trace_path);
        metrics::Run& run =
            report.run(fn.name, {{"backend", "native"}}) =
                outcome.metricsRun;
        if (!trace_path.empty())
            metrics::addTraceSummary(run, tracer);
        const rt::NativeStats& native = outcome.native;
        if (!native.ok) {
            std::fprintf(stderr, "run: native failed: %s\n",
                         native.error.c_str());
            writeReport(report, report_path);
            return 1;
        }
        std::printf("run: native  %.3f ms, %d stage threads + %d RAs, "
                    "%llu instructions, enq blocks %llu, deq blocks %llu\n",
                    native.wallMs(), native.numStageThreads,
                    native.numRAWorkers,
                    static_cast<unsigned long long>(
                        native.totalInstructions()),
                    static_cast<unsigned long long>(
                        native.totalEnqBlocks()),
                    static_cast<unsigned long long>(
                        native.totalDeqBlocks()));
        if (profile)
            printProfile(native);
    }

    sim::Binding sim_binding;
    if (mode == RunMode::kSim || mode == RunMode::kBoth) {
        driver::synthesizeBinding(fn, size, sim_binding);
        trace::Tracer tracer{trace::Timebase::kSimCycles};
        driver::RunSpec spec;
        spec.backend = driver::Backend::kSim;
        spec.size = size;
        spec.cfg = cfg;
        if (!trace_path.empty())
            spec.tracer = &tracer;
        driver::ExecOutcome outcome =
            driver::runCompiled(cp, spec, sim_binding);
        if (!trace_path.empty())
            writeTrace(tracer, mode == RunMode::kBoth
                                   ? simTracePath(trace_path)
                                   : trace_path);
        metrics::Run& run = report.run(fn.name, {{"backend", "sim"}}) =
            outcome.metricsRun;
        if (!trace_path.empty())
            metrics::addTraceSummary(run, tracer);
        const sim::RunStats& stats = outcome.sim;
        if (stats.deadlock) {
            std::fprintf(stderr, "run: simulator deadlock:\n%s\n",
                         stats.deadlockInfo.c_str());
            writeReport(report, report_path);
            return 1;
        }
        std::printf("run: sim     %llu cycles\n",
                    static_cast<unsigned long long>(stats.cycles));
    }

    int rc = 0;
    if (mode == RunMode::kBoth) {
        for (const auto& [name, buf] : native_binding.globalArrays()) {
            const auto* other = sim_binding.array(name);
            if (!buf->contentEquals(*other)) {
                std::fprintf(stderr,
                             "run: MISMATCH: array '%s' differs between "
                             "native and sim\n",
                             name.c_str());
                writeReport(report, report_path);
                return 1;
            }
        }
        std::printf("run: native and sim outputs match bit-for-bit\n");
        const metrics::Run* nr =
            report.findRun(fn.name, {{"backend", "native"}});
        const metrics::Run* sr =
            report.findRun(fn.name, {{"backend", "sim"}});
        if (nr == nullptr || sr == nullptr) {
            std::fprintf(stderr, "run: internal: metrics run missing "
                                 "for the backend comparison\n");
            rc = 1;
        } else if (!printBothComparison(*nr, *sr)) {
            rc = 1;
        }
    }
    writeReport(report, report_path);
    return rc;
}

/** Render a search point's cut set for the winner/candidate lines. */
std::string
cutsToString(const std::vector<int>& cuts)
{
    std::string s = "{";
    for (size_t i = 0; i < cuts.size(); ++i) {
        if (i > 0)
            s += ",";
        s += std::to_string(cuts[i]);
    }
    return s + "}";
}

/**
 * The --autotune flow: synthesize training inputs for the kernel,
 * run the profile-guided search on the requested backend, and print
 * the winner, the Fig. 13-style distribution of candidate speedups by
 * pipeline length, the reject tally, the cost-model calibration, and
 * the comparison against the static flow's pipeline (measured on the
 * same training inputs). Returns the process exit code.
 */
int
runAutotune(const driver::CompiledPipeline& cp, const std::string& source,
            bool native, int64_t size, const std::string& report_path,
            bool quiet)
{
    const driver::AutotuneProfiler profiler =
        native ? driver::AutotuneProfiler::kNative
               : driver::AutotuneProfiler::kSim;
    const char* mode = native ? "native" : "sim";
    const std::string kernel = cp.kernel.fn->name;

    // Train on a half-size input plus the requested size so the winner
    // is not overfit to one trip count.
    std::vector<int64_t> sizes;
    if (size / 2 >= 64)
        sizes.push_back(size / 2);
    sizes.push_back(size);
    wl::Workload w = driver::synthesizeWorkload(source, kernel, sizes);
    w.maxThreads = cp.effectiveOpts.numStages;
    driver::Experiment exp(std::move(w));

    comp::AutotuneOptions aopts;
    aopts.base = cp.effectiveOpts;
    aopts.base.explicitCuts.clear();
    aopts.base.replicas = 1;
    aopts.base.distributeBoundaryOp = -1;
    aopts.base.shrinkToFit = false;
    aopts.maxThreads = cp.effectiveOpts.numStages;
    if (native) {
        // Wall-clock profiles expose real backpressure, so let the
        // refiner explore queue depths and replication too.
        aopts.maxQueueDepth = 96;
        aopts.maxReplicas = 2;
    }

    std::printf("autotune: profiling candidates on %s (%zu training "
                "input%s, up to %d stage threads)\n",
                mode, sizes.size(), sizes.size() == 1 ? "" : "s",
                aopts.maxThreads);
    comp::AutotuneResult result = exp.autotunePGO(aopts, profiler);

    if (!quiet)
        for (const auto& note : result.notes)
            std::printf("autotune: note: %s\n", note.c_str());

    if (!quiet && !result.rejects.empty()) {
        std::map<std::string, int> byReason;
        for (const auto& r : result.rejects)
            byReason[r.reason]++;
        for (const auto& [reason, n] : byReason)
            std::printf("autotune: rejected %d: %s\n", n,
                        reason.c_str());
    }

    if (result.entries.empty()) {
        std::fprintf(stderr,
                     "autotune: no candidate survived profiling "
                     "(%zu rejected)\n",
                     result.rejects.size());
        return 1;
    }

    if (!quiet) {
        // Fig. 13's x-axis: candidates grouped by pipeline length
        // (stages + RAs), speedup distribution per length.
        std::map<int, std::vector<double>> byLen;
        for (const auto& e : result.entries)
            byLen[e.lengthWithRAs].push_back(e.trainingSpeedup);
        std::printf("autotune: training speedup by pipeline length "
                    "(stages + RAs):\n");
        std::printf("  %-7s %5s %8s %8s %8s\n", "length", "n", "min",
                    "median", "max");
        for (auto& [len, v] : byLen) {
            std::sort(v.begin(), v.end());
            std::printf("  %-7d %5zu %8.3f %8.3f %8.3f\n", len,
                        v.size(), v.front(), v[v.size() / 2], v.back());
        }
    }

    const comp::AutotuneCalibration& cal = result.calibration;
    if (cal.predictedTop1MeasuredRank >= 0)
        std::printf("autotune: cost model: predicted #1 placed %d of %d "
                    "measured; mean rank displacement %.2f\n",
                    cal.predictedTop1MeasuredRank + 1, cal.seedCandidates,
                    cal.meanRankDisplacement);

    std::printf("autotune: winner: cuts %s, replicas %d, queue depth "
                "%s -> %.3fx training speedup (%d candidates profiled)\n",
                cutsToString(result.bestPoint.cutOps).c_str(),
                result.bestPoint.replicas,
                result.bestPoint.queueDepth > 0
                    ? std::to_string(result.bestPoint.queueDepth).c_str()
                    : "default",
                result.bestTrainingSpeedup, result.profiled);

    double static_speedup = 0.0;
    if (cp.compiled.ok()) {
        static_speedup =
            exp.trainingSpeedup(*cp.compiled.pipeline, profiler);
        std::printf("autotune: static flow: %.3fx training speedup -> "
                    "%s\n",
                    static_speedup,
                    result.bestTrainingSpeedup >= static_speedup
                        ? "autotuned pipeline wins"
                        : "static pipeline wins (measurement noise or "
                          "model beat the search)");
    }

    if (!report_path.empty()) {
        metrics::Report report;
        report.meta["tool"] = "phloemc";
        report.meta["kernel"] = kernel;
        report.meta["input_size"] = std::to_string(size);
        report.meta["config_fingerprint"] =
            metrics::configFingerprint(exp.config());
        metrics::Run run = metrics::autotuneToMetrics(kernel, result, mode);
        if (static_speedup > 0)
            run.top.gauges["static_training_speedup"] = static_speedup;
        report.runs.push_back(std::move(run));
        writeReport(report, report_path);
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    comp::CompileOptions opts;
    std::string path;
    std::string kernel_name;
    std::string taco_expr;
    bool ir_only = false;
    bool quiet = false;
    RunMode run_mode = RunMode::kNone;
    enum class TuneMode { kNone, kNative, kSim };
    TuneMode tune_mode = TuneMode::kNone;
    int64_t run_size = 4096;
    bool profile = false;
    std::string trace_path;
    std::string report_path;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--stages") {
            const char* v = optionOperand("--stages", argc, argv, &i);
            int64_t stages = 0;
            if (v == nullptr || !parseInt64(v, &stages) || stages < 1 ||
                stages > 64) {
                if (v != nullptr)
                    std::fprintf(stderr,
                                 "phloemc: --stages needs an integer in "
                                 "[1, 64], got '%s'\n",
                                 v);
                return usage();
            }
            opts.numStages = static_cast<int>(stages);
        } else if (arg == "--no-ra") {
            opts.referenceAccelerators = false;
        } else if (arg == "--no-cv") {
            opts.controlValues = false;
        } else if (arg == "--no-dce") {
            opts.dce = false;
        } else if (arg == "--no-handlers") {
            opts.handlers = false;
        } else if (arg == "--kernel") {
            const char* v = optionOperand("--kernel", argc, argv, &i);
            if (v == nullptr)
                return usage();
            kernel_name = v;
        } else if (arg == "--taco") {
            const char* v = optionOperand("--taco", argc, argv, &i);
            if (v == nullptr)
                return usage();
            taco_expr = v;
        } else if (arg == "--ir-only") {
            ir_only = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--profile") {
            profile = true;
        } else if (arg.rfind("--trace=", 0) == 0) {
            trace_path = arg.substr(std::string("--trace=").size());
            if (trace_path.empty()) {
                std::fprintf(stderr,
                             "phloemc: --trace needs an output path\n");
                return usage();
            }
        } else if (arg == "--trace") {
            const char* v = optionOperand("--trace", argc, argv, &i);
            if (v == nullptr || *v == '\0') {
                std::fprintf(stderr,
                             "phloemc: --trace needs an output path\n");
                return usage();
            }
            trace_path = v;
        } else if (arg.rfind("--report=", 0) == 0) {
            report_path = arg.substr(std::string("--report=").size());
            if (report_path.empty()) {
                std::fprintf(stderr,
                             "phloemc: --report needs an output path\n");
                return usage();
            }
        } else if (arg == "--report") {
            const char* v = optionOperand("--report", argc, argv, &i);
            if (v == nullptr || *v == '\0') {
                std::fprintf(stderr,
                             "phloemc: --report needs an output path\n");
                return usage();
            }
            report_path = v;
        } else if (arg == "--run" || arg == "--run=native") {
            run_mode = RunMode::kNative;
        } else if (arg == "--run=sim") {
            run_mode = RunMode::kSim;
        } else if (arg == "--run=both") {
            run_mode = RunMode::kBoth;
        } else if (arg == "--autotune" || arg == "--autotune=native") {
            tune_mode = TuneMode::kNative;
        } else if (arg == "--autotune=sim") {
            tune_mode = TuneMode::kSim;
        } else if (arg.rfind("--autotune=", 0) == 0) {
            std::fprintf(stderr,
                         "phloemc: --autotune needs native or sim, "
                         "got '%s'\n",
                         arg.substr(std::string("--autotune=").size())
                             .c_str());
            return usage();
        } else if (arg == "--size") {
            const char* v = optionOperand("--size", argc, argv, &i);
            if (v == nullptr || !parseInt64(v, &run_size) ||
                run_size < 1) {
                if (v != nullptr)
                    std::fprintf(stderr,
                                 "phloemc: --size needs an integer "
                                 ">= 1, got '%s'\n",
                                 v);
                return usage();
            }
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "phloemc: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        } else if (!path.empty()) {
            std::fprintf(stderr,
                         "phloemc: more than one input file ('%s' and "
                         "'%s')\n",
                         path.c_str(), arg.c_str());
            return usage();
        } else {
            path = arg;
        }
    }

    std::string source;
    if (!taco_expr.empty()) {
        taco::TacoKernel k;
        try {
            k = taco::compileExpression("taco_kernel", taco_expr);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "phloemc: %s\n", e.what());
            return 1;
        }
        if (!quiet)
            std::printf("=== emitted C (from '%s') ===\n%s\n",
                        k.expression.c_str(), k.source.c_str());
        source = k.source;
    } else {
        if (path.empty())
            return usage();
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "phloemc: cannot open %s\n",
                         path.c_str());
            return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        source = buf.str();
    }

    try {
        driver::CompileSpec spec;
        spec.source = source;
        spec.kernelName = kernel_name;
        spec.opts = opts;
        std::string compile_err;
        driver::CompiledPipelinePtr cp =
            driver::compileSource(spec, &compile_err);
        if (cp == nullptr) {
            std::fprintf(stderr, "phloemc: %s\n", compile_err.c_str());
            return 1;
        }
        if (!quiet && !cp->kernel.ann.phloem) {
            std::fprintf(stderr,
                         "phloemc: note: '%s' has no #pragma phloem; "
                         "compiling anyway\n",
                         cp->kernel.fn->name.c_str());
        }
        if (!quiet)
            std::printf("=== serial IR ===\n%s\n",
                        ir::toString(*cp->kernel.fn).c_str());
        if (ir_only)
            return 0;
        if (!cp->error.empty()) {
            std::fprintf(stderr, "phloemc: %s\n", cp->error.c_str());
            return 1;
        }

        const comp::CompileResult& result = cp->compiled;
        if (!quiet) {
            for (const auto& note : result.notes)
                std::printf("note: %s\n", note.c_str());
            std::printf("\n=== pipeline ===\n%s\n",
                        ir::toString(*result.pipeline).c_str());
        }
        std::printf("%s: %zu stages + %zu RAs, %d queues%s\n",
                    cp->kernel.fn->name.c_str(),
                    result.pipeline->stages.size(),
                    result.pipeline->ras.size(),
                    result.pipeline->numQueues(),
                    result.problems.empty() ? "" : "  [VERIFY FAILED]");
        for (const auto& p : result.problems)
            std::fprintf(stderr, "verify: %s\n", p.c_str());
        if (!result.problems.empty())
            return 1;
        if (tune_mode != TuneMode::kNone) {
            if (run_mode != RunMode::kNone) {
                std::fprintf(stderr, "phloemc: --autotune and --run are "
                                     "mutually exclusive\n");
                return usage();
            }
            return runAutotune(*cp, source,
                               tune_mode == TuneMode::kNative, run_size,
                               report_path, quiet);
        }
        if (run_mode != RunMode::kNone)
            return runPipeline(*cp, run_mode, run_size, profile,
                               trace_path, report_path);
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "phloemc: %s\n", e.what());
        return 1;
    }
}
