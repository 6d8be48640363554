/**
 * @file
 * Shared plumbing of the benchmark's workloads: run arguments, the
 * result every workload fills, the metric catalog with units, and the
 * measurement helpers each workload uses.
 */

#ifndef PHLOEM_PERFBENCH_BENCH_H
#define PHLOEM_PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Shrink every input for smoke tests. */
    bool tiny = false;
    /** Chrome trace output of a traced run ("" = do not write). */
    std::string traceOut;
    /** Repository root (where examples/ lives); the working directory. */
    std::string root = ".";
    /** Scratch directory for the service socket. */
    std::string runDir = ".bench_build";
};

struct MetricDef
{
    const char* name;
    const char* unit;
};

/** End-to-end metrics, printed by an untraced run on every workload. */
const std::vector<MetricDef>& endToEndMetrics();

/** Per-layer metrics, printed by a traced run on every workload. */
const std::vector<MetricDef>& perLayerMetrics();

/** What one workload run produced. */
struct Result
{
    std::map<std::string, double> metrics;
    int64_t attempted = 0;
    int64_t failed = 0;
    /** First few failure messages (stderr only). */
    std::vector<std::string> errors;

    /** Count one operation; record its error when it failed. */
    void
    count(bool ok, const std::string& what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (errors.size() < 8)
                errors.push_back(what);
        }
    }
};

/** Every log a run recorded; owns them so spans outlive the workload. */
struct Trace
{
    std::vector<std::unique_ptr<SpanLog>> logs;

    SpanLog&
    add(bool enabled)
    {
        logs.push_back(std::make_unique<SpanLog>(enabled));
        return *logs.back();
    }

    std::vector<const SpanLog*>
    view() const
    {
        std::vector<const SpanLog*> v;
        for (const auto& l : logs)
            v.push_back(l.get());
        return v;
    }
};

/** Set-up runs per benchmark run; setup_s is their median. */
constexpr int kSetupReps = 5;

/** Process high-water RSS in MB. */
double peakRssMb();

/**
 * Split a run's measuring time: an untraced run measures it all; a
 * traced run measures the first half untraced (the baseline for the
 * tracing overhead) and the second half traced.
 */
struct Phase
{
    double seconds;
    bool traced;
};
std::vector<Phase> measurePhases(const RunArgs& args);

/** One kernel's timing samples (ns) from an untraced phase. */
struct KernelTimes
{
    /** Pipeline executions on the workload's backend. */
    std::vector<double> pipelineNs;
    /** Serial executions of the same kernel and input. */
    std::vector<double> serialNs;
    /** Whole operations as the user runs them. */
    std::vector<double> opNs;
};

/**
 * The timing metrics every workload derives the same way: the
 * end-to-end sums of per-kernel p10s (the host's fast-phase times) and
 * the p10 speedup gmean, plus the per-kernel medians, p90s and ops/s
 * as bench.* per-layer metrics.
 */
void addTimingMetrics(const std::vector<KernelTimes>& kernels, double ops,
                      double seconds, Result& out);

/**
 * Per-layer metrics every workload derives the same way from its
 * spans: self time per measured op of each module, the set-up compile
 * split (frontend.ms, compiler.ms, driver.*), and the tracing overhead:
 * Σ per-kernel p10 op time of the traced phase against the untraced
 * phase, over the kernels both phases sampled.
 */
void addSpanMetrics(const Trace& trace, double traced_ops,
                    const std::vector<KernelTimes>& untraced,
                    const std::vector<KernelTimes>& traced, Result& out);

// Workload entry points (one file each).
void runNative(const RunArgs& args, Result& out, Trace& trace);
void runSimSweep(const RunArgs& args, Result& out, Trace& trace);
void runServiceMix(const RunArgs& args, Result& out, Trace& trace);

} // namespace perfbench

#endif // PHLOEM_PERFBENCH_BENCH_H
