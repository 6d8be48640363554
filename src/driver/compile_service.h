/**
 * @file
 * Reusable compile->run entry point shared by the phloemc CLI
 * and the phloemd compilation service.
 *
 * phloemc historically owned the whole path from source text to an
 * executed pipeline; a long-lived daemon needs the same path as a
 * library so compiled pipelines can be cached and re-run without paying
 * frontend -> passes -> flatten again. A CompiledPipeline is immutable
 * after construction (the runtime reads the pipeline and the
 * pre-flattened stage programs through const pointers only), so one
 * instance can back any number of concurrent runs — the property the
 * service's pipeline cache depends on.
 */

#ifndef PHLOEM_DRIVER_COMPILE_SERVICE_H
#define PHLOEM_DRIVER_COMPILE_SERVICE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "frontend/frontend.h"
#include "metrics/metrics.h"
#include "runtime/runtime.h"
#include "runtime/stats.h"
#include "runtime/trace.h"
#include "sim/binding.h"
#include "sim/config.h"
#include "sim/program.h"
#include "sim/stats.h"

namespace phloem::driver {

/** Everything that determines what gets compiled. */
struct CompileSpec
{
    /** Mini-C source text (already emitted C when coming from --taco). */
    std::string source;
    /** Kernel function to compile; empty = first function in source. */
    std::string kernelName;
    /** Pass/stage knobs. Pragma annotations are applied on top. */
    comp::CompileOptions opts;
};

/**
 * One compiled pipeline, immutable after compileSource() returns: the
 * lowered kernel, the pipeline, and each stage's pre-flattened
 * sim::Program (what the native runtime would otherwise recompute per
 * run). Shared const across concurrent runs.
 */
struct CompiledPipeline
{
    fe::CompiledKernel kernel;
    comp::CompileResult compiled;
    /** Options after applying the kernel's pragma annotations. */
    comp::CompileOptions effectiveOpts;
    /** One flattened program per pipeline stage (replicas share). */
    std::vector<sim::Program> programs;
    /** Wall time of frontend + passes + flatten, in nanoseconds. */
    double compileNs = 0.0;
    /**
     * Non-empty when the pass pipeline threw after a successful
     * frontend (kernel stays valid so callers can still print the
     * serial IR); compiled.problems holds verifier findings instead.
     */
    std::string error;

    bool ok() const { return error.empty() && compiled.ok(); }
};

using CompiledPipelinePtr = std::shared_ptr<const CompiledPipeline>;

/**
 * Compile source text to a pipeline: frontend, pragma annotations
 * (decouple/replicate/distribute), pass pipeline, IR verification, and
 * per-stage flattening. Returns null and fills *err only when the
 * frontend rejects the source; later failures come back in the
 * result's `error` / `compiled.problems` so callers can still show the
 * serial IR. Never throws.
 */
CompiledPipelinePtr compileSource(const CompileSpec& spec,
                                  std::string* err);

/** Execution backend for one request. */
enum class Backend : uint8_t { kNative, kSim };

/** Everything that determines one execution of a compiled pipeline. */
struct RunSpec
{
    Backend backend = Backend::kNative;
    /** Synthetic input size (see synthesizeBinding). */
    int64_t size = 4096;
    sim::SysConfig cfg;
    /**
     * Native deadlock timeout: ends a run in which every live task has
     * stayed parked this long. A run that keeps computing is bounded
     * only by maxInstructions.
     */
    int deadlockTimeoutMs = 10000;
    /** Dynamic instruction budget per worker (runaway backstop). */
    uint64_t maxInstructions = 4'000'000'000ull;
    /** Optional stall-attribution tracer (must outlive the run). */
    trace::Tracer* tracer = nullptr;
    /**
     * Request id threaded from the service (RuntimeOptions.requestId):
     * tags deadlock errors and trace metadata so service spans and
     * runtime stalls correlate per request. Empty outside the daemon.
     */
    std::string requestId;
};

/** Result of one execution, with the stats of whichever backend ran. */
struct ExecOutcome
{
    bool ok = false;
    std::string error;
    rt::NativeStats native;  ///< backend == kNative
    sim::RunStats sim;       ///< backend == kSim
    /** Metrics run collected from the backend stats (collect.h). */
    metrics::Run metricsRun;
    /** Wall time of the execution itself, in nanoseconds. */
    double runNs = 0.0;
};

/**
 * Synthesize a deterministic binding from the kernel signature: arrays
 * get size+1 elements (room for CSR-style `row[i+1]` reads); read-only
 * integer arrays get pseudo-random values in [0, size) so indirect
 * accesses stay in bounds; writable arrays start zeroed; integer
 * scalars are bound to `size` (the conventional trip count) and float
 * scalars to 0.5. Calling twice with the same function and size yields
 * bit-identical images — the property the service's cache-vs-cold
 * bit-identity check rests on.
 */
void synthesizeBinding(const ir::Function& fn, int64_t size,
                       sim::Binding& binding);

/**
 * Execute a compiled pipeline over an already-synthesized binding.
 * Native runs reuse the pipeline's pre-flattened programs (no
 * per-request flatten); sim runs include the Fig. 11 energy gauges in
 * the metrics run. Deadlocks and worker failures come back as
 * ok=false with the backend's diagnostic.
 */
ExecOutcome runCompiled(const CompiledPipeline& cp, const RunSpec& spec,
                       sim::Binding& binding);

/**
 * FNV-1a over every globally bound array's name, type, and raw bytes,
 * in name order — the service's cheap proxy for "bit-identical output
 * images" (two runs of the same kernel+size must produce equal hashes).
 */
uint64_t hashBinding(const sim::Binding& binding);

} // namespace phloem::driver

#endif // PHLOEM_DRIVER_COMPILE_SERVICE_H
