/**
 * @file
 * Native-runtime speedup: compiled pipelines on real host threads vs.
 * native serial execution, measured in wall-clock time.
 *
 * Two parts:
 *  1. The workload suite, each compiled with the static flow and run on
 *     its first training input. This exercises the whole native stack
 *     (stages, RAs, control values) and validates outputs.
 *  2. A gather-reduce kernel sized for native execution: reference
 *     accelerators that absorb the irregular inner loop. RAs
 *     stream elements natively (no instruction dispatch), so the
 *     pipeline executes far fewer stage instructions per element than
 *     the serial baseline — this is the configuration expected to
 *     beat serial wall-clock even on modest host parallelism.
 *
 * Speedups are host-dependent (thread count, core count); the simulator
 * benches (bench_fig9 etc.) remain the paper-faithful numbers.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "compiler/compiler.h"
#include "driver/experiment.h"
#include "frontend/frontend.h"
#include "ir/builder.h"
#include "metrics/collect.h"
#include "runtime/runtime.h"
#include "runtime/trace.h"
#include "sim/binding.h"
#include "workloads/workload.h"

namespace {

using namespace phloem;

const char* kGatherSum = R"(
#pragma phloem
void gather_sum(const int* restrict pos, const int* restrict col,
                const double* restrict x, double* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        double sum = 0.0;
        int start = pos[i];
        int end = pos[i + 1];
        for (int k = start; k < end; k++) {
            sum = sum + x[col[k]];
        }
        out[i] = sum;
    }
}
)";

/** One result row; the machine-readable run goes to the shared report. */
struct Row
{
    std::string name;
    std::string input;
    bool ok = false;
    std::string error;
};

std::vector<Row> g_rows;

/** Output directory for --trace-dir; empty = tracing off. */
std::string g_trace_dir;

/**
 * Add one pipeline run (plus its serial baseline timing) to the shared
 * metrics report: the full native breakdown from nativeRunToMetrics,
 * the serial/pipeline wall times, and the wall-clock speedup.
 */
void
reportNativeRun(const std::string& name, const std::string& input,
                const rt::NativeStats& ser, const rt::NativeStats& pipe)
{
    if (bench::report() == nullptr)
        return;
    metrics::Run r = metrics::nativeRunToMetrics(name, pipe);
    r.labels["bench"] = "bench_native";  // assignment below keeps labels
    r.labels["input"] = input;
    r.top.setGauge("serial_ms", ser.wallMs());
    r.top.setGauge("pipeline_ms", pipe.wallMs());
    if (pipe.wallMs() > 0.0)
        r.top.setGauge("speedup", ser.wallMs() / pipe.wallMs());
    *bench::reportRun(r.name, r.labels) = std::move(r);
}

/** Consumer waits per 1000 values dequeued, over every ring. */
double
deqBlocksPerKValue(const rt::NativeStats& st)
{
    uint64_t values = 0;
    for (const auto& q : st.queues)
        values += q.deq;
    return values > 0 ? 1000.0 * static_cast<double>(st.totalDeqBlocks()) /
                            static_cast<double>(values)
                      : 0.0;
}

void
reportFailure(const std::string& name, const std::string& input)
{
    if (auto* r = bench::reportRun(name, {{"input", input}}))
        r->top.addCounter("failures", 1);
}

/** DIR/<name>-<input>.trace.json with path-hostile characters mapped. */
std::string
tracePath(const std::string& name, const std::string& input)
{
    std::string base = name + "-" + input;
    for (char& c : base)
        if (c == '/' || c == ' ')
            c = '_';
    return g_trace_dir + "/" + base + ".trace.json";
}

void
writeBenchTrace(const trace::Tracer& tracer, const std::string& name,
                const std::string& input)
{
    std::string path = tracePath(name, input);
    std::string err;
    if (!tracer.writeJson(path, &err))
        std::fprintf(stderr, "bench_native: trace write failed: %s\n",
                     err.c_str());
    else
        std::printf("  trace: %s\n", path.c_str());
}

void
reportRow(const char* name, const char* input,
          const driver::NativeOutcome& ser,
          const driver::NativeOutcome& pipe, int stage_threads, int ras)
{
    Row row;
    row.name = name;
    row.input = input;
    if (!ser.correct || !pipe.correct) {
        row.error = !ser.correct ? ser.error : pipe.error;
        g_rows.push_back(row);
        reportFailure(name, input);
        std::printf("%-12s %-12s FAILED (%s)\n", name, input,
                    row.error.c_str());
        return;
    }
    row.ok = true;
    g_rows.push_back(row);
    reportNativeRun(name, input, ser.stats, pipe.stats);
    std::printf("%-12s %-12s serial %8.2f ms   pipeline %8.2f ms   "
                "speedup %5.2fx   (%d threads + %d RAs, deq blocks/kvalue "
                "%.1f)\n",
                name, input, ser.stats.wallMs(), pipe.stats.wallMs(),
                ser.stats.wallMs() / pipe.stats.wallMs(), stage_threads,
                ras, deqBlocksPerKValue(pipe.stats));
}

/**
 * Hand-pipelined gather_sum tuned for native execution: a SCAN RA over
 * col absorbs the irregular column traversal into native streaming, and
 * the consumer's accumulation loop is handler-driven — per element it
 * executes deq + gather load + fadd + backedge (4 dispatches) where
 * serial executes the full loop (test, two bounds-checked loads,
 * accumulate, increment: ~8 dispatches). A single ring hop per element
 * keeps queue overhead below the dispatch savings even when all
 * workers share one core.
 */
ir::PipelinePtr
buildGatherPipeline()
{
    constexpr ir::QueueId kScanIn = 0;   // ranges -> scan RA
    constexpr ir::QueueId kScanOut = 1;  // col values -> consumer

    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "gather_sum-native";

    {
        ir::FunctionBuilder b("gather.range");
        ir::ArrayId pos = b.arrayParam("pos", ir::ElemType::kI32, false);
        b.arrayParam("col", ir::ElemType::kI32, false);
        b.arrayParam("x", ir::ElemType::kF64, false);
        b.arrayParam("out", ir::ElemType::kF64, true);
        ir::RegId n = b.scalarParam("n");
        b.forRange(b.constI(0), n, [&](ir::RegId i) {
            ir::RegId s = b.load(pos, i, "s");
            ir::RegId e = b.load(pos, b.add(i, b.constI(1)), "e");
            b.enq(kScanIn, s);
            b.enq(kScanIn, e);
        });
        pipeline->stages.push_back(b.finish());
    }

    {
        ir::FunctionBuilder b("gather.reduce");
        b.arrayParam("pos", ir::ElemType::kI32, false);
        b.arrayParam("col", ir::ElemType::kI32, false);
        ir::ArrayId x = b.arrayParam("x", ir::ElemType::kF64, false);
        ir::ArrayId out = b.arrayParam("out", ir::ElemType::kF64, true);
        ir::RegId n = b.scalarParam("n");
        ir::RegId sum = b.newReg("sum");
        ir::RegId j = b.newReg("j");
        ir::RegId fzero = b.constF(0.0);
        b.forRange(b.constI(0), n, [&](ir::RegId i) {
            b.movTo(sum, fzero);
            b.loop([&] {
                b.deqTo(kScanOut, j);
                ir::RegId v = b.load(x, j, "v");
                // In-place accumulate: dst == src keeps the loop at
                // four interpreted instructions per element.
                ir::Op acc;
                acc.opcode = ir::Opcode::kFAdd;
                acc.dst = sum;
                acc.src[0] = sum;
                acc.src[1] = v;
                b.emit(acc);
            });
            b.store(out, i, sum);
        });
        ir::FunctionPtr fn = b.finish();
        // Handler: the scan RA's end-of-range control value breaks the
        // accumulation loop (installed by pass 5 in compiled flows).
        ir::HandlerSpec h;
        h.queue = kScanOut;
        auto brk = std::make_unique<ir::BreakStmt>(1);
        brk->id = fn->nextStmtId++;
        h.body.push_back(std::move(brk));
        fn->handlers.push_back(std::move(h));
        pipeline->stages.push_back(std::move(fn));
    }

    ir::RAConfig scan;
    scan.mode = ir::RAMode::kScan;
    scan.arrayName = "col";
    scan.elem = ir::ElemType::kI32;
    scan.inQueue = kScanIn;
    scan.outQueue = kScanOut;
    scan.emitRangeCtrl = true;
    scan.rangeCtrlCode = ir::kCtrlNext;
    pipeline->ras.push_back(scan);
    return pipeline;
}

/** Part 2: the RA-offload configuration. Returns true if pipeline won. */
bool
benchGatherSum(int64_t rows, int64_t degree)
{
    fe::CompiledKernel kernel = fe::compileKernel(kGatherSum);
    ir::PipelinePtr pipeline = buildGatherPipeline();

    int64_t nnz = rows * degree;
    auto make_binding = [&](sim::Binding& b) {
        auto* pos = b.makeArray("pos", ir::ElemType::kI32,
                                static_cast<size_t>(rows) + 1);
        auto* col = b.makeArray("col", ir::ElemType::kI32,
                                static_cast<size_t>(nnz));
        auto* x = b.makeArray("x", ir::ElemType::kF64,
                              static_cast<size_t>(rows));
        b.makeArray("out", ir::ElemType::kF64,
                    static_cast<size_t>(rows));
        uint64_t state = 12345;
        auto next = [&state]() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            return state;
        };
        for (int64_t i = 0; i <= rows; ++i)
            pos->setInt(i, i * degree);
        for (int64_t k = 0; k < nnz; ++k)
            col->setInt(k, static_cast<int64_t>(
                               next() % static_cast<uint64_t>(rows)));
        for (int64_t i = 0; i < rows; ++i)
            x->setDouble(i, static_cast<double>(next() % 1000) / 1000.0);
        b.setScalarInt("n", rows);
    };

    rt::Runtime runtime;

    sim::Binding serial_binding;
    make_binding(serial_binding);
    rt::NativeStats ser =
        runtime.runSerial(*kernel.fn, serial_binding);

    trace::Tracer tracer{trace::Timebase::kWallNs};
    rt::RuntimeOptions ropts;
    if (!g_trace_dir.empty())
        ropts.tracer = &tracer;
    rt::Runtime traced_runtime{sim::SysConfig{}, ropts};
    sim::Binding pipe_binding;
    make_binding(pipe_binding);
    rt::NativeStats pipe =
        traced_runtime.runPipeline(*pipeline, pipe_binding);
    std::string input_name =
        std::to_string(rows) + "x" + std::to_string(degree);
    if (!g_trace_dir.empty())
        writeBenchTrace(tracer, "gather_sum", input_name);

    Row row;
    row.name = "gather_sum";
    row.input = input_name;
    if (!ser.ok || !pipe.ok) {
        row.error = !ser.ok ? ser.error : pipe.error;
        g_rows.push_back(row);
        reportFailure(row.name, row.input);
        std::printf("gather_sum: run failed: %s\n", row.error.c_str());
        return false;
    }
    if (!serial_binding.array("out")->contentEquals(
            *pipe_binding.array("out"))) {
        row.error = "output mismatch between serial and pipeline";
        g_rows.push_back(row);
        reportFailure(row.name, row.input);
        std::printf("gather_sum: MISMATCH between serial and pipeline\n");
        return false;
    }
    row.ok = true;
    g_rows.push_back(row);
    reportNativeRun(row.name, row.input, ser, pipe);

    double speedup = ser.wallMs() / pipe.wallMs();
    std::printf("%-12s %-12s serial %8.2f ms   pipeline %8.2f ms   "
                "speedup %5.2fx   (%d threads + %d RAs)\n",
                "gather_sum",
                (std::to_string(rows) + "x" + std::to_string(degree))
                    .c_str(),
                ser.wallMs(), pipe.wallMs(), speedup,
                pipe.numStageThreads, pipe.numRAWorkers);
    uint64_t interp_ser = ser.totalInstructions();
    uint64_t interp_pipe = pipe.totalInstructions();
    std::printf("  interpreted instructions: serial %llu, pipeline %llu "
                "(RAs stream natively); enq blocks %llu, deq blocks "
                "%llu (%.1f per kvalue)\n",
                static_cast<unsigned long long>(interp_ser),
                static_cast<unsigned long long>(interp_pipe),
                static_cast<unsigned long long>(pipe.totalEnqBlocks()),
                static_cast<unsigned long long>(pipe.totalDeqBlocks()),
                deqBlocksPerKValue(pipe));
    return speedup > 1.0 && pipe.numStageThreads >= 2;
}

} // namespace

int
main(int argc, char** argv)
{
    bench::initReport(&argc, argv, "bench_native");

    int64_t rows = 1 << 15;
    int64_t degree = 16;
    std::vector<const char*> pos;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--trace-dir=", 12) == 0) {
            g_trace_dir = argv[i] + 12;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "bench_native: unknown option %s\n",
                         argv[i]);
            return 2;
        } else {
            pos.push_back(argv[i]);
        }
    }
    if (!g_trace_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(g_trace_dir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "bench_native: cannot create trace dir %s: %s\n",
                         g_trace_dir.c_str(), ec.message().c_str());
            return 1;
        }
    }
    if (pos.size() > 0)
        rows = std::atoll(pos[0]);
    if (pos.size() > 1)
        degree = std::atoll(pos[1]);

    std::printf("=== native runtime: pipeline vs serial wall-clock ===\n");

    for (auto& w : wl::mainSuite()) {
        driver::Experiment ex(w);
        comp::CompileResult cr = ex.compileStatic();
        if (cr.pipeline == nullptr) {
            std::printf("%-12s no pipeline\n", w.name.c_str());
            continue;
        }
        const wl::Case* c = nullptr;
        for (const auto& cs : ex.workload().cases)
            if (cs.training) {
                c = &cs;
                break;
            }
        if (c == nullptr)
            continue;
        driver::NativeOutcome ser = ex.runNativeSerial(*c);
        trace::Tracer tracer{trace::Timebase::kWallNs};
        rt::RuntimeOptions ropts;
        if (!g_trace_dir.empty())
            ropts.tracer = &tracer;
        driver::NativeOutcome pipe = ex.runNative(*c, *cr.pipeline, ropts);
        reportRow(w.name.c_str(), c->inputName.c_str(), ser, pipe,
                  pipe.stats.numStageThreads, pipe.stats.numRAWorkers);
        if (!g_trace_dir.empty())
            writeBenchTrace(tracer, w.name, c->inputName);
    }

    std::printf("\n=== RA-offload configuration ===\n");
    bool won = benchGatherSum(rows, degree);
    std::printf(won ? "native pipeline beats native serial: yes\n"
                    : "native pipeline beats native serial: no "
                      "(host-dependent)\n");

    // Speedup is host-dependent, but correctness is not: any FAILED or
    // MISMATCH row makes the bench exit nonzero so run_benches.sh (and
    // CI) notice instead of scrolling past it.
    int failures = 0;
    for (const Row& r : g_rows)
        if (!r.ok)
            ++failures;
    if (bench::finishReport() != 0)
        return 1;
    return failures == 0 ? 0 : 1;
}
