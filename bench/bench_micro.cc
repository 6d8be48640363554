/**
 * @file
 * Google-benchmark microbenchmarks of the library itself (not a paper
 * figure): frontend compilation, pipeline compilation, flattening,
 * simulator throughput, and the native runtime's ring round trip, RA
 * round trip and ring stream.
 * Useful for keeping the tools fast enough for the autotuner's many
 * candidate compiles (paper: the search "completes in seconds").
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <string>

#include "bench/bench_common.h"
#include "compiler/compiler.h"
#include "compiler/cost_model.h"
#include "driver/experiment.h"
#include "frontend/frontend.h"
#include "ir/builder.h"
#include "runtime/runtime.h"
#include "runtime/sched.h"
#include "sim/machine.h"
#include "sim/program.h"
#include "workloads/kernels.h"
#include "workloads/workload.h"

using namespace phloem;

static void
BM_FrontendCompile(benchmark::State& state)
{
    for (auto _ : state) {
        auto k = fe::compileKernel(wl::kBfsSerial);
        benchmark::DoNotOptimize(k.fn.get());
    }
}
BENCHMARK(BM_FrontendCompile);

static void
BM_CostModelRanking(benchmark::State& state)
{
    auto k = fe::compileKernel(wl::kBfsSerial);
    for (auto _ : state) {
        auto ranked = comp::rankCutPoints(*k.fn);
        benchmark::DoNotOptimize(ranked.data());
    }
}
BENCHMARK(BM_CostModelRanking);

static void
BM_PipelineCompile(benchmark::State& state)
{
    auto k = fe::compileKernel(wl::kBfsSerial);
    comp::CompileOptions opts;
    opts.numStages = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto res = comp::compilePipeline(*k.fn, opts);
        benchmark::DoNotOptimize(res.pipeline.get());
    }
}
BENCHMARK(BM_PipelineCompile)->Arg(2)->Arg(3)->Arg(4);

static void
BM_Flatten(benchmark::State& state)
{
    auto k = fe::compileKernel(wl::kSpmmSerial);
    for (auto _ : state) {
        auto prog = sim::flatten(*k.fn);
        benchmark::DoNotOptimize(prog.code.data());
    }
}
BENCHMARK(BM_Flatten);

static void
BM_SimulatorThroughput(benchmark::State& state)
{
    // Simulated instructions per second on serial BFS over the training
    // internet graph.
    wl::Workload bfs = wl::findWorkload("bfs");
    const wl::Case& c = bfs.cases.front();
    driver::Experiment exp(bfs, sim::SysConfig::scaledEval());
    uint64_t instructions = 0;
    for (auto _ : state) {
        auto out = exp.runSerial(c);
        instructions = out.stats.totalInstructions();
        benchmark::DoNotOptimize(out.stats.cycles);
    }
    state.counters["sim_instrs"] = static_cast<double>(instructions);
    state.counters["sim_instrs/s"] = benchmark::Counter(
        static_cast<double>(instructions) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput);

/**
 * Run `pipeline` once per iteration on a private one-worker pool, over
 * an n-element writable "out" array and scalar n, plus whatever `bind`
 * adds. The iteration time is the runtime's parallel region
 * (NativeStats::wallNs), not pipeline setup; ns_per_<unit>,
 * parks_per_<unit> and switches_per_<unit> divide by n per iteration.
 * A switch is a queue block (enq plus deq blocks): the blocked stage
 * hands its replica's loop to the next stage.
 */
static void
runOnOneWorker(benchmark::State& state, const ir::Pipeline& pipeline,
               int64_t n, const std::string& unit,
               const std::function<void(sim::Binding&)>& bind = {})
{
    rt::Scheduler::Options sopt;
    sopt.workers = 1;
    rt::Scheduler pool(sopt);
    rt::RuntimeOptions opt;
    opt.schedulerOverride = &pool;
    rt::Runtime runtime(sim::SysConfig{}, opt);

    double wall_ns = 0;
    uint64_t parks = 0;
    uint64_t switches = 0;
    for (auto _ : state) {
        sim::Binding b;
        b.makeArray("out", ir::ElemType::kI64, static_cast<size_t>(n));
        b.setScalarInt("n", n);
        if (bind)
            bind(b);
        rt::NativeStats stats = runtime.runPipeline(pipeline, b);
        if (!stats.ok) {
            state.SkipWithError(stats.error.c_str());
            return;
        }
        benchmark::DoNotOptimize(b.array("out")->atInt(n - 1));
        state.SetIterationTime(stats.wallNs * 1e-9);
        wall_ns += stats.wallNs;
        parks += stats.sched.parks;
        switches += stats.totalEnqBlocks() + stats.totalDeqBlocks();
    }
    const double units =
        static_cast<double>(n) * static_cast<double>(state.iterations());
    state.counters["ns_per_" + unit] = wall_ns / units;
    state.counters["parks_per_" + unit] = static_cast<double>(parks) / units;
    state.counters["switches_per_" + unit] =
        static_cast<double>(switches) / units;
}

/**
 * Native queue handoff cost: a two-stage ping-pong through depth-1
 * queues' rings on a private one-worker pool. "ping" enqueues i on q0
 * and waits for "pong" to echo it back on q1, so each value is one
 * round trip of two same-replica handoffs, each a stage switch.
 */
static void
BM_RingRoundTrip(benchmark::State& state)
{
    const int64_t n = state.range(0);
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "pingpong";
    {
        ir::FunctionBuilder b("pong");
        ir::ArrayId out = b.arrayParam("out", ir::ElemType::kI64, true);
        ir::RegId count = b.scalarParam("n");
        ir::RegId v = b.newReg("v");
        b.forRange(b.constI(0), count, [&](ir::RegId i) {
            b.deqTo(0, v);
            b.store(out, i, v);
            b.enq(1, v);
        });
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("ping");
        ir::RegId count = b.scalarParam("n");
        ir::RegId echo = b.newReg("echo");
        b.forRange(b.constI(0), count, [&](ir::RegId i) {
            b.enq(0, i);
            b.deqTo(1, echo);
        });
        pipeline->stages.push_back(b.finish());
    }
    for (int q : {0, 1}) {
        ir::QueueConfig qc;
        qc.id = q;
        qc.depth = 1;
        pipeline->queues.push_back(qc);
    }
    runOnOneWorker(state, *pipeline, n, "round_trip");
}
BENCHMARK(BM_RingRoundTrip)->Arg(20000)->UseManualTime();

/**
 * Round trip through an indirect RA, the shape of spmm's stage cycle
 * (s0 -> q -> RA -> q -> s1 -> q -> s0): "ping" enqueues i on q0, the
 * RA turns it into table[i] on q1, and "pong" stores that and echoes it
 * back on q2, all through depth-1 queues' rings on a private one-worker
 * pool. Each value crosses every ring once per round trip, and each
 * round trip switches stages as often as the runtime needs handoffs
 * for it.
 */
static void
BM_RaRoundTrip(benchmark::State& state)
{
    const int64_t n = state.range(0);
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "ra-pingpong";
    {
        ir::FunctionBuilder b("ping");
        ir::RegId count = b.scalarParam("n");
        ir::RegId echo = b.newReg("echo");
        b.forRange(b.constI(0), count, [&](ir::RegId i) {
            b.enq(0, i);
            b.deqTo(2, echo);
        });
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("pong");
        ir::ArrayId out = b.arrayParam("out", ir::ElemType::kI64, true);
        ir::RegId count = b.scalarParam("n");
        ir::RegId v = b.newReg("v");
        b.forRange(b.constI(0), count, [&](ir::RegId i) {
            b.deqTo(1, v);
            b.store(out, i, v);
            b.enq(2, v);
        });
        pipeline->stages.push_back(b.finish());
    }
    ir::RAConfig ra;
    ra.mode = ir::RAMode::kIndirect;
    ra.arrayName = "table";
    ra.inQueue = 0;
    ra.outQueue = 1;
    pipeline->ras.push_back(ra);
    for (int q : {0, 1, 2}) {
        ir::QueueConfig qc;
        qc.id = q;
        qc.depth = 1;
        pipeline->queues.push_back(qc);
    }
    runOnOneWorker(state, *pipeline, n, "round_trip", [n](sim::Binding& b) {
        auto* table =
            b.makeArray("table", ir::ElemType::kI64, static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i)
            table->setInt(i, 2 * i + 1);
    });
}
BENCHMARK(BM_RaRoundTrip)->Arg(20000)->UseManualTime();

/**
 * Native streaming cost: "produce" enqueues 0..n-1 into one
 * default-depth queue's ring and "consume" stores each value it
 * dequeues, on a private one-worker pool. The producer runs until the
 * ring is full, then the consumer until it is empty, so the two switch
 * at most about once each per ring-full: switches_per_value <= ~2 /
 * ring capacity. A ring deeper than a heartbeat's worth of values
 * switches less still: every 4096 instructions a stage hands over to
 * the next one, which takes the ring over without a block.
 */
static void
BM_RingStream(benchmark::State& state)
{
    const int64_t n = state.range(0);
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "stream";
    {
        ir::FunctionBuilder b("produce");
        ir::RegId count = b.scalarParam("n");
        b.forRange(b.constI(0), count, [&](ir::RegId i) { b.enq(0, i); });
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("consume");
        ir::ArrayId out = b.arrayParam("out", ir::ElemType::kI64, true);
        ir::RegId count = b.scalarParam("n");
        ir::RegId v = b.newReg("v");
        b.forRange(b.constI(0), count, [&](ir::RegId i) {
            b.deqTo(0, v);
            b.store(out, i, v);
        });
        pipeline->stages.push_back(b.finish());
    }
    runOnOneWorker(state, *pipeline, n, "value");
}
BENCHMARK(BM_RingStream)->Arg(200000)->UseManualTime();

namespace {

/**
 * The display google-benchmark's own flags choose (--benchmark_format,
 * --benchmark_color, ...), plus each benchmark's timing and user
 * counters in the shared metrics report (one run per benchmark, real/cpu
 * ns and every counter as gauges) so run_benches.sh can diff tool
 * performance like any other report.
 */
class ReportingReporter : public benchmark::BenchmarkReporter
{
  public:
    ReportingReporter()
        : display_(benchmark::CreateDefaultDisplayReporter())
    {
    }

    bool
    ReportContext(const Context& context) override
    {
        return display_->ReportContext(context);
    }

    void
    ReportRuns(const std::vector<Run>& reports) override
    {
        display_->ReportRuns(reports);
        for (const auto& run : reports) {
            if (run.error_occurred)
                continue;
            auto* r = bench::reportRun(run.benchmark_name(), {});
            if (r == nullptr)
                continue;
            r->top.setGauge("real_ns", run.GetAdjustedRealTime());
            r->top.setGauge("cpu_ns", run.GetAdjustedCPUTime());
            r->top.addCounter(
                "iterations", static_cast<uint64_t>(run.iterations));
            for (const auto& [name, counter] : run.counters)
                r->top.setGauge(name, counter.value);
        }
    }

    void Finalize() override { display_->Finalize(); }

  private:
    /** Owned by google-benchmark: a process-lifetime object. */
    BenchmarkReporter* display_;
};

} // namespace

int
main(int argc, char** argv)
{
    // Strip --report before google-benchmark sees argv (it rejects
    // unknown flags).
    bench::initReport(&argc, argv, "bench_micro");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    ReportingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    return bench::finishReport();
}
