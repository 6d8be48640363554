/**
 * @file
 * The native-graph and native-handoff workloads: compiler-generated
 * pipelines and their serial baselines on the native runtime, with
 * default RuntimeOptions, on seeded training inputs.
 */

#include <cstdio>
#include <stdexcept>

#include "bench.h"
#include "compiler/compiler.h"
#include "frontend/frontend.h"
#include "inputs.h"
#include "runtime/runtime.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace phloem;

struct Compiled
{
    KernelInput ki;
    ir::FunctionPtr fn;
    ir::PipelinePtr pipeline;
};

/** Per kernel-input samples of one measuring phase. */
struct KernelSamples
{
    std::vector<double> callNs, regionNs, serialNs, opNs;
    std::vector<double> parks, unparks, steals, yields, vcs, ivcs;
    std::vector<double> enqBlocks, deqBlocks, instructions, queueOps,
        raElements;
};

struct PhaseSamples
{
    std::vector<KernelSamples> k;
    double ops = 0;
    double seconds = 0;
    // Pooled over every pipeline run of the phase.
    double popElems = 0, popBatches = 0, pushElems = 0, pushBatches = 0;
    double blocks = 0, values = 0, cpuNs = 0, wallNs = 0;
};

/**
 * Serial runs per pipeline run, so that each serial p10 rests on ~70-100
 * samples. Serial baselines cost ~5% of a native-handoff round and ~14%
 * of a native-graph round, so the repeats cost few pipeline samples.
 */
int
serialRepsOf(const std::string& workload)
{
    return workload == "native-handoff" ? 4 : 2;
}

std::vector<std::pair<std::string, std::string>>
kernelsOf(const std::string& workload)
{
    if (workload == "native-graph")
        return {{"bfs", "internet"},   {"bfs", "road"},
                {"cc", "internet"},    {"cc", "road"},
                {"radii", "internet"}, {"radii", "road"}};
    return {{"prd", "internet"}, {"spmm", "enron"}, {"spmm", "wiki"}};
}

std::vector<Compiled>
setUp(const RunArgs& args, SpanLog& log, Result& out)
{
    std::vector<KernelInput> kis;
    {
        Timed t(log, "workloads.generate");
        kis = makeKernelInputs(args.seed, args.tiny, kernelsOf(args.workload));
    }
    std::vector<Compiled> cs;
    for (auto& ki : kis) {
        Compiled c;
        comp::CompileOptions opts;
        opts.numStages = ki.maxThreads;
        {
            Timed t(log, "frontend.compileKernel");
            c.fn = fe::compileKernel(ki.source).fn;
        }
        comp::CompileResult cr;
        {
            Timed t(log, "compiler.compilePipeline");
            cr = comp::compilePipeline(*c.fn, opts);
        }
        out.count(cr.ok(), ki.kernel + "/" + ki.input + ": compile failed");
        if (!cr.ok())
            throw std::runtime_error("compile failed: " + ki.kernel);
        c.pipeline = std::move(cr.pipeline);
        c.ki = std::move(ki);
        cs.push_back(std::move(c));
    }
    return cs;
}

/**
 * One checked pipeline run and `serial_reps` checked serial runs of a
 * kernel-input; samples go to *ks / *ps unless they are null (warm-up).
 */
void
runOp(const Compiled& c, rt::Runtime& runtime, SpanLog& log, int64_t rep,
      int serial_reps, KernelSamples* ks, PhaseSamples* ps, Result& out)
{
    Timed op(log, "bench.op", rep);
    std::string err;
    sim::Binding b;
    {
        Timed t(log, "workloads.bind", rep);
        c.ki.c.bind(b, 1);
    }
    Timed call(log, "runtime.runPipeline", rep);
    rt::NativeStats st =
        runtime.runPipeline(*c.pipeline, b, rt::PreparedPrograms{});
    double call_ns = call.stop();
    bool ok = st.ok;
    {
        Timed t(log, "workloads.check", rep);
        ok = ok && c.ki.c.check(b, wl::Variant::kPipeline, &err);
    }
    out.count(ok, c.ki.kernel + "/" + c.ki.input + " pipeline: " +
                      (st.ok ? err : st.error));
    double op_ns = op.stop();

    for (int r = 0; r < serial_reps; ++r) {
        sim::Binding sb;
        {
            Timed t(log, "workloads.bind", rep);
            c.ki.c.bind(sb, 1);
        }
        Timed scall(log, "runtime.runSerial", rep);
        rt::NativeStats ss = runtime.runSerial(*c.fn, sb);
        double serial_ns = scall.stop();
        bool sok = ss.ok;
        {
            Timed t(log, "workloads.check", rep);
            sok = sok && c.ki.c.check(sb, wl::Variant::kSerial, &err);
        }
        out.count(sok, c.ki.kernel + "/" + c.ki.input + " serial: " +
                           (ss.ok ? err : ss.error));
        if (ks != nullptr)
            ks->serialNs.push_back(serial_ns);
    }
    if (ks == nullptr)
        return;

    ks->callNs.push_back(call_ns);
    ks->regionNs.push_back(st.wallNs);
    ks->opNs.push_back(op_ns);
    ks->parks.push_back(static_cast<double>(st.sched.parks));
    ks->unparks.push_back(static_cast<double>(st.sched.unparks));
    ks->steals.push_back(static_cast<double>(st.sched.steals));
    ks->yields.push_back(static_cast<double>(st.sched.yields));
    ks->vcs.push_back(static_cast<double>(st.rusage.voluntaryCtxSw));
    ks->ivcs.push_back(static_cast<double>(st.rusage.involuntaryCtxSw));
    ks->enqBlocks.push_back(static_cast<double>(st.totalEnqBlocks()));
    ks->deqBlocks.push_back(static_cast<double>(st.totalDeqBlocks()));
    ks->instructions.push_back(static_cast<double>(st.totalInstructions()));
    double qops = 0, ra = 0;
    for (const auto& w : st.workers) {
        qops += static_cast<double>(w.queueOps);
        ra += static_cast<double>(w.raElements);
    }
    ks->queueOps.push_back(qops);
    ks->raElements.push_back(ra);
    for (const auto& q : st.queues) {
        ps->popElems += static_cast<double>(q.popBatchElems);
        ps->popBatches += static_cast<double>(q.popBatches);
        ps->pushElems += static_cast<double>(q.pushBatchElems);
        ps->pushBatches += static_cast<double>(q.pushBatches);
        ps->values += static_cast<double>(q.deq);
        ps->blocks += static_cast<double>(q.enqBlocks + q.deqBlocks);
    }
    ps->cpuNs += st.rusage.userNs + st.rusage.systemNs;
    ps->wallNs += st.wallNs;
    ps->ops += 1;
}

} // namespace

void
runNative(const RunArgs& args, Result& out, Trace& trace)
{
    SpanLog& log = trace.add(args.trace);
    // Measurement hygiene: default options, so the environment-free
    // defaults of tier and scheduler are what gets measured.
    rt::Runtime runtime{sim::SysConfig{}, rt::RuntimeOptions{}};

    std::vector<double> setup_s;
    std::vector<Compiled> cs;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        int64_t t0 = nowNs();
        cs = setUp(args, log, out);
        // Untimed warm-up run; the first one creates the shared pool.
        runOp(cs.front(), runtime, log, -1, 1, nullptr, nullptr, out);
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    // Warm every kernel-input once before timing.
    for (const auto& c : cs)
        runOp(c, runtime, log, -1, 1, nullptr, nullptr, out);

    const int serial_reps = serialRepsOf(args.workload);
    std::vector<PhaseSamples> phases;
    int64_t rep = 0;
    for (const Phase& phase : measurePhases(args)) {
        SpanLog& plog = phase.traced ? log : trace.add(false);
        PhaseSamples ps;
        ps.k.resize(cs.size());
        int64_t t0 = nowNs();
        int64_t deadline = t0 + static_cast<int64_t>(phase.seconds * 1e9);
        for (int round = 0; round < 3 || nowNs() < deadline; ++round)
            for (size_t i = 0; i < cs.size(); ++i)
                runOp(cs[i], runtime, plog, rep++, serial_reps, &ps.k[i], &ps,
                      out);
        ps.seconds = static_cast<double>(nowNs() - t0) / 1e9;
        phases.push_back(std::move(ps));
    }

    auto& m = out.metrics;
    const PhaseSamples& base = phases.front();
    const PhaseSamples& tr = phases.back();
    m["setup_s"] = median(setup_s);
    auto times_of = [](const PhaseSamples& ps) {
        std::vector<KernelTimes> times;
        for (const auto& k : ps.k)
            times.push_back({k.callNs, k.serialNs, k.opNs});
        return times;
    };
    addTimingMetrics(times_of(base), base.ops, base.seconds, out);
    for (size_t i = 0; i < cs.size(); ++i) {
        const auto& k = base.k[i];
        std::fprintf(stderr,
                     "  %-6s %-9s pipeline p10 %9.3f p50 %9.3f p90 %9.3f ms  "
                     "serial p10 %8.3f p50 %8.3f ms  (n=%zu)\n",
                     cs[i].ki.kernel.c_str(), cs[i].ki.input.c_str(),
                     percentile(k.callNs, 10) / 1e6, median(k.callNs) / 1e6,
                     percentile(k.callNs, 90) / 1e6,
                     percentile(k.serialNs, 10) / 1e6,
                     median(k.serialNs) / 1e6, k.callNs.size());
    }

    // Per-layer metrics come from the traced phase.
    m["runtime.call_ms"] = sumOver(tr.k, &KernelSamples::callNs) / 1e6;
    m["runtime.region_ms"] = sumOver(tr.k, &KernelSamples::regionNs) / 1e6;
    double prep = 0;
    for (const auto& k : tr.k) {
        std::vector<double> d;
        for (size_t i = 0; i < k.callNs.size(); ++i)
            d.push_back(k.callNs[i] - k.regionNs[i]);
        prep += median(d);
    }
    m["runtime.prep_ms"] = prep / 1e6;
    m["runtime.serial_call_ms"] = sumOver(tr.k, &KernelSamples::serialNs) / 1e6;
    for (size_t i = 0; i < cs.size(); ++i)
        m["runtime.call_ms." + cs[i].ki.kernel + "." + cs[i].ki.input] =
            median(tr.k[i].callNs) / 1e6;
    m["runtime.parks"] = sumOver(tr.k, &KernelSamples::parks);
    m["runtime.unparks"] = sumOver(tr.k, &KernelSamples::unparks);
    m["runtime.steals"] = sumOver(tr.k, &KernelSamples::steals);
    m["runtime.yields"] = sumOver(tr.k, &KernelSamples::yields);
    m["runtime.ctx_switches_vol"] = sumOver(tr.k, &KernelSamples::vcs);
    m["runtime.ctx_switches_invol"] = sumOver(tr.k, &KernelSamples::ivcs);
    m["runtime.enq_blocks"] = sumOver(tr.k, &KernelSamples::enqBlocks);
    m["runtime.deq_blocks"] = sumOver(tr.k, &KernelSamples::deqBlocks);
    m["runtime.instructions"] = sumOver(tr.k, &KernelSamples::instructions);
    m["runtime.queue_ops"] = sumOver(tr.k, &KernelSamples::queueOps);
    m["runtime.ra_elements"] = sumOver(tr.k, &KernelSamples::raElements);
    if (tr.popBatches > 0)
        m["runtime.pop_batch_mean"] = tr.popElems / tr.popBatches;
    if (tr.pushBatches > 0)
        m["runtime.push_batch_mean"] = tr.pushElems / tr.pushBatches;
    if (tr.values > 0)
        m["runtime.blocks_per_kvalue"] = tr.blocks / tr.values * 1000.0;
    if (tr.wallNs > 0)
        m["runtime.cpu_per_wall"] = tr.cpuNs / tr.wallNs;
    double stages = 0, queues = 0, ras = 0;
    for (const auto& c : cs) {
        stages += static_cast<double>(c.pipeline->stages.size());
        queues += static_cast<double>(c.pipeline->queues.size());
        ras += static_cast<double>(c.pipeline->ras.size());
    }
    m["compiler.stages"] = stages;
    m["compiler.queues"] = queues;
    m["compiler.ras"] = ras;
    addSpanMetrics(trace, tr.ops, times_of(base), times_of(tr), out);
}

} // namespace perfbench
