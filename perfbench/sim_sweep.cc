/**
 * @file
 * The sim-sweep workload: the reproduction-suite path. Each sweep takes
 * every main-suite kernel on each of its two seeded training inputs
 * through the frontend and the static compile flow, then simulates the
 * serial baseline and the pipeline and checks both outputs.
 */

#include <cstdio>

#include "bench.h"
#include "compiler/compiler.h"
#include "frontend/frontend.h"
#include "inputs.h"
#include "sim/config.h"
#include "sim/machine.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace phloem;

struct KernelSamples
{
    std::vector<double> serialHostNs, pipeHostNs, opNs;
    double serialCycles = 0, pipeCycles = 0, pipeInstructions = 0,
           dram = 0;
    double stages = 0, queues = 0, ras = 0;
};

struct PhaseSamples
{
    std::vector<KernelSamples> k;
    double ops = 0;
    double seconds = 0;
    // Pooled over every simulated run (serial and pipeline) of the phase.
    double instructions = 0, hostNs = 0;
    // Pooled over the pipeline runs: Fig. 10 buckets.
    double threadCycles = 0, issue = 0, queueStall = 0, backend = 0,
           frontend = 0;
};

sim::MachineOptions
machineOptions()
{
    // Experiment::defaultMachineOptions(): the suite's instruction cap.
    sim::MachineOptions o;
    o.maxInstructions = 3'000'000'000ull;
    return o;
}

/** One kernel-input: frontend, static compile, both simulations, checks. */
void
runOp(const KernelInput& ki, const sim::SysConfig& cfg, SpanLog& log,
      int64_t rep, KernelSamples* ks, PhaseSamples* ps, Result& out)
{
    Timed op(log, "bench.op", rep);
    std::string what = ki.kernel + "/" + ki.input;
    ir::FunctionPtr fn;
    {
        Timed t(log, "frontend.compileKernel", rep);
        fn = fe::compileKernel(ki.source).fn;
    }
    comp::CompileOptions opts;
    opts.numStages = ki.maxThreads;
    comp::CompileResult cr;
    {
        Timed t(log, "compiler.compilePipeline", rep);
        cr = comp::compilePipeline(*fn, opts);
    }
    if (!cr.ok()) {
        out.count(false, what + ": compile failed");
        return;
    }
    std::string err;
    sim::Binding sb;
    {
        Timed t(log, "workloads.bind", rep);
        ki.c.bind(sb, 1);
    }
    sim::Machine serial_machine(cfg, machineOptions());
    Timed scall(log, "sim.runSerial", rep);
    sim::RunStats ss = serial_machine.runSerial(*fn, sb);
    double serial_ns = scall.stop();
    bool sok = !ss.deadlock;
    {
        Timed t(log, "workloads.check", rep);
        sok = sok && ki.c.check(sb, wl::Variant::kSerial, &err);
    }
    out.count(sok, what + " serial: " + (ss.deadlock ? ss.deadlockInfo : err));

    sim::Binding pb;
    {
        Timed t(log, "workloads.bind", rep);
        ki.c.bind(pb, 1);
    }
    sim::Machine pipe_machine(cfg, machineOptions());
    Timed pcall(log, "sim.runPipeline", rep);
    sim::RunStats st = pipe_machine.runPipeline(*cr.pipeline, pb);
    double pipe_ns = pcall.stop();
    bool pok = !st.deadlock;
    {
        Timed t(log, "workloads.check", rep);
        pok = pok && ki.c.check(pb, wl::Variant::kPipeline, &err);
    }
    out.count(pok, what + " pipeline: " + (st.deadlock ? st.deadlockInfo : err));
    double op_ns = op.stop();
    if (ks == nullptr)
        return;

    ks->serialHostNs.push_back(serial_ns);
    ks->pipeHostNs.push_back(pipe_ns);
    ks->opNs.push_back(op_ns);
    ks->serialCycles = static_cast<double>(ss.cycles);
    ks->pipeCycles = static_cast<double>(st.cycles);
    ks->pipeInstructions = static_cast<double>(st.totalInstructions());
    ks->dram = static_cast<double>(st.mem.dramAccesses);
    ks->stages = static_cast<double>(cr.pipeline->stages.size());
    ks->queues = static_cast<double>(cr.pipeline->queues.size());
    ks->ras = static_cast<double>(cr.pipeline->ras.size());
    ps->instructions += static_cast<double>(ss.totalInstructions() +
                                            st.totalInstructions());
    ps->hostNs += serial_ns + pipe_ns;
    ps->threadCycles += st.totalThreadCycles();
    ps->issue += st.totalIssueCycles();
    ps->queueStall += st.totalQueueStallCycles();
    ps->backend += st.totalBackendCycles();
    ps->frontend += st.totalFrontendCycles();
    ps->ops += 1;
}

} // namespace

void
runSimSweep(const RunArgs& args, Result& out, Trace& trace)
{
    SpanLog& log = trace.add(args.trace);
    // The reproduction suite's configuration (bench::evalConfig). Each
    // run builds a fresh Machine, so the modelled caches start empty.
    const sim::SysConfig cfg = sim::SysConfig::scaledEval(1);

    std::vector<double> setup_s;
    std::vector<KernelInput> kis;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        int64_t t0 = nowNs();
        {
            Timed t(log, "workloads.generate");
            kis = makeKernelInputs(args.seed, args.tiny, mainSuiteTraining());
        }
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    std::vector<PhaseSamples> phases;
    int64_t rep = 0;
    for (const Phase& phase : measurePhases(args)) {
        SpanLog& plog = phase.traced ? log : trace.add(false);
        PhaseSamples ps;
        ps.k.resize(kis.size());
        int64_t t0 = nowNs();
        int64_t deadline = t0 + static_cast<int64_t>(phase.seconds * 1e9);
        // Whole sweeps only: every kernel-input has the same sample count.
        for (int sweep = 0; sweep < 2 || nowNs() < deadline; ++sweep) {
            Timed s(plog, "bench.sweep", rep);
            for (size_t i = 0; i < kis.size(); ++i)
                runOp(kis[i], cfg, plog, rep++, &ps.k[i], &ps, out);
        }
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
            times.push_back({k.pipeHostNs, k.serialHostNs, k.opNs});
        return times;
    };
    addTimingMetrics(times_of(base), base.ops, base.seconds, out);
    // The simulator's host time swings up to 1.7x between runs on a
    // noisy host (10-run spread 0.26-0.36), so this workload's
    // end-to-end times are simulated times at the modelled clock,
    // deterministic for a seed. Host times stay in bench.* and sim.*.
    const double hz = cfg.freqGHz * 1e9;
    double pipe_s = 0, serial_s = 0;
    std::vector<double> speedups;
    for (const auto& k : base.k) {
        pipe_s += k.pipeCycles / hz;
        serial_s += k.serialCycles / hz;
        speedups.push_back(k.serialCycles / k.pipeCycles);
    }
    m["pipeline_p10_s"] = pipe_s;
    m["serial_p10_s"] = serial_s;
    m["op_p10_s"] = pipe_s + serial_s;
    m["speedup_gmean"] = gmean(speedups);
    std::fprintf(stderr, "sim-sweep: %zu sweeps, simulated gmean %.4f\n",
                 base.k.front().opNs.size(), gmean(speedups));
    for (size_t i = 0; i < kis.size(); ++i) {
        const auto& k = base.k[i];
        std::fprintf(stderr,
                     "  %-6s %-9s host serial p10 %8.1f ms pipeline p10 %8.1f "
                     "ms  cycles %10.0f / %10.0f = %.4fx\n",
                     kis[i].kernel.c_str(), kis[i].input.c_str(),
                     percentile(k.serialHostNs, 10) / 1e6,
                     percentile(k.pipeHostNs, 10) / 1e6, k.serialCycles,
                     k.pipeCycles, k.serialCycles / k.pipeCycles);
    }

    double host = 0, cycles = 0, instructions = 0, dram = 0;
    double stages = 0, queues = 0, ras = 0;
    for (size_t i = 0; i < kis.size(); ++i) {
        const auto& k = tr.k[i];
        double ms = (median(k.serialHostNs) + median(k.pipeHostNs)) / 1e6;
        host += ms;
        m["sim.host_ms." + kis[i].kernel + "." + kis[i].input] = ms;
        cycles += k.pipeCycles;
        instructions += k.pipeInstructions;
        dram += k.dram;
        stages += k.stages;
        queues += k.queues;
        ras += k.ras;
    }
    m["sim.host_ms"] = host;
    m["sim.cycles"] = cycles;
    m["sim.instructions"] = instructions;
    m["sim.dram_accesses"] = dram;
    m["sim.minst_per_s"] = tr.instructions / 1e6 / (tr.hostNs / 1e9);
    m["sim.issue_frac"] = tr.issue / tr.threadCycles;
    m["sim.queue_stall_frac"] = tr.queueStall / tr.threadCycles;
    m["sim.backend_frac"] = tr.backend / tr.threadCycles;
    m["sim.frontend_frac"] = tr.frontend / tr.threadCycles;
    m["compiler.stages"] = stages;
    m["compiler.queues"] = queues;
    m["compiler.ras"] = ras;
    addSpanMetrics(trace, tr.ops, times_of(base), times_of(tr), out);
}

} // namespace perfbench
