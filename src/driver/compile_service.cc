#include "driver/compile_service.h"

#include <chrono>
#include <set>
#include <stdexcept>

#include "base/hash.h"
#include "metrics/collect.h"
#include "runtime/runtime.h"
#include "sim/energy.h"
#include "sim/machine.h"

namespace phloem::driver {

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedNs(Clock::time_point t0, Clock::time_point t1)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

} // namespace

CompiledPipelinePtr
compileSource(const CompileSpec& spec, std::string* err)
{
    auto cp = std::make_shared<CompiledPipeline>();
    auto t0 = Clock::now();
    try {
        cp->kernel = fe::compileKernel(spec.source, spec.kernelName);
    } catch (const std::exception& e) {
        if (err != nullptr)
            *err = e.what();
        return nullptr;
    }

    // Apply the kernel's pragma annotations on top of the caller's
    // options, exactly as phloemc always has.
    comp::CompileOptions opts = spec.opts;
    for (int cut : cp->kernel.ann.decoupleOps)
        opts.forcedCuts.push_back(cut);
    if (cp->kernel.ann.replicas > 1)
        opts.replicas = cp->kernel.ann.replicas;
    if (!cp->kernel.ann.distributeOps.empty()) {
        opts.distributeBoundaryOp = cp->kernel.ann.distributeOps.front();
        opts.forcedCuts.push_back(cp->kernel.ann.distributeOps.front());
    }
    cp->effectiveOpts = opts;

    try {
        cp->compiled = comp::compilePipeline(*cp->kernel.fn, opts);
        // Pre-flatten each stage once (replicas share the program); a
        // pipeline that failed verification is never executed, so its
        // flattening is skipped rather than risked.
        if (cp->compiled.ok()) {
            cp->programs.reserve(cp->compiled.pipeline->stages.size());
            for (const auto& stage : cp->compiled.pipeline->stages)
                cp->programs.push_back(sim::flatten(*stage));
        }
    } catch (const std::exception& e) {
        cp->error = e.what();
    }
    if (cp->error.empty() && cp->compiled.pipeline == nullptr)
        cp->error = "compiler produced no pipeline";
    cp->compileNs = elapsedNs(t0, Clock::now());
    return cp;
}

void
synthesizeBinding(const ir::Function& fn, int64_t size,
                  sim::Binding& binding)
{
    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next_rand = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };

    // Size the whole binding before allocating any of it.
    const auto count = static_cast<uint64_t>(size) + 1;
    uint64_t bytes = 0;
    std::set<std::string> counted;
    for (const auto& a : fn.arrays) {
        if (binding.hasArray(a.name) || !counted.insert(a.name).second)
            continue;
        const auto elem = static_cast<uint64_t>(ir::elemSize(a.elem));
        if (count > (kMaxBindingBytes - bytes) / elem)
            throw std::runtime_error(
                "synthesized inputs for " + std::to_string(fn.arrays.size()) +
                " arrays at size " + std::to_string(size) +
                " exceed the binding budget of " +
                std::to_string(kMaxBindingBytes) +
                " bytes (driver::kMaxBindingBytes)");
        bytes += count * elem;
    }

    for (const auto& a : fn.arrays) {
        if (binding.hasArray(a.name))
            continue;  // double-buffer slots may repeat a name
        auto* buf = binding.makeArray(a.name, a.elem,
                                      static_cast<size_t>(size) + 1);
        if (a.writable)
            continue;
        for (int64_t i = 0; i <= size; ++i) {
            if (a.elem == ir::ElemType::kF64)
                buf->setDouble(i, static_cast<double>(next_rand() % 1000) /
                                      1000.0);
            else
                buf->setInt(i, static_cast<int64_t>(
                                   next_rand() %
                                   static_cast<uint64_t>(size)));
        }
    }
    for (const auto& p : fn.scalarParams) {
        if (p.isFloat)
            binding.setScalar(p.name, ir::Value::fromDouble(0.5));
        else
            binding.setScalarInt(p.name, size);
    }
}

namespace {

/** Does any stage distribute its stream over the replicas (kEnqDist)? */
bool
distributes(const std::vector<sim::Program>& programs)
{
    for (const auto& prog : programs)
        for (const auto& inst : prog.code)
            if (inst.kind == sim::Inst::Kind::kOp &&
                inst.opcode == ir::Opcode::kEnqDist)
                return true;
    return false;
}

} // namespace

ExecOutcome
runCompiled(const CompiledPipeline& cp, const RunSpec& spec,
            sim::Binding& binding)
{
    ExecOutcome out;
    const std::string& name = cp.kernel.fn->name;
    const int replicas = cp.compiled.pipeline->replicas;
    if (replicas > 1 && !distributes(cp.programs)) {
        // One synthesized binding has one copy of every array, so the
        // replicas would each redo the whole kernel over it and race on
        // its outputs.
        out.error = name + ": #pragma replicate " + std::to_string(replicas) +
                    " without distribution would run " +
                    std::to_string(replicas) +
                    " whole copies of the kernel over one set of arrays; "
                    "add a #pragma distribute boundary, or drop replicate";
        out.native.ok = false;
        out.native.error = out.error;
        return out;
    }
    auto t0 = Clock::now();
    if (spec.backend == Backend::kNative) {
        rt::RuntimeOptions ropts;
        ropts.maxInstructions = spec.maxInstructions;
        ropts.tracer = spec.tracer;
        ropts.requestId = spec.requestId;
        rt::Runtime runtime{spec.cfg, ropts};
        rt::PreparedPrograms prep;
        prep.programs = &cp.programs;
        out.native = runtime.runPipeline(*cp.compiled.pipeline, binding,
                                         prep);
        out.runNs = elapsedNs(t0, Clock::now());
        out.metricsRun = metrics::nativeRunToMetrics(name, out.native);
        out.ok = out.native.ok;
        if (!out.ok)
            out.error = out.native.error;
    } else {
        sim::MachineOptions mopts;
        mopts.tracer = spec.tracer;
        sim::Machine machine{spec.cfg, mopts};
        out.sim = machine.runPipeline(*cp.compiled.pipeline, binding);
        out.runNs = elapsedNs(t0, Clock::now());
        sim::EnergyBreakdown energy = sim::computeEnergy(
            out.sim, sim::EnergyConfig{}, spec.cfg.numCores);
        out.metricsRun = metrics::simRunToMetrics(name, out.sim, &energy);
        out.ok = !out.sim.deadlock;
        if (!out.ok)
            out.error = out.sim.deadlockInfo;
    }
    return out;
}

uint64_t
hashBinding(const sim::Binding& binding)
{
    uint64_t h = kFnv1aOffset;
    for (const auto& [name, buf] : binding.globalArrays()) {
        h = fnv1a(name.data(), name.size(), h);
        auto elem = static_cast<unsigned char>(buf->elem());
        h = fnv1a(&elem, 1, h);
        h = fnv1a(buf->rawBytes(), buf->bytes(), h);
    }
    return h;
}

} // namespace phloem::driver
