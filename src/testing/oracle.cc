#include "testing/oracle.h"

#include <cmath>
#include <exception>

#include "base/rng.h"
#include "compiler/compiler.h"
#include "frontend/frontend.h"
#include "ir/printer.h"
#include "runtime/runtime.h"
#include "sim/machine.h"

namespace phloem::fuzz {

const char*
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::kPass:
        return "pass";
      case Verdict::kCompileReject:
        return "compile-reject";
      case Verdict::kMismatch:
        return "MISMATCH";
      case Verdict::kDeadlock:
        return "DEADLOCK";
      case Verdict::kCrash:
        return "CRASH";
    }
    return "?";
}

namespace {

ir::ElemType
elemTypeFor(const std::string& ctype)
{
    if (ctype == "int")
        return ir::ElemType::kI32;
    if (ctype == "long")
        return ir::ElemType::kI64;
    return ir::ElemType::kF64;
}

/**
 * Render one element for a mismatch diagnostic: integers as integers,
 * doubles with enough digits to show ULP-level differences.
 */
std::string
elemStr(const sim::ArrayBuffer& a, int64_t i)
{
    if (a.elem() == ir::ElemType::kF64) {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%.17g", a.atDouble(i));
        return buf;
    }
    return std::to_string(a.atInt(i));
}

/**
 * Compare every globally bound array of `ref` against `got`; on a
 * difference, fill `detail` with the first diverging element and
 * return false.
 */
bool
compareImages(const sim::Binding& ref, const sim::Binding& got,
              const char* who, std::string* detail)
{
    const auto& got_globals = got.globalArrays();
    for (const auto& [name, ref_arr] : ref.globalArrays()) {
        auto it = got_globals.find(name);
        if (it == got_globals.end())
            continue;
        // Resolve through the global map: array(name) would hand back a
        // replica-0 override (e.g. a stream slice) instead.
        const sim::ArrayBuffer* got_arr = it->second;
        if (ref_arr->contentEquals(*got_arr))
            continue;
        for (int64_t i = 0; i < static_cast<int64_t>(ref_arr->size());
             ++i) {
            if (ref_arr->load(i).bits == got_arr->load(i).bits)
                continue;
            *detail = std::string("array '") + name + "' differs: " +
                      who + "[" + std::to_string(i) + "] = " +
                      elemStr(*got_arr, i) + ", serial reference = " +
                      elemStr(*ref_arr, i);
            return false;
        }
        *detail = std::string("array '") + name +
                  "' differs from serial reference (" + who + ")";
        return false;
    }
    return true;
}

} // namespace

void
synthesizeBinding(const FuzzCase& fc, sim::Binding& binding, int replicas)
{
    // A salt keeps the data stream independent of the one that shaped
    // the program, while staying a pure function of the case seed.
    Rng rng(fc.seed ^ 0x5eedda7af00dull);
    const int64_t n = fc.knobs.inputSize;
    binding.setScalarInt("n", n);

    // Row pointers first: they fix the edge count m for edge-sized
    // arrays, and kEdge induction variables stay inside [0, m).
    int64_t m = 0;
    const GenArray* row = nullptr;
    for (const auto& a : fc.program.arrays)
        if (a.role == ArrayRole::kRowPtr)
            row = &a;
    if (row != nullptr) {
        auto* buf = binding.makeArray(row->name, elemTypeFor(row->ctype),
                                      static_cast<size_t>(n) + 1);
        buf->setInt(0, 0);
        for (int64_t i = 0; i < n; ++i) {
            m += static_cast<int64_t>(rng.nextBounded(5));
            buf->setInt(i + 1, m);
        }
    }
    const size_t edge_count = static_cast<size_t>(m > 0 ? m : 1);
    const size_t node_count = static_cast<size_t>(n) + 1;

    for (const auto& a : fc.program.arrays) {
        if (a.role == ArrayRole::kRowPtr)
            continue;
        size_t count = roleEdgeSized(a.role) ? edge_count : node_count;
        auto* buf =
            binding.makeArray(a.name, elemTypeFor(a.ctype), count);
        switch (a.role) {
          case ArrayRole::kEdgeIndex:
          case ArrayRole::kNodeIndex:
            // Values are themselves kNode indices: keep them in [0, n).
            for (size_t i = 0; i < count; ++i)
                buf->setInt(static_cast<int64_t>(i),
                            static_cast<int64_t>(
                                rng.nextBounded(static_cast<uint64_t>(
                                    n > 0 ? n : 1))));
            break;
          case ArrayRole::kEdgeData:
          case ArrayRole::kNodeData:
            for (size_t i = 0; i < count; ++i)
                buf->setInt(static_cast<int64_t>(i),
                            static_cast<int64_t>(rng.nextBounded(201)) -
                                100);
            break;
          case ArrayRole::kNodeFData:
            for (size_t i = 0; i < count; ++i)
                buf->setDouble(static_cast<int64_t>(i),
                               rng.nextDouble() * 2.0 - 1.0);
            break;
          case ArrayRole::kOutInt:
          case ArrayRole::kOutFloat:
            // Zero-initialized by ArrayBuffer; keep them that way so
            // min/or/add atomics have a common, boring identity-ish
            // starting point.
            break;
          case ArrayRole::kRowPtr:
            break;
        }
    }

    // Replicated runs: partition the distributed input stream. Each
    // replica's producer loop walks its own slice (per-replica n), and
    // enq_dist routes every element to its owner replica, so the union
    // of slices covers the stream exactly once.
    if (replicas > 1 && fc.program.replicated) {
        const GenArray* stream = nullptr;
        for (const auto& a : fc.program.arrays)
            if (a.role == ArrayRole::kNodeIndex)
                stream = &a;
        if (stream != nullptr) {
            const sim::ArrayBuffer* full = binding.array(stream->name);
            int64_t off = 0;
            for (int r = 0; r < replicas; ++r) {
                int64_t len = n / replicas + (r < n % replicas ? 1 : 0);
                auto* slice = binding.makeArray(
                    stream->name + "@" + std::to_string(r),
                    elemTypeFor(stream->ctype),
                    static_cast<size_t>(len) + 1);
                for (int64_t j = 0; j < len; ++j)
                    slice->setInt(j, full->atInt(off + j));
                binding.bindReplica(r, stream->name, slice);
                binding.setScalarReplica(r, "n",
                                         ir::Value::fromInt(len));
                off += len;
            }
        }
    }
}

std::string
pipelineDump(const FuzzCase& fc)
{
    std::string out;
    fe::CompiledKernel kernel;
    try {
        kernel = fe::compileKernel(fc.source());
    } catch (const std::exception& e) {
        return std::string("frontend: ") + e.what() + "\n";
    }
    comp::CompileOptions co;
    co.numStages = fc.knobs.numStages;
    co.referenceAccelerators = fc.knobs.referenceAccelerators;
    co.controlValues = fc.knobs.controlValues;
    co.dce = fc.knobs.dce;
    co.handlers = fc.knobs.handlers;
    co.prefetchMovedLoads = fc.knobs.prefetchMovedLoads;
    if (fc.program.replicated && fc.knobs.replicas > 1 &&
        !kernel.ann.distributeOps.empty()) {
        co.replicas = fc.knobs.replicas;
        co.distributeBoundaryOp = kernel.ann.distributeOps.front();
        co.forcedCuts.push_back(co.distributeBoundaryOp);
    }
    comp::CompileResult cr;
    try {
        cr = comp::compilePipeline(*kernel.fn, co);
    } catch (const std::exception& e) {
        return std::string("compiler: ") + e.what() + "\n";
    }
    for (const auto& note : cr.notes)
        out += "note: " + note + "\n";
    if (!cr.ok()) {
        for (const auto& p : cr.problems)
            out += "problem: " + p + "\n";
        return out;
    }
    out += ir::toString(*cr.pipeline);
    return out;
}

OracleResult
runCase(const FuzzCase& fc, const OracleOptions& opts)
{
    OracleResult res;

    // --- Frontend -----------------------------------------------------
    fe::CompiledKernel kernel;
    try {
        kernel = fe::compileKernel(fc.source());
    } catch (const std::exception& e) {
        // The generator only emits supported mini-C, so a frontend
        // rejection of generated source is itself a finding.
        res.verdict = Verdict::kCrash;
        res.detail = std::string("frontend: ") + e.what();
        return res;
    }

    // --- Compile ------------------------------------------------------
    comp::CompileOptions co;
    co.numStages = fc.knobs.numStages;
    co.referenceAccelerators = fc.knobs.referenceAccelerators;
    co.controlValues = fc.knobs.controlValues;
    co.dce = fc.knobs.dce;
    co.handlers = fc.knobs.handlers;
    co.prefetchMovedLoads = fc.knobs.prefetchMovedLoads;
    bool want_replication =
        fc.program.replicated && fc.knobs.replicas > 1;
    if (want_replication) {
        if (kernel.ann.distributeOps.empty()) {
            res.verdict = Verdict::kCrash;
            res.detail = "frontend dropped the #pragma distribute marker";
            return res;
        }
        co.replicas = fc.knobs.replicas;
        co.distributeBoundaryOp = kernel.ann.distributeOps.front();
        co.forcedCuts.push_back(co.distributeBoundaryOp);
    }

    auto compile = [&](comp::CompileResult& out) -> bool {
        try {
            out = comp::compilePipeline(*kernel.fn, co);
        } catch (const std::exception& e) {
            res.verdict = Verdict::kCrash;
            res.detail = std::string("compiler: ") + e.what();
            return false;
        }
        return true;
    };

    comp::CompileResult cr;
    if (!compile(cr))
        return res;
    res.notes = cr.notes;
    if (!cr.ok()) {
        res.verdict = Verdict::kCompileReject;
        res.detail = cr.problems.empty() ? "no pipeline produced"
                                         : cr.problems.front();
        return res;
    }

    if (want_replication) {
        // When the distribute pass could not engage (the boundary ended
        // up without a control-value stream), every replica would rerun
        // the *full* iteration stream — a different program, not a
        // backend bug. Fall back to the unreplicated pipeline.
        bool undistributed = false;
        for (const auto& note : cr.notes)
            if (note.find("without distribution") != std::string::npos)
                undistributed = true;
        if (undistributed) {
            co.replicas = 1;
            co.distributeBoundaryOp = -1;
            co.forcedCuts.clear();
            if (!compile(cr))
                return res;
            res.notes.insert(res.notes.end(), cr.notes.begin(),
                             cr.notes.end());
            if (!cr.ok()) {
                res.verdict = Verdict::kCompileReject;
                res.detail = cr.problems.empty()
                                 ? "no pipeline produced"
                                 : cr.problems.front();
                return res;
            }
        } else {
            res.replicationEngaged = true;
        }
    }
    res.stages = static_cast<int>(cr.pipeline->stages.size());

    // --- Identical inputs for each executor ---------------------------
    // The pipeline runs see the same global image as the serial
    // reference, plus per-replica stream slices when replicated.
    int replicas = std::max(1, cr.pipeline->replicas);
    sim::Binding ref_binding, sim_binding, native_binding;
    synthesizeBinding(fc, ref_binding);
    synthesizeBinding(fc, sim_binding, replicas);
    synthesizeBinding(fc, native_binding, replicas);

    // --- 1. Serial reference (functional interpretation) --------------
    try {
        sim::MachineOptions mo;
        mo.timing = false;
        mo.maxInstructions = opts.maxInstructions;
        sim::Machine machine(sim::SysConfig{}, mo);
        sim::RunStats st = machine.runSerial(*kernel.fn, ref_binding);
        if (st.deadlock) {
            res.verdict = Verdict::kDeadlock;
            res.detail = "serial reference: " + st.deadlockInfo;
            return res;
        }
    } catch (const std::exception& e) {
        res.verdict = Verdict::kCrash;
        res.detail = std::string("serial reference: ") + e.what();
        return res;
    }

    // Size the simulated system to the pipeline's thread demand.
    int threads = res.stages * replicas;
    sim::SysConfig cfg;
    cfg.queueDepth = fc.knobs.queueDepth;
    cfg.numCores =
        (threads + cfg.threadsPerCore - 1) / cfg.threadsPerCore;

    // --- 2. Cycle simulator -------------------------------------------
    try {
        sim::MachineOptions mo;
        mo.timing = fc.knobs.simTiming;
        mo.maxInstructions = opts.maxInstructions;
        sim::Machine machine(cfg, mo);
        sim::RunStats st = machine.runPipeline(*cr.pipeline, sim_binding);
        if (st.deadlock) {
            res.verdict = Verdict::kDeadlock;
            res.detail = "simulator: " + st.deadlockInfo;
            return res;
        }
    } catch (const std::exception& e) {
        res.verdict = Verdict::kCrash;
        res.detail = std::string("simulator: ") + e.what();
        return res;
    }

    // --- 3. Native runtime --------------------------------------------
    try {
        rt::RuntimeOptions ro;
        ro.maxInstructions = opts.maxInstructions;
        rt::Runtime runtime(cfg, ro);
        rt::NativeStats st =
            runtime.runPipeline(*cr.pipeline, native_binding);
        if (!st.ok) {
            res.verdict =
                st.error.find("deadlock") != std::string::npos
                    ? Verdict::kDeadlock
                    : Verdict::kCrash;
            res.detail = "native: " + st.error;
            // Residual occupancy is the post-mortem for mispaired
            // streams: it names the queue whose producer out-ran its
            // consumer.
            for (const rt::QueueStats& qs : st.queues)
                if (qs.residual > 0)
                    res.detail += "; q" + std::to_string(qs.id) +
                                  " held " + std::to_string(qs.residual) +
                                  " undrained value(s)";
            return res;
        }
    } catch (const std::exception& e) {
        res.verdict = Verdict::kCrash;
        res.detail = std::string("native: ") + e.what();
        return res;
    }

    if (opts.injectDivergence) {
        sim::ArrayBuffer* out = nullptr;
        for (const auto& [name, arr] : native_binding.globalArrays())
            if (fc.program.findArray(name) != nullptr &&
                roleWritable(fc.program.findArray(name)->role)) {
                out = arr;
                break;
            }
        if (out != nullptr)
            out->setInt(0, out->atInt(0) ^ 1);
    }

    // --- Verdict ------------------------------------------------------
    std::string detail;
    if (!compareImages(ref_binding, sim_binding, "simulator", &detail)) {
        res.verdict = Verdict::kMismatch;
        res.detail = detail;
        return res;
    }
    if (!compareImages(ref_binding, native_binding, "native", &detail)) {
        res.verdict = Verdict::kMismatch;
        res.detail = detail;
        return res;
    }
    return res;
}

} // namespace phloem::fuzz
