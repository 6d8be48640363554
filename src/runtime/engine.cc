#include "runtime/engine.h"

#include <stdexcept>

#include "base/logging.h"
#include "ir/op.h"
#include "runtime/sched.h"
#include "sim/eval.h"

namespace phloem::rt {

// ---------------------------------------------------------------------
// StageQueues: the blocked paths.
// ---------------------------------------------------------------------

StageQueues::StageQueues(const EngineEnv& env)
    : ctl_(env.ctl), trace_(env.trace)
{
    phloem_assert(env.regs != nullptr && env.ctl != nullptr &&
                      env.stats != nullptr && env.queues != nullptr,
                  "stage env incomplete");
    bufs_.resize(env.queues->size());
}

bool
StageQueues::pushBlocked(SpscQueue& q, int abs_q, const ir::Value& v)
{
    return waitBlocked(*ctl_, trace_, q, abs_q, QueueWait::kEnq,
                       /*stoppable=*/false, [&] { return q.tryPush(v); });
}

bool
StageQueues::refillBlocked(SpscQueue& q, int abs_q, ir::Value* dst,
                           size_t& n)
{
    return waitBlocked(*ctl_, trace_, q, abs_q, QueueWait::kDeq,
                       /*stoppable=*/false, [&] {
                           n = q.popBatch(kBatchCap, dst);
                           return n != 0;
                       });
}

bool
StageQueues::peekBlocked(SpscQueue& q, int abs_q, ir::Value& v)
{
    return waitBlocked(*ctl_, trace_, q, abs_q, QueueWait::kPeek,
                       /*stoppable=*/false, [&] { return q.tryPeek(v); });
}

std::vector<std::pair<int, uint64_t>>
StageQueues::unconsumed() const
{
    std::vector<std::pair<int, uint64_t>> out;
    for (size_t q = 0; q < bufs_.size(); ++q) {
        const ConsumerBuf& b = bufs_[q];
        if (b.pos < b.len)
            out.emplace_back(static_cast<int>(q),
                             static_cast<uint64_t>(b.len - b.pos));
    }
    return out;
}

// ---------------------------------------------------------------------
// Engine.
// ---------------------------------------------------------------------

Engine::Engine(const DecodedProgram& prog, const EngineEnv& env)
    : prog_(prog), env_(env), queues_(env)
{
}

// ---------------------------------------------------------------------
// Bookkeeping.
// ---------------------------------------------------------------------

bool
Engine::slowTick()
{
    // Heartbeat: abort and the instruction budget are polled here
    // rather than per instruction.
    heartbeat_ = 0;
    if (env_.ctl->aborted())
        return false;
    if (env_.stats->instructions > env_.ctl->opt.maxInstructions) {
        std::string msg = "instruction budget exceeded (" +
                          std::to_string(env_.ctl->opt.maxInstructions) +
                          ") in " + env_.stats->name;
        env_.ctl->fail(msg);
        throw std::runtime_error(msg);
    }
    // Long compute phases must not monopolize the pool worker while
    // runnable peers wait (no-op for a serial run, which is off it).
    Scheduler::maybeYield();
    return true;
}

inline bool
Engine::tick(uint64_t n)
{
    env_.stats->instructions += n;
    heartbeat_ += n;
    if (heartbeat_ >= kHeartbeatInterval)
        return slowTick();
    return true;
}

// ---------------------------------------------------------------------
// Handlers.
// ---------------------------------------------------------------------

bool
Engine::hEnd(Engine& e, const DInst&)
{
    // Fell off the end: halt without counting an instruction, exactly
    // like the simulator's pc bound check.
    (void)e;
    return false;
}

bool
Engine::hHalt(Engine& e, const DInst& d)
{
    e.tick(1);
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    return false;
}

bool
Engine::hBr(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->branches++;
    e.pc_ = d.target;
    return true;
}

bool
Engine::hBrIf(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->branches++;
    bool truth =
        e.env_.regs[static_cast<size_t>(d.src0)].asInt() != 0;
    e.pc_ = truth ? d.target : e.pc_ + 1;
    return true;
}

bool
Engine::hBrIfNot(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->branches++;
    bool truth =
        e.env_.regs[static_cast<size_t>(d.src0)].asInt() != 0;
    e.pc_ = truth ? e.pc_ + 1 : d.target;
    return true;
}

bool
Engine::hScalar(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    ir::Value out = sim::evalScalarOp(*d.raw, e.env_.regs);
    if (d.dst >= 0)
        e.env_.regs[static_cast<size_t>(d.dst)] = out;
    e.pc_++;
    return true;
}

bool
Engine::hWork(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    ir::Value out = sim::evalScalarOp(*d.raw, e.env_.regs);
    if (d.imm > 1) {
        // The simulator charges kWork as `imm` uops; natively we burn
        // the same amount of real compute. Only the first mix lands in
        // the destination register so results stay bit-identical.
        uint64_t burn = out.bits;
        for (int64_t k = 1; k < d.imm; ++k)
            burn = sim::workMix(burn);
        e.workSink_ += burn;
    }
    if (d.dst >= 0)
        e.env_.regs[static_cast<size_t>(d.dst)] = out;
    e.pc_++;
    return true;
}

bool
Engine::hLoad(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    // Array bindings are looked up per execution: kSwapArr may retarget
    // them at runtime, so decoded instructions never cache the buffer.
    sim::ArrayBuffer* buf = e.env_.arrayBind[static_cast<size_t>(d.arr)];
    int64_t idx = e.env_.regs[static_cast<size_t>(d.src0)].asInt();
    ir::Value out = buf->load(idx);
    if (d.dst >= 0)
        e.env_.regs[static_cast<size_t>(d.dst)] = out;
    e.pc_++;
    return true;
}

bool
Engine::hStore(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    sim::ArrayBuffer* buf = e.env_.arrayBind[static_cast<size_t>(d.arr)];
    int64_t idx = e.env_.regs[static_cast<size_t>(d.src0)].asInt();
    buf->store(idx, e.env_.regs[static_cast<size_t>(d.src1)]);
    if (d.dst >= 0)
        e.env_.regs[static_cast<size_t>(d.dst)] = ir::Value{};
    e.pc_++;
    return true;
}

bool
Engine::hMemOther(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    sim::ArrayBuffer* buf = e.env_.arrayBind[static_cast<size_t>(d.arr)];
    ir::Value out = sim::applyMemOp(*d.raw, *buf, e.env_.regs);
    if (d.dst >= 0)
        e.env_.regs[static_cast<size_t>(d.dst)] = out;
    e.pc_++;
    return true;
}

bool
Engine::hAtomic(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    sim::ArrayBuffer* buf = e.env_.arrayBind[static_cast<size_t>(d.arr)];
    ir::Value out;
    {
        // applyMemOp implements RMWs as load+store; serialize them
        // across stages so concurrent updates are not lost.
        std::lock_guard<std::mutex> g(e.env_.ctl->atomicsMu);
        out = sim::applyMemOp(*d.raw, *buf, e.env_.regs);
    }
    if (d.dst >= 0)
        e.env_.regs[static_cast<size_t>(d.dst)] = out;
    e.pc_++;
    return true;
}

bool
Engine::hSwapArr(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    std::swap(e.env_.arrayBind[static_cast<size_t>(d.arr)],
              e.env_.arrayBind[static_cast<size_t>(d.arr2)]);
    e.pc_++;
    return true;
}

bool
Engine::hBarrier(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    e.pc_++;
    if (!e.env_.trace)
        return e.env_.barrier->arriveAndWait(*e.env_.ctl);
    uint64_t t0 = e.env_.trace->now();
    bool ok = e.env_.barrier->arriveAndWait(*e.env_.ctl);
    e.env_.trace->record(trace::EventKind::kBarrierWait, -1, t0,
                         e.env_.trace->now());
    return ok;
}

bool
Engine::hEnq(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    if (!e.queues_.push(*d.q, d.absQ,
                        e.env_.regs[static_cast<size_t>(d.src0)]))
        return false;
    e.pc_++;
    return true;
}

bool
Engine::hEnqCtrl(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    if (!e.queues_.push(
            *d.q, d.absQ,
            ir::Value::makeControl(static_cast<uint32_t>(d.imm))))
        return false;
    e.pc_++;
    return true;
}

bool
Engine::hEnqDist(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    int64_t sel = e.env_.regs[static_cast<size_t>(d.src1)].asInt();
    int target = sim::distTargetReplica(sel, e.env_.numReplicas);
    int abs_q = d.queueBase + target * e.env_.queueStride;
    SpscQueue& q = *(*e.env_.queues)[static_cast<size_t>(abs_q)];
    ir::Value v =
        d.src0 < 0 ? ir::Value::makeControl(static_cast<uint32_t>(d.imm))
                   : e.env_.regs[static_cast<size_t>(d.src0)];
    if (!e.queues_.push(q, abs_q, v))
        return false;
    e.pc_++;
    return true;
}

bool
Engine::hDeq(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    ir::Value v;
    if (!e.queues_.pop(*d.q, d.absQ, v))
        return false;
    e.env_.regs[static_cast<size_t>(d.dst)] = v;
    // Control-value handler: transfer when a control value is dequeued,
    // exactly as the simulated hardware does.
    if (v.isControl() && d.handlerPc >= 0)
        e.pc_ = d.handlerPc;
    else
        e.pc_++;
    return true;
}

bool
Engine::hPeek(Engine& e, const DInst& d)
{
    if (!e.tick(1))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    ir::Value v;
    if (!e.queues_.peek(*d.q, d.absQ, v))
        return false;
    e.env_.regs[static_cast<size_t>(d.dst)] = v;
    e.pc_++;
    return true;
}

// --- Fused superinstructions (two raw instructions per dispatch). ----

bool
Engine::hScalarBr(Engine& e, const DInst& d)
{
    if (!e.tick(2))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    e.env_.stats->branches++;
    ir::Value out = sim::evalScalarOp(*d.raw, e.env_.regs);
    e.env_.regs[static_cast<size_t>(d.dst)] = out;
    bool truth = out.asInt() != 0;
    if (d.negate)
        truth = !truth;
    e.pc_ = truth ? d.target : e.pc_ + 2;
    return true;
}

bool
Engine::hScalarJmp(Engine& e, const DInst& d)
{
    if (!e.tick(2))
        return false;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    e.env_.stats->branches++;
    e.env_.regs[static_cast<size_t>(d.dst)] =
        sim::evalScalarOp(*d.raw, e.env_.regs);
    e.pc_ = d.target;
    return true;
}

bool
Engine::hScalarEnq(Engine& e, const DInst& d)
{
    if (!e.tick(2))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode2)]++;
    ir::Value out = sim::evalScalarOp(*d.raw, e.env_.regs);
    e.env_.regs[static_cast<size_t>(d.dst)] = out;
    if (!e.queues_.push(*d.q, d.absQ, out))
        return false;
    e.pc_ += 2;
    return true;
}

bool
Engine::hLoadEnq(Engine& e, const DInst& d)
{
    if (!e.tick(2))
        return false;
    e.env_.stats->queueOps++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode)]++;
    e.env_.stats->opCounts[static_cast<size_t>(d.opcode2)]++;
    sim::ArrayBuffer* buf = e.env_.arrayBind[static_cast<size_t>(d.arr)];
    int64_t idx = e.env_.regs[static_cast<size_t>(d.src0)].asInt();
    ir::Value out = buf->load(idx);
    e.env_.regs[static_cast<size_t>(d.dst)] = out;
    if (!e.queues_.push(*d.q, d.absQ, out))
        return false;
    e.pc_ += 2;
    return true;
}

// Order must match the DOp enumerators exactly.
const Engine::Handler Engine::kDispatch[kNumDOps] = {
    &Engine::hEnd,       // kEnd
    &Engine::hHalt,      // kHalt
    &Engine::hBr,        // kBr
    &Engine::hBrIf,      // kBrIf
    &Engine::hBrIfNot,   // kBrIfNot
    &Engine::hScalar,    // kScalar
    &Engine::hWork,      // kWork
    &Engine::hLoad,      // kLoad
    &Engine::hStore,     // kStore
    &Engine::hMemOther,  // kMemOther
    &Engine::hAtomic,    // kAtomic
    &Engine::hSwapArr,   // kSwapArr
    &Engine::hBarrier,   // kBarrier
    &Engine::hEnq,       // kEnq
    &Engine::hEnqCtrl,   // kEnqCtrl
    &Engine::hEnqDist,   // kEnqDist
    &Engine::hDeq,       // kDeq
    &Engine::hPeek,      // kPeek
    &Engine::hScalarBr,  // kScalarBr
    &Engine::hScalarJmp, // kScalarJmp
    &Engine::hScalarEnq, // kScalarEnq
    &Engine::hLoadEnq,   // kLoadEnq
};

void
Engine::run()
{
    const DInst* code = prog_.code.data();
    for (;;) {
        const DInst& d = code[pc_];
        if (!kDispatch[static_cast<size_t>(d.op)](*this, d))
            return;
    }
}

} // namespace phloem::rt
