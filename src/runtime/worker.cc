#include "runtime/worker.h"

#include <stdexcept>
#include <utility>

#include "ir/op.h"
#include "sim/eval.h"

namespace phloem::rt {

// ---------------------------------------------------------------------
// StageBarrier.
// ---------------------------------------------------------------------

bool
StageBarrier::arriveAndWait(RunControl& ctl)
{
    uint64_t gen = generation_.load(std::memory_order_acquire);
    int arrived = waiting_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (arrived == parties_) {
        waiting_.store(0, std::memory_order_relaxed);
        generation_.fetch_add(1, std::memory_order_release);
        // Notifier side of the parking handshake: the generation bump
        // above must be ordered before the waiter-list check, so a
        // peer that registered just before we bumped is either seen
        // here or sees the new generation in its parked re-check.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (!waiters_.empty())
            waiters_.wakeAll();
        return !ctl.aborted();
    }
    ParkTarget pt;
    pt.list = &waiters_;
    pt.ready = &StageBarrier::generationAdvanced;
    pt.obj = this;
    pt.arg = gen;
    pt.what = "barrier";
    while (generation_.load(std::memory_order_acquire) == gen)
        if (!parkStep(ctl, /*stoppable=*/false, pt))
            return false;
    return !ctl.aborted();
}

// ---------------------------------------------------------------------
// StageWorker.
// ---------------------------------------------------------------------

StageWorker::StageWorker(std::string name, const sim::Program* prog,
                         sim::Binding& binding, int replica,
                         int queue_offset, int queue_stride,
                         int num_replicas, std::vector<SpscQueue*> queues,
                         StageBarrier* barrier, RunControl* ctl)
    : prog_(prog), queueOffset_(queue_offset), queueStride_(queue_stride),
      numReplicas_(num_replicas), queues_(std::move(queues)),
      barrier_(barrier), ctl_(ctl)
{
    stats.name = std::move(name);
    stats.isStage = true;
    stats.opCounts.assign(static_cast<size_t>(ir::kNumOpcodes), 0);

    regs_.assign(static_cast<size_t>(prog_->numRegs), ir::Value{});
    const ir::Function& fn = *prog_->fn;
    for (const auto& p : fn.scalarParams)
        regs_[static_cast<size_t>(p.reg)] = binding.scalar(p.name, replica);
    arrayBind_.resize(fn.arrays.size());
    for (size_t a = 0; a < fn.arrays.size(); ++a)
        arrayBind_[a] = binding.array(fn.arrays[a].name, replica);
}

void
StageWorker::run()
{
    const DecodedProgram dec = decodeProgram(*prog_, queueOffset_, queues_);
    stats.fusedSites = static_cast<uint64_t>(dec.fusedSites);
    const DInst* code = dec.code.data();
    for (;;) {
        const DInst& d = code[pc_];
        if (!kDispatch[static_cast<size_t>(d.op)](*this, d))
            break;
    }
    // A budget overrun throws past this point.
    if (traceBuf) {
        uint64_t t = traceBuf->now();
        traceBuf->record(trace::EventKind::kHalt, -1, t, t);
    }
}

// ---------------------------------------------------------------------
// Queue ops: the blocked paths.
// ---------------------------------------------------------------------

bool
StageWorker::pushBlocked(SpscQueue& q, int abs_q, const ir::Value& v)
{
    return waitBlocked(*ctl_, traceBuf, q, abs_q, QueueWait::kEnq,
                       /*stoppable=*/false, [&] { return q.tryPush(v); });
}

bool
StageWorker::popBlocked(SpscQueue& q, int abs_q, ir::Value& v)
{
    return waitBlocked(*ctl_, traceBuf, q, abs_q, QueueWait::kDeq,
                       /*stoppable=*/false, [&] { return q.tryPop(v); });
}

bool
StageWorker::peekBlocked(SpscQueue& q, int abs_q, ir::Value& v)
{
    return waitBlocked(*ctl_, traceBuf, q, abs_q, QueueWait::kPeek,
                       /*stoppable=*/false, [&] { return q.tryPeek(v); });
}

// ---------------------------------------------------------------------
// Bookkeeping.
// ---------------------------------------------------------------------

bool
StageWorker::slowTick()
{
    // Heartbeat: abort and the instruction budget are polled here
    // rather than per instruction.
    heartbeat_ = 0;
    if (ctl_->aborted())
        return false;
    if (stats.instructions > ctl_->opt.maxInstructions) {
        std::string msg = "instruction budget exceeded (" +
                          std::to_string(ctl_->opt.maxInstructions) +
                          ") in " + stats.name;
        ctl_->fail(msg);
        throw std::runtime_error(msg);
    }
    // Long compute phases must not monopolize the pool worker while
    // runnable peers wait (no-op for a serial run, which is off it).
    Scheduler::maybeYield();
    return true;
}

inline bool
StageWorker::tick(uint64_t n)
{
    stats.instructions += n;
    heartbeat_ += n;
    if (heartbeat_ >= kHeartbeatInterval)
        return slowTick();
    return true;
}

// ---------------------------------------------------------------------
// Handlers.
// ---------------------------------------------------------------------

bool
StageWorker::hEnd(StageWorker&, const DInst&)
{
    // Fell off the end: halt without counting an instruction, exactly
    // like the simulator's pc bound check.
    return false;
}

bool
StageWorker::hHalt(StageWorker& w, const DInst& d)
{
    w.tick(1);
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    return false;
}

bool
StageWorker::hBr(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.branches++;
    w.pc_ = d.target;
    return true;
}

bool
StageWorker::hBrIf(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.branches++;
    bool truth =
        w.regs_[static_cast<size_t>(d.src0)].asInt() != 0;
    w.pc_ = truth ? d.target : w.pc_ + 1;
    return true;
}

bool
StageWorker::hBrIfNot(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.branches++;
    bool truth =
        w.regs_[static_cast<size_t>(d.src0)].asInt() != 0;
    w.pc_ = truth ? w.pc_ + 1 : d.target;
    return true;
}

bool
StageWorker::hScalar(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    ir::Value out = sim::evalScalarOp(*d.raw, w.regs_.data());
    if (d.dst >= 0)
        w.regs_[static_cast<size_t>(d.dst)] = out;
    w.pc_++;
    return true;
}

bool
StageWorker::hWork(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    ir::Value out = sim::evalScalarOp(*d.raw, w.regs_.data());
    if (d.imm > 1) {
        // The simulator charges kWork as `imm` uops; natively we burn
        // the same amount of real compute. Only the first mix lands in
        // the destination register so results stay bit-identical.
        uint64_t burn = out.bits;
        for (int64_t k = 1; k < d.imm; ++k)
            burn = sim::workMix(burn);
        w.workSink_ += burn;
    }
    if (d.dst >= 0)
        w.regs_[static_cast<size_t>(d.dst)] = out;
    w.pc_++;
    return true;
}

bool
StageWorker::hLoad(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    // Array bindings are looked up per execution: kSwapArr may retarget
    // them at runtime, so decoded instructions never cache the buffer.
    sim::ArrayBuffer* buf = w.arrayBind_[static_cast<size_t>(d.arr)];
    int64_t idx = w.regs_[static_cast<size_t>(d.src0)].asInt();
    ir::Value out = buf->load(idx);
    if (d.dst >= 0)
        w.regs_[static_cast<size_t>(d.dst)] = out;
    w.pc_++;
    return true;
}

bool
StageWorker::hStore(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    sim::ArrayBuffer* buf = w.arrayBind_[static_cast<size_t>(d.arr)];
    int64_t idx = w.regs_[static_cast<size_t>(d.src0)].asInt();
    buf->store(idx, w.regs_[static_cast<size_t>(d.src1)]);
    if (d.dst >= 0)
        w.regs_[static_cast<size_t>(d.dst)] = ir::Value{};
    w.pc_++;
    return true;
}

bool
StageWorker::hMemOther(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    sim::ArrayBuffer* buf = w.arrayBind_[static_cast<size_t>(d.arr)];
    ir::Value out = sim::applyMemOp(*d.raw, *buf, w.regs_.data());
    if (d.dst >= 0)
        w.regs_[static_cast<size_t>(d.dst)] = out;
    w.pc_++;
    return true;
}

bool
StageWorker::hAtomic(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    sim::ArrayBuffer* buf = w.arrayBind_[static_cast<size_t>(d.arr)];
    ir::Value out;
    {
        // applyMemOp implements RMWs as load+store; serialize them
        // across stages so concurrent updates are not lost.
        std::lock_guard<std::mutex> g(w.ctl_->atomicsMu);
        out = sim::applyMemOp(*d.raw, *buf, w.regs_.data());
    }
    if (d.dst >= 0)
        w.regs_[static_cast<size_t>(d.dst)] = out;
    w.pc_++;
    return true;
}

bool
StageWorker::hSwapArr(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    std::swap(w.arrayBind_[static_cast<size_t>(d.arr)],
              w.arrayBind_[static_cast<size_t>(d.arr2)]);
    w.pc_++;
    return true;
}

bool
StageWorker::hBarrier(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    w.pc_++;
    if (!w.traceBuf)
        return w.barrier_->arriveAndWait(*w.ctl_);
    uint64_t t0 = w.traceBuf->now();
    bool ok = w.barrier_->arriveAndWait(*w.ctl_);
    w.traceBuf->record(trace::EventKind::kBarrierWait, -1, t0,
                       w.traceBuf->now());
    return ok;
}

bool
StageWorker::hEnq(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    if (!w.push(*d.q, d.absQ, w.regs_[static_cast<size_t>(d.src0)]))
        return false;
    w.pc_++;
    return true;
}

bool
StageWorker::hEnqCtrl(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    if (!w.push(*d.q, d.absQ,
                ir::Value::makeControl(static_cast<uint32_t>(d.imm))))
        return false;
    w.pc_++;
    return true;
}

bool
StageWorker::hEnqDist(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    int64_t sel = w.regs_[static_cast<size_t>(d.src1)].asInt();
    int target = sim::distTargetReplica(sel, w.numReplicas_);
    int abs_q = d.queueBase + target * w.queueStride_;
    SpscQueue& q = *w.queues_[static_cast<size_t>(abs_q)];
    ir::Value v =
        d.src0 < 0 ? ir::Value::makeControl(static_cast<uint32_t>(d.imm))
                   : w.regs_[static_cast<size_t>(d.src0)];
    if (!w.push(q, abs_q, v))
        return false;
    w.pc_++;
    return true;
}

bool
StageWorker::hDeq(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    ir::Value v;
    if (!w.pop(*d.q, d.absQ, v))
        return false;
    w.regs_[static_cast<size_t>(d.dst)] = v;
    // Control-value handler: transfer when a control value is dequeued,
    // exactly as the simulated hardware does.
    if (v.isControl() && d.handlerPc >= 0)
        w.pc_ = d.handlerPc;
    else
        w.pc_++;
    return true;
}

bool
StageWorker::hPeek(StageWorker& w, const DInst& d)
{
    if (!w.tick(1))
        return false;
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    ir::Value v;
    if (!w.peek(*d.q, d.absQ, v))
        return false;
    w.regs_[static_cast<size_t>(d.dst)] = v;
    w.pc_++;
    return true;
}

// --- Fused superinstructions (two raw instructions per dispatch). ----

bool
StageWorker::hScalarBr(StageWorker& w, const DInst& d)
{
    if (!w.tick(2))
        return false;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    w.stats.branches++;
    ir::Value out = sim::evalScalarOp(*d.raw, w.regs_.data());
    w.regs_[static_cast<size_t>(d.dst)] = out;
    bool truth = out.asInt() != 0;
    if (d.negate)
        truth = !truth;
    w.pc_ = truth ? d.target : w.pc_ + 2;
    return true;
}

bool
StageWorker::hScalarJmp(StageWorker& w, const DInst& d)
{
    if (!w.tick(2))
        return false;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    w.stats.branches++;
    w.regs_[static_cast<size_t>(d.dst)] =
        sim::evalScalarOp(*d.raw, w.regs_.data());
    w.pc_ = d.target;
    return true;
}

bool
StageWorker::hScalarEnq(StageWorker& w, const DInst& d)
{
    if (!w.tick(2))
        return false;
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    w.stats.opCounts[static_cast<size_t>(d.opcode2)]++;
    ir::Value out = sim::evalScalarOp(*d.raw, w.regs_.data());
    w.regs_[static_cast<size_t>(d.dst)] = out;
    if (!w.push(*d.q, d.absQ, out))
        return false;
    w.pc_ += 2;
    return true;
}

bool
StageWorker::hLoadEnq(StageWorker& w, const DInst& d)
{
    if (!w.tick(2))
        return false;
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    w.stats.opCounts[static_cast<size_t>(d.opcode2)]++;
    sim::ArrayBuffer* buf = w.arrayBind_[static_cast<size_t>(d.arr)];
    int64_t idx = w.regs_[static_cast<size_t>(d.src0)].asInt();
    ir::Value out = buf->load(idx);
    w.regs_[static_cast<size_t>(d.dst)] = out;
    if (!w.push(*d.q, d.absQ, out))
        return false;
    w.pc_ += 2;
    return true;
}

// Order must match the DOp enumerators exactly.
const StageWorker::Handler StageWorker::kDispatch[kNumDOps] = {
    &StageWorker::hEnd,       // kEnd
    &StageWorker::hHalt,      // kHalt
    &StageWorker::hBr,        // kBr
    &StageWorker::hBrIf,      // kBrIf
    &StageWorker::hBrIfNot,   // kBrIfNot
    &StageWorker::hScalar,    // kScalar
    &StageWorker::hWork,      // kWork
    &StageWorker::hLoad,      // kLoad
    &StageWorker::hStore,     // kStore
    &StageWorker::hMemOther,  // kMemOther
    &StageWorker::hAtomic,    // kAtomic
    &StageWorker::hSwapArr,   // kSwapArr
    &StageWorker::hBarrier,   // kBarrier
    &StageWorker::hEnq,       // kEnq
    &StageWorker::hEnqCtrl,   // kEnqCtrl
    &StageWorker::hEnqDist,   // kEnqDist
    &StageWorker::hDeq,       // kDeq
    &StageWorker::hPeek,      // kPeek
    &StageWorker::hScalarBr,  // kScalarBr
    &StageWorker::hScalarJmp, // kScalarJmp
    &StageWorker::hScalarEnq, // kScalarEnq
    &StageWorker::hLoadEnq,   // kLoadEnq
};

// ---------------------------------------------------------------------
// RAWorker.
// ---------------------------------------------------------------------

RAWorker::RAWorker(std::string name, const ir::RAConfig& cfg,
                   sim::ArrayBuffer* array, SpscQueue* in_q,
                   SpscQueue* out_q, RunControl* ctl)
    : cfg_(cfg), array_(array), inQ_(in_q), outQ_(out_q), ctl_(ctl)
{
    // waitSlot's reservation holds only while no one else can push.
    phloem_assert(!outQ_->multiProducer(),
                  "an RA must be its output ring's only producer");
    stats.name = std::move(name);
    stats.isStage = false;
}

void
RAWorker::heartbeat(uint64_t n)
{
    heartbeatCount_ += n;
    if (heartbeatCount_ >= kHeartbeatInterval) {
        heartbeatCount_ = 0;
        // A streaming RA must not starve the runnable peers homed on
        // its worker.
        Scheduler::maybeYield();
    }
}

bool
RAWorker::waitSlot()
{
    // Stoppable: once every stage task halted, nothing reads the output
    // ring any more, so the RA just exits.
    return outQ_->hasFreeSlot() ||
           waitBlocked(*ctl_, traceBuf, *outQ_, traceOutQ, QueueWait::kEnq,
                       /*stoppable=*/true,
                       [&] { return outQ_->hasFreeSlot(); });
}

bool
RAWorker::waitPop(ir::Value& v)
{
    // An empty input after shutdown is the normal RA exit path (RAs
    // never see an end-of-stream value).
    return inQ_->tryPop(v) ||
           waitBlocked(*ctl_, traceBuf, *inQ_, traceInQ, QueueWait::kDeq,
                       /*stoppable=*/true, [&] { return inQ_->tryPop(v); });
}

void
RAWorker::emit(const ir::Value& v)
{
    bool ok = outQ_->tryPush(v);
    phloem_assert(ok, "RA output slot vanished");
}

void
RAWorker::run()
{
    runLoop();
    if (traceBuf) {
        uint64_t t = traceBuf->now();
        traceBuf->record(trace::EventKind::kHalt, -1, t, t);
    }
}

void
RAWorker::runLoop()
{
    enum class Phase : uint8_t { kIdle, kHaveStart, kScanning };
    Phase phase = Phase::kIdle;
    int64_t pending_start = 0;
    int64_t scan_cur = 0;
    int64_t scan_end = 0;

    // One RAEntity::step per iteration: reserve an output slot first, so
    // whatever the step takes off the input can always be passed on.
    while (waitSlot()) {
        if (phase == Phase::kScanning) {
            if (scan_cur < scan_end) {
                // Stream the rest of the range as one batch per ring
                // refill: elements are published with a single release
                // store, which is where the RA's native-speed advantage
                // comes from. The reserved slot makes it at least one.
                size_t want = static_cast<size_t>(scan_end - scan_cur);
                uint64_t t0 = traceBuf ? traceBuf->now() : 0;
                size_t pushed = outQ_->pushBatch(want, [&](size_t k) {
                    return array_->load(scan_cur + static_cast<int64_t>(k));
                });
                if (traceBuf)
                    traceBuf->record(trace::EventKind::kRaService,
                                     traceOutQ, t0, traceBuf->now(),
                                     pushed);
                heartbeat(pushed);
                scan_cur += static_cast<int64_t>(pushed);
                stats.raElements += pushed;
                continue;
            }
            phase = Phase::kIdle;
            if (cfg_.emitRangeCtrl) {
                emit(ir::Value::makeControl(cfg_.rangeCtrlCode));
                stats.raCtrlForwarded++;
                continue;
            }
        }

        ir::Value e;
        if (!waitPop(e))
            return;
        heartbeat(1);
        if (e.isControl()) {
            // Control values pass through RAs, delimiting streams.
            phase = Phase::kIdle;
            stats.raCtrlForwarded++;
            emit(e);
        } else if (cfg_.mode == ir::RAMode::kIndirect) {
            emit(array_->load(e.asInt()));
            stats.raElements++;
        } else if (phase == Phase::kIdle) {
            pending_start = e.asInt();
            phase = Phase::kHaveStart;
        } else {
            scan_cur = pending_start;
            scan_end = e.asInt();
            phase = Phase::kScanning;
        }
    }
}

} // namespace phloem::rt
