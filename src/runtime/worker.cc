#include "runtime/worker.h"

#include <stdexcept>
#include <utility>

#include "ir/op.h"
#include "sim/eval.h"

namespace phloem::rt {

namespace {

/** ParkTarget re-checks for a replica parked on a distribute ring. */
bool
ringHasSpace(const ParkTarget& pt)
{
    const auto* r = static_cast<const SpscQueue*>(pt.obj);
    return r->sizeApprox() < static_cast<size_t>(r->capacity());
}

bool
ringHasData(const ParkTarget& pt)
{
    return static_cast<const SpscQueue*>(pt.obj)->sizeApprox() > 0;
}

} // namespace

// ---------------------------------------------------------------------
// StageBarrier.
// ---------------------------------------------------------------------

uint64_t
StageBarrier::arrive()
{
    uint64_t gen = generation_.load(std::memory_order_acquire);
    if (waiting_.fetch_add(1, std::memory_order_acq_rel) + 1 < parties_)
        return gen;
    waiting_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    if (spansReplicas_) {
        // Notifier side of the parking handshake: the generation bump
        // above must be ordered before the waiter-list check, so a
        // replica that registered just before we bumped is either seen
        // here or sees the new generation in its park's re-check.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (!waiters_.empty())
            waiters_.wakeAll();
    }
    return gen;
}

ParkTarget
StageBarrier::parkTarget(uint64_t gen)
{
    ParkTarget pt;
    pt.list = &waiters_;
    pt.ready = &StageBarrier::generationAdvanced;
    pt.obj = this;
    pt.arg = gen;
    return pt;
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

StageStop
StageWorker::resume()
{
    if (code_ == nullptr) {
        // Decode when the stage first runs, on its replica's worker:
        // the caller's thread (in phloemd, the one whose allocator
        // arena holds its cached pipelines) allocates nothing per stage.
        dec_ = decodeProgram(*prog_, queueOffset_, queues_);
        code_ = dec_.code.data();
        stats.fusedSites = static_cast<uint64_t>(dec_.fusedSites);
    }
    stop_ = StageStop::kRunning;
    moved_ = !blocked();
    if (!moved_) {
        // Retry the op the stage blocked on: it was counted when it
        // first ran, so only its completion is left.
        const DInst& d = code_[pc_];
        const bool go = kRetry[static_cast<size_t>(d.op)](*this, d);
        if (stop_ == StageStop::kBlocked)
            return stop_;
        moved_ = true;
        endWait();
        if (!go)
            return stop_;
    }
    const DInst* code = code_;
    while (kDispatch[static_cast<size_t>(code[pc_].op)](*this, code[pc_])) {
    }
    if (stop_ == StageStop::kHalted)
        halt();
    return stop_;
}

void
StageWorker::halt()
{
    halted_ = true;
    if (traceBuf != nullptr) {
        uint64_t t = traceBuf->now();
        traceBuf->record(trace::EventKind::kHalt, -1, t, t);
    }
}

bool
StageWorker::crossReplicaWait(ParkTarget* pt) const
{
    if (waitKind_ == WaitKind::kBarrier) {
        auto* b = static_cast<StageBarrier*>(waitOn_);
        if (!b->spansReplicas())
            return false;
        *pt = b->parkTarget(waitGen_);
        return true;
    }
    auto* q = static_cast<SpscQueue*>(waitOn_);
    if (!q->multiProducer())
        return false;
    const bool enq = waitKind_ == WaitKind::kEnq;
    pt->list = enq ? &q->waiters().producers : &q->waiters().consumers;
    pt->ready = enq ? &ringHasSpace : &ringHasData;
    pt->obj = q;
    pt->arg = 0;
    return true;
}

void
StageWorker::abandon()
{
    if (halted_)
        return;
    if (blocked())
        endWait();
    halt();
}

void
StageWorker::describeWait(std::string& out) const
{
    const char* what = waitWhat_.load(std::memory_order_relaxed);
    if (what == nullptr)
        return;
    out += "\n  " + stats.name + " parked on " + what;
    int32_t q = waitQ_.load(std::memory_order_relaxed);
    if (q >= 0)
        out += " q" + std::to_string(q);
}

// ---------------------------------------------------------------------
// Blocked ops.
// ---------------------------------------------------------------------

void
StageWorker::beginWait(WaitKind kind, void* on, int abs_q)
{
    waitKind_ = kind;
    waitOn_ = on;
    if (kind == WaitKind::kEnq)
        static_cast<SpscQueue*>(on)->noteEnqBlocked();
    else if (kind != WaitKind::kBarrier)
        static_cast<SpscQueue*>(on)->noteDeqBlocked();
    waitT0_ = traceBuf != nullptr ? traceBuf->now() : 0;
    static constexpr const char* kNames[] = {"enq", "deq", "peek",
                                             "barrier"};
    waitQ_.store(abs_q, std::memory_order_relaxed);
    waitWhat_.store(kNames[static_cast<size_t>(kind)],
                    std::memory_order_relaxed);
}

void
StageWorker::endWait()
{
    if (traceBuf != nullptr) {
        trace::EventKind k = waitKind_ == WaitKind::kEnq
                                 ? trace::EventKind::kEnqBlock
                             : waitKind_ == WaitKind::kBarrier
                                 ? trace::EventKind::kBarrierWait
                                 : trace::EventKind::kDeqBlock;
        traceBuf->record(k, waitQ_.load(std::memory_order_relaxed), waitT0_,
                         traceBuf->now());
    }
    waitWhat_.store(nullptr, std::memory_order_relaxed);
}

/**
 * The blocked path of every stage queue op, entered once its inline
 * fast path failed, on the op's first run and on each retry. If an RA
 * drains the ring (enq) or feeds it (deq/peek), pump it and, if that
 * moved a value, retry `attempt`: the stage does the RA's work instead
 * of waiting for it. Returns true iff the op completed; otherwise the
 * op waits at pc_ (its first failure counts one block on the ring and
 * opens its trace span) and the replica's loop runs another stage.
 */
template <typename Attempt>
bool
StageWorker::waitBlocked(SpscQueue& q, int abs_q, WaitKind kind,
                         Attempt&& attempt)
{
    const bool enq = kind == WaitKind::kEnq;
    if (RAWorker* ra = enq ? q.drainer() : q.feeder()) {
        // The fast path just failed: only a pump can change that.
        if ((enq ? ra->pumpIn() : ra->pumpOut()) > 0) {
            moved_ = true;
            if (attempt())
                return true;
        }
    }
    if (!blocked())
        beginWait(kind, &q, abs_q);
    stop_ = StageStop::kBlocked;
    return false;
}

bool
StageWorker::pushBlocked(SpscQueue& q, int abs_q, const ir::Value& v)
{
    return waitBlocked(q, abs_q, WaitKind::kEnq,
                       [&] { return q.tryPush(v); });
}

bool
StageWorker::popBlocked(SpscQueue& q, int abs_q, ir::Value& v)
{
    return waitBlocked(q, abs_q, WaitKind::kDeq,
                       [&] { return q.tryPop(v); });
}

bool
StageWorker::peekBlocked(SpscQueue& q, int abs_q, ir::Value& v)
{
    return waitBlocked(q, abs_q, WaitKind::kPeek,
                       [&] { return q.tryPeek(v); });
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
    if (ctl_->aborted()) {
        stop_ = StageStop::kAborted;
        return false;
    }
    if (stats.instructions > ctl_->opt.maxInstructions) {
        std::string msg = "instruction budget exceeded (" +
                          std::to_string(ctl_->opt.maxInstructions) +
                          ") in " + stats.name;
        ctl_->fail(msg);
        throw std::runtime_error(msg);
    }
    // Long compute phases must not monopolize the replica (or the pool
    // worker) while peers could run.
    stop_ = StageStop::kHeartbeat;
    return false;
}

// ---------------------------------------------------------------------
// Handlers. Each counts its op when it starts and retires its
// instructions (tick) when the op is done, so a blocked op that a retry
// completes counts once.
// ---------------------------------------------------------------------

bool
StageWorker::hEnd(StageWorker& w, const DInst&)
{
    // Fell off the end: halt without counting an instruction, exactly
    // like the simulator's pc bound check.
    w.stop_ = StageStop::kHalted;
    return false;
}

bool
StageWorker::hHalt(StageWorker& w, const DInst& d)
{
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    w.tick(1);
    w.stop_ = StageStop::kHalted;
    return false;
}

bool
StageWorker::hBr(StageWorker& w, const DInst& d)
{
    w.stats.branches++;
    w.pc_ = d.target;
    return w.tick(1);
}

bool
StageWorker::hBrIf(StageWorker& w, const DInst& d)
{
    w.stats.branches++;
    bool truth =
        w.regs_[static_cast<size_t>(d.src0)].asInt() != 0;
    w.pc_ = truth ? d.target : w.pc_ + 1;
    return w.tick(1);
}

bool
StageWorker::hBrIfNot(StageWorker& w, const DInst& d)
{
    w.stats.branches++;
    bool truth =
        w.regs_[static_cast<size_t>(d.src0)].asInt() != 0;
    w.pc_ = truth ? w.pc_ + 1 : d.target;
    return w.tick(1);
}

bool
StageWorker::hScalar(StageWorker& w, const DInst& d)
{
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    ir::Value out = sim::evalScalarOp(*d.raw, w.regs_.data());
    if (d.dst >= 0)
        w.regs_[static_cast<size_t>(d.dst)] = out;
    w.pc_++;
    return w.tick(1);
}

bool
StageWorker::hWork(StageWorker& w, const DInst& d)
{
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
    return w.tick(1);
}

bool
StageWorker::hLoad(StageWorker& w, const DInst& d)
{
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    // Array bindings are looked up per execution: kSwapArr may retarget
    // them at runtime, so decoded instructions never cache the buffer.
    sim::ArrayBuffer* buf = w.arrayBind_[static_cast<size_t>(d.arr)];
    int64_t idx = w.regs_[static_cast<size_t>(d.src0)].asInt();
    ir::Value out = buf->load(idx);
    if (d.dst >= 0)
        w.regs_[static_cast<size_t>(d.dst)] = out;
    w.pc_++;
    return w.tick(1);
}

bool
StageWorker::hStore(StageWorker& w, const DInst& d)
{
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    sim::ArrayBuffer* buf = w.arrayBind_[static_cast<size_t>(d.arr)];
    int64_t idx = w.regs_[static_cast<size_t>(d.src0)].asInt();
    buf->store(idx, w.regs_[static_cast<size_t>(d.src1)]);
    if (d.dst >= 0)
        w.regs_[static_cast<size_t>(d.dst)] = ir::Value{};
    w.pc_++;
    return w.tick(1);
}

bool
StageWorker::hMemOther(StageWorker& w, const DInst& d)
{
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    sim::ArrayBuffer* buf = w.arrayBind_[static_cast<size_t>(d.arr)];
    ir::Value out = sim::applyMemOp(*d.raw, *buf, w.regs_.data());
    if (d.dst >= 0)
        w.regs_[static_cast<size_t>(d.dst)] = out;
    w.pc_++;
    return w.tick(1);
}

bool
StageWorker::hAtomic(StageWorker& w, const DInst& d)
{
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
    return w.tick(1);
}

bool
StageWorker::hSwapArr(StageWorker& w, const DInst& d)
{
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    std::swap(w.arrayBind_[static_cast<size_t>(d.arr)],
              w.arrayBind_[static_cast<size_t>(d.arr2)]);
    w.pc_++;
    return w.tick(1);
}

bool
StageWorker::hBarrier(StageWorker& w, const DInst& d)
{
    // Arrive once; a blocked barrier's retries only re-check the
    // generation. Every arrival, the last one included, is a wait span.
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    w.waitGen_ = w.barrier_->arrive();
    w.beginWait(WaitKind::kBarrier, w.barrier_, -1);
    if (!w.barrier_->passed(w.waitGen_)) {
        w.stop_ = StageStop::kBlocked;
        return false;
    }
    w.endWait();
    w.pc_++;
    return w.tick(1);
}

bool
StageWorker::rBarrier(StageWorker& w, const DInst&)
{
    if (!w.barrier_->passed(w.waitGen_)) {
        w.stop_ = StageStop::kBlocked;
        return false;
    }
    w.pc_++;
    return w.tick(1);
}

bool
StageWorker::hEnq(StageWorker& w, const DInst& d)
{
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    return rEnq(w, d);
}

bool
StageWorker::rEnq(StageWorker& w, const DInst& d)
{
    if (!w.push(*d.q, d.absQ, w.regs_[static_cast<size_t>(d.src0)]))
        return false;
    w.pc_++;
    return w.tick(1);
}

bool
StageWorker::hEnqCtrl(StageWorker& w, const DInst& d)
{
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    return rEnqCtrl(w, d);
}

bool
StageWorker::rEnqCtrl(StageWorker& w, const DInst& d)
{
    if (!w.push(*d.q, d.absQ,
                ir::Value::makeControl(static_cast<uint32_t>(d.imm))))
        return false;
    w.pc_++;
    return w.tick(1);
}

bool
StageWorker::hEnqDist(StageWorker& w, const DInst& d)
{
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    return rEnqDist(w, d);
}

bool
StageWorker::rEnqDist(StageWorker& w, const DInst& d)
{
    // The selector register is unchanged while the op waits, so a retry
    // picks the same ring.
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
    return w.tick(1);
}

bool
StageWorker::hDeq(StageWorker& w, const DInst& d)
{
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    return rDeq(w, d);
}

bool
StageWorker::rDeq(StageWorker& w, const DInst& d)
{
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
    return w.tick(1);
}

bool
StageWorker::hPeek(StageWorker& w, const DInst& d)
{
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    return rPeek(w, d);
}

bool
StageWorker::rPeek(StageWorker& w, const DInst& d)
{
    ir::Value v;
    if (!w.peek(*d.q, d.absQ, v))
        return false;
    w.regs_[static_cast<size_t>(d.dst)] = v;
    w.pc_++;
    return w.tick(1);
}

// --- Fused superinstructions (two raw instructions per dispatch). ----

bool
StageWorker::hScalarBr(StageWorker& w, const DInst& d)
{
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    w.stats.branches++;
    ir::Value out = sim::evalScalarOp(*d.raw, w.regs_.data());
    w.regs_[static_cast<size_t>(d.dst)] = out;
    bool truth = out.asInt() != 0;
    if (d.negate)
        truth = !truth;
    w.pc_ = truth ? d.target : w.pc_ + 2;
    return w.tick(2);
}

bool
StageWorker::hScalarJmp(StageWorker& w, const DInst& d)
{
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    w.stats.branches++;
    w.regs_[static_cast<size_t>(d.dst)] =
        sim::evalScalarOp(*d.raw, w.regs_.data());
    w.pc_ = d.target;
    return w.tick(2);
}

bool
StageWorker::hScalarEnq(StageWorker& w, const DInst& d)
{
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    w.stats.opCounts[static_cast<size_t>(d.opcode2)]++;
    ir::Value out = sim::evalScalarOp(*d.raw, w.regs_.data());
    w.regs_[static_cast<size_t>(d.dst)] = out;
    // The scalar half is done. A blocked enq half waits at pc+1, whose
    // standalone kEnq (of this dst, to this ring) its retries complete.
    w.retire(1);
    w.pc_++;
    if (!w.push(*d.q, d.absQ, out))
        return false;
    w.pc_++;
    return w.tick(1);
}

bool
StageWorker::hLoadEnq(StageWorker& w, const DInst& d)
{
    w.stats.queueOps++;
    w.stats.opCounts[static_cast<size_t>(d.opcode)]++;
    w.stats.opCounts[static_cast<size_t>(d.opcode2)]++;
    sim::ArrayBuffer* buf = w.arrayBind_[static_cast<size_t>(d.arr)];
    int64_t idx = w.regs_[static_cast<size_t>(d.src0)].asInt();
    ir::Value out = buf->load(idx);
    w.regs_[static_cast<size_t>(d.dst)] = out;
    // As in hScalarEnq: the load is done; a blocked enq waits at pc+1.
    w.retire(1);
    w.pc_++;
    if (!w.push(*d.q, d.absQ, out))
        return false;
    w.pc_++;
    return w.tick(1);
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

// Only these ops wait; a fused enq waits at its standalone half (kEnq).
const StageWorker::Handler StageWorker::kRetry[kNumDOps] = {
    nullptr,                  // kEnd
    nullptr,                  // kHalt
    nullptr,                  // kBr
    nullptr,                  // kBrIf
    nullptr,                  // kBrIfNot
    nullptr,                  // kScalar
    nullptr,                  // kWork
    nullptr,                  // kLoad
    nullptr,                  // kStore
    nullptr,                  // kMemOther
    nullptr,                  // kAtomic
    nullptr,                  // kSwapArr
    &StageWorker::rBarrier,   // kBarrier
    &StageWorker::rEnq,       // kEnq
    &StageWorker::rEnqCtrl,   // kEnqCtrl
    &StageWorker::rEnqDist,   // kEnqDist
    &StageWorker::rDeq,       // kDeq
    &StageWorker::rPeek,      // kPeek
    nullptr,                  // kScalarBr
    nullptr,                  // kScalarJmp
    nullptr,                  // kScalarEnq
    nullptr,                  // kLoadEnq
};

// ---------------------------------------------------------------------
// RAWorker.
// ---------------------------------------------------------------------

RAWorker::RAWorker(std::string name, const ir::RAConfig& cfg,
                   sim::ArrayBuffer* array, SpscQueue* in_q,
                   SpscQueue* out_q)
    : cfg_(cfg), array_(array), inQ_(in_q), outQ_(out_q)
{
    // A step's slot reservation holds only while no one else can push,
    // and a pump runs on its stages' home worker only while the ring it
    // pops is fed by one stage of that replica.
    phloem_assert(!outQ_->multiProducer(),
                  "an RA must be its output ring's only producer");
    phloem_assert(!inQ_->multiProducer(),
                  "an RA's input ring must have a single producer");
    inQ_->setDrainer(this);
    outQ_->setFeeder(this);
    stats.name = std::move(name);
    stats.isStage = false;
}

void
RAWorker::emit(const ir::Value& v)
{
    bool ok = outQ_->tryPush(v);
    phloem_assert(ok, "RA output slot vanished");
}

void
RAWorker::traceService(uint64_t t0, size_t n)
{
    if (traceBuf != nullptr && n > 0)
        traceBuf->record(trace::EventKind::kRaService, traceOutQ, t0,
                         traceBuf->now(), n);
}

bool
RAWorker::step(size_t* pushed)
{
    if (phase_ == Phase::kScanning) {
        if (scanCur_ < scanEnd_) {
            // Stream the rest of the range as one batch per ring refill:
            // elements are published with a single release store, which
            // is where the RA's native-speed advantage comes from. The
            // reserved slot makes it at least one.
            size_t want = static_cast<size_t>(scanEnd_ - scanCur_);
            size_t n = outQ_->pushBatch(want, [&](size_t k) {
                return array_->load(scanCur_ + static_cast<int64_t>(k));
            });
            scanCur_ += static_cast<int64_t>(n);
            stats.raElements += n;
            *pushed += n;
            return true;
        }
        phase_ = Phase::kIdle;
        if (cfg_.emitRangeCtrl) {
            emit(ir::Value::makeControl(cfg_.rangeCtrlCode));
            stats.raCtrlForwarded++;
            ++*pushed;
            return true;
        }
    }

    ir::Value e;
    if (!inQ_->tryPop(e))
        return false;
    if (e.isControl()) {
        // Control values pass through RAs, delimiting streams.
        phase_ = Phase::kIdle;
        stats.raCtrlForwarded++;
        emit(e);
        ++*pushed;
    } else if (cfg_.mode == ir::RAMode::kIndirect) {
        emit(array_->load(e.asInt()));
        stats.raElements++;
        ++*pushed;
    } else if (phase_ == Phase::kIdle) {
        pendingStart_ = e.asInt();
        phase_ = Phase::kHaveStart;
    } else {
        scanCur_ = pendingStart_;
        scanEnd_ = e.asInt();
        phase_ = Phase::kScanning;
    }
    return true;
}

size_t
RAWorker::pumpOut()
{
    uint64_t t0 = traceBuf != nullptr ? traceBuf->now() : 0;
    size_t pushed = 0;
    size_t moves = 0;
    // One RAEntity::step per iteration: reserve an output slot first, so
    // whatever the step takes off the input can always be passed on.
    while (outQ_->hasFreeSlot()) {
        if (step(&pushed)) {
            ++moves;
            continue;
        }
        // The input ran dry: refill it from the RA upstream, if any.
        RAWorker* up = inQ_->feeder();
        const size_t up_moves = up != nullptr ? up->pumpOut() : 0;
        if (up_moves == 0)
            break;
        moves += up_moves;
    }
    traceService(t0, pushed);
    return moves;
}

size_t
RAWorker::pumpIn()
{
    uint64_t t0 = traceBuf != nullptr ? traceBuf->now() : 0;
    size_t pushed = 0;
    size_t moves = 0;
    for (;;) {
        if (!outQ_->hasFreeSlot()) {
            // The output is full: make room by draining the RA
            // downstream, if any.
            RAWorker* down = outQ_->drainer();
            if (down == nullptr)
                break;
            moves += down->pumpIn();
            if (!outQ_->hasFreeSlot())
                break;
        }
        if (!step(&pushed))
            break;
        ++moves;
    }
    traceService(t0, pushed);
    return moves;
}

// ---------------------------------------------------------------------
// Replica.
// ---------------------------------------------------------------------

Replica::Replica(std::vector<StageWorker*> stages, RunControl* ctl)
    : stages_(std::move(stages)), ctl_(ctl), live_(stages_.size())
{
}

TaskStep
Replica::resume(std::vector<ParkTarget>& park)
{
    const size_t n = stages_.size();
    while (live_ > 0) {
        if (ctl_->aborted())
            return stop();
        // One round: every stage once, from where the last one left off.
        bool moved = false;
        for (size_t k = 0; k < n; ++k) {
            StageWorker& s = *stages_[next_];
            next_ = next_ + 1 == n ? 0 : next_ + 1;
            if (s.halted())
                continue;
            StageStop st = StageStop::kRunning;
            try {
                st = s.resume();
            } catch (const std::exception& e) {
                ctl_->fail(s.stats.name + ": " + e.what());
                return stop();
            }
            moved = moved || s.moved();
            switch (st) {
            case StageStop::kHalted:
                --live_;
                break;
            case StageStop::kHeartbeat:
                if (Scheduler::shouldYield())
                    return TaskStep::kYield;
                break;
            case StageStop::kAborted:
                return stop();
            case StageStop::kBlocked:
            case StageStop::kRunning:
                break;
            }
        }
        if (moved || live_ == 0)
            continue;
        // A fixed point: every live stage is blocked, and retrying each
        // changed nothing. Only another replica can end a wait now.
        park.clear();
        ParkTarget pt;
        for (StageWorker* s : stages_)
            if (!s->halted() && s->crossReplicaWait(&pt))
                park.push_back(pt);
        if (!park.empty())
            return TaskStep::kPark;
        std::string msg = "deadlock: all " + std::to_string(live_) +
                          " live stages blocked, and no stage or RA of "
                          "their replica can move";
        describeWaits(msg);
        ctl_->fail(msg);
        return stop();
    }
    return TaskStep::kDone;
}

TaskStep
Replica::stop()
{
    for (StageWorker* s : stages_)
        s->abandon();
    live_ = 0;
    return TaskStep::kDone;
}

void
Replica::describeWaits(std::string& out) const
{
    for (const StageWorker* s : stages_)
        s->describeWait(out);
}

} // namespace phloem::rt
