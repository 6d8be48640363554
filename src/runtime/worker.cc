#include "runtime/worker.h"

#include <stdexcept>
#include <utility>

#include "ir/op.h"
#include "sim/eval.h"

namespace phloem::rt {

namespace {

/**
 * The one step of every blocked wait (queue op or barrier): false once
 * the run has aborted. Otherwise it parks the calling task on pt.list
 * until a notifier or an abort wakes it, and returns true so the caller
 * re-checks its condition. Deadlock detection is the scheduler's
 * all-parked monitor, whose fail() the abort check here observes once
 * the task is woken.
 */
bool
parkStep(RunControl& ctl, const ParkTarget& pt)
{
    if (ctl.aborted())
        return false;
    // Park straight away: every task is homed, so the peer that would
    // satisfy this wait usually shares the worker and cannot run until
    // we switch out; spinning would only delay it.
    Scheduler::parkCurrent(pt, ctl);
    return true;
}

/** Which side of a ring a blocked queue op waits on. */
enum class QueueWait : uint8_t {
    kEnq,   ///< producer: the ring is full
    kDeq,   ///< consumer: the ring is empty
    kPeek,  ///< consumer reading the front without popping
};

/** "enq", "deq" or "peek": park diagnostics and deadlock reports. */
const char*
queueWaitName(QueueWait kind)
{
    switch (kind) {
      case QueueWait::kEnq:
        return "enq";
      case QueueWait::kDeq:
        return "deq";
      case QueueWait::kPeek:
        break;
    }
    return "peek";
}

/**
 * The blocked path of every stage queue op, entered once its inline
 * fast path failed. If an RA drains the ring (enq) or feeds it
 * (deq/peek), pump it first and retry `attempt`: the stage does the
 * RA's work instead of waiting for it. Only when that cannot complete
 * the op does the stage count a block on the ring and park, between
 * retries, until the op succeeds or the run aborts. Behind an RA chain
 * it parks where the next useful move must come from: a consumer on
 * the chain's first input ring, woken by the next push there, and a
 * producer on the chain's last output ring, woken by the next pop
 * there. Returns true iff the op completed; a wait that parked is
 * recorded as one trace span on `tb` (null when tracing is off).
 */
template <typename Attempt>
bool
waitBlocked(RunControl& ctl, trace::TraceBuffer* tb, SpscQueue& q, int abs_q,
            QueueWait kind, Attempt&& attempt)
{
    const bool enq = kind == QueueWait::kEnq;
    RAWorker* ra = enq ? q.drainer() : q.feeder();
    auto retry = [&] {
        if (ra != nullptr) {
            if (enq)
                ra->pumpIn();
            else
                ra->pumpOut();
        }
        return attempt();
    };
    // The fast path just failed: only a pump can change that before
    // the park's own re-check.
    if (ra != nullptr && retry())
        return true;

    SpscQueue* ring = &q;
    if (ra != nullptr)
        ring = enq ? &ra->chainOut() : &ra->chainIn();
    ParkTarget pt;
    pt.list = enq ? &ring->waiters().producers : &ring->waiters().consumers;
    if (enq) {
        pt.ready = [](const ParkTarget& p) {
            const auto* r = static_cast<const SpscQueue*>(p.obj);
            return r->sizeApprox() < static_cast<size_t>(r->capacity());
        };
    } else {
        pt.ready = [](const ParkTarget& p) {
            return static_cast<const SpscQueue*>(p.obj)->sizeApprox() > 0;
        };
    }
    pt.obj = ring;
    pt.what = queueWaitName(kind);
    pt.q = abs_q;

    if (enq)
        q.noteEnqBlocked();
    else
        q.noteDeqBlocked();
    uint64_t t0 = tb != nullptr ? tb->now() : 0;
    bool ok = false;
    while (!ok && parkStep(ctl, pt))
        ok = retry();
    if (tb != nullptr)
        tb->record(enq ? trace::EventKind::kEnqBlock
                       : trace::EventKind::kDeqBlock,
                   abs_q, t0, tb->now());
    return ok;
}

} // namespace

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
        if (!parkStep(ctl, pt))
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
                       [&] { return q.tryPush(v); });
}

bool
StageWorker::popBlocked(SpscQueue& q, int abs_q, ir::Value& v)
{
    return waitBlocked(*ctl_, traceBuf, q, abs_q, QueueWait::kDeq,
                       [&] { return q.tryPop(v); });
}

bool
StageWorker::peekBlocked(SpscQueue& q, int abs_q, ir::Value& v)
{
    return waitBlocked(*ctl_, traceBuf, q, abs_q, QueueWait::kPeek,
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

SpscQueue&
RAWorker::chainIn() const
{
    const RAWorker* ra = this;
    while (ra->inQ_->feeder() != nullptr)
        ra = ra->inQ_->feeder();
    return *ra->inQ_;
}

SpscQueue&
RAWorker::chainOut() const
{
    const RAWorker* ra = this;
    while (ra->outQ_->drainer() != nullptr)
        ra = ra->outQ_->drainer();
    return *ra->outQ_;
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
    // One RAEntity::step per iteration: reserve an output slot first, so
    // whatever the step takes off the input can always be passed on.
    while (outQ_->hasFreeSlot()) {
        if (step(&pushed))
            continue;
        // The input ran dry: refill it from the RA upstream, if any.
        RAWorker* up = inQ_->feeder();
        if (up == nullptr || up->pumpOut() == 0)
            break;
    }
    traceService(t0, pushed);
    return pushed;
}

void
RAWorker::pumpIn()
{
    uint64_t t0 = traceBuf != nullptr ? traceBuf->now() : 0;
    size_t pushed = 0;
    for (;;) {
        if (!outQ_->hasFreeSlot()) {
            // The output is full: make room by draining the RA
            // downstream, if any.
            RAWorker* down = outQ_->drainer();
            if (down == nullptr)
                break;
            down->pumpIn();
            if (!outQ_->hasFreeSlot())
                break;
        }
        if (!step(&pushed))
            break;
    }
    traceService(t0, pushed);
}

} // namespace phloem::rt
