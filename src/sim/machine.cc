#include "sim/machine.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.h"
#include "ir/walk.h"
#include "sim/eval.h"

namespace phloem::sim {

using detail::CoreState;
using detail::QueueEntry;
using detail::QueueImpl;

namespace detail {

/** Instruction latency of a non-memory op, in cycles. */
static int
aluLatency(ir::Opcode op)
{
    switch (op) {
      case ir::Opcode::kMul: return 3;
      case ir::Opcode::kDiv:
      case ir::Opcode::kRem: return 20;
      case ir::Opcode::kFAdd:
      case ir::Opcode::kFSub:
      case ir::Opcode::kFMin:
      case ir::Opcode::kFMax: return 4;
      case ir::Opcode::kFMul: return 4;
      case ir::Opcode::kFDiv: return 15;
      case ir::Opcode::kI2F:
      case ir::Opcode::kF2I: return 4;
      default: return 1;
    }
}

class Entity
{
  public:
    enum class State : uint8_t { kReady, kBlocked, kHalted };
    enum class BlockReason : uint8_t {
        kNone,
        kQueueEmpty,
        kQueueFull,
        kBarrier,
    };

    Entity(Machine& m, std::string name, int core)
        : machine(m), name(std::move(name)), core(core)
    {
    }
    virtual ~Entity() = default;

    /** Run until blocked, halted, or the quantum expires. */
    virtual void step() = 0;
    virtual bool isThread() const = 0;
    virtual std::string describe() const = 0;

    Machine& machine;
    std::string name;
    int id = -1;
    int core = 0;
    uint64_t clock = 0;
    State state = State::kReady;
    BlockReason blockReason = BlockReason::kNone;
    int blockedQueue = -1;
    uint64_t barrierArrival = 0;

    // --- Stall tracing (simulated-cycle timebase). ------------------
    /** This entity's trace ring, or null when tracing is off. */
    trace::TraceBuffer* traceBuf = nullptr;
    /** An un-closed queue-block span (opened at block, closed when the
     * retried op succeeds — or flushed at end of run for entities that
     * stay blocked forever, e.g. a deadlocked stage or a drained RA). */
    bool traceOpen = false;
    trace::EventKind traceOpenKind = trace::EventKind::kDeqBlock;
    int32_t traceOpenQueue = -1;
    uint64_t traceOpenBegin = 0;

    /** Open a queue-block span at the current simulated clock. */
    void
    traceBlock(BlockReason reason, int abs_q)
    {
        if (traceBuf == nullptr || traceOpen)
            return;
        traceOpen = true;
        traceOpenKind = reason == BlockReason::kQueueEmpty
                            ? trace::EventKind::kDeqBlock
                            : trace::EventKind::kEnqBlock;
        traceOpenQueue = abs_q;
        traceOpenBegin = clock;
    }

    /** Close the open block span (no-op when none is open). */
    void
    traceUnblock(uint64_t end)
    {
        if (!traceOpen)
            return;
        traceOpen = false;
        traceBuf->record(traceOpenKind, traceOpenQueue, traceOpenBegin,
                         end < traceOpenBegin ? traceOpenBegin : end);
    }

    void
    traceHalt()
    {
        if (traceBuf != nullptr)
            traceBuf->record(trace::EventKind::kHalt, -1, clock, clock);
    }
};

/**
 * A pipeline-stage (or serial / data-parallel) hardware thread.
 */
class ThreadEntity : public Entity
{
  public:
    ThreadEntity(Machine& m, std::string name, int core,
                 const Program* program, Binding& binding, int replica,
                 int queue_offset, int queue_stride, int num_replicas)
        : Entity(m, std::move(name), core), prog(program),
          replica(replica), queueOffset(queue_offset),
          queueStride(queue_stride), numReplicas(num_replicas)
    {
        const SysConfig& cfg = m.config();
        timing = m.options().timing;
        quantum = m.options().quantum;
        issueWidth = cfg.issueWidth;
        mispredictPenalty = cfg.mispredictPenalty;
        interCoreLat = cfg.interCoreQueueLatency;
        intraLat = cfg.queueLatency;
        atomicExtra = cfg.atomicExtraLatency;

        regs.assign(static_cast<size_t>(prog->numRegs), ir::Value{});
        regReady.assign(static_cast<size_t>(prog->numRegs), 0);

        const ir::Function& fn = *prog->fn;
        for (const auto& p : fn.scalarParams)
            regs[static_cast<size_t>(p.reg)] = binding.scalar(p.name, replica);
        arrayBind.resize(fn.arrays.size());
        for (size_t a = 0; a < fn.arrays.size(); ++a)
            arrayBind[a] = binding.array(fn.arrays[a].name, replica);

        predictor.assign(kPredictorSize, 1);  // weakly not-taken
        stats.name = this->name;
        stats.core = core;
    }

    /** Set after placement, when threads-per-core counts are known. */
    void
    setRobSize(int size)
    {
        robSize = std::max(8, size);
        rob.assign(static_cast<size_t>(robSize), 0);
    }

    bool isThread() const override { return true; }

    std::string
    describe() const override
    {
        std::ostringstream oss;
        oss << name << " pc=" << pc << " clock=" << clock;
        switch (blockReason) {
          case BlockReason::kQueueEmpty:
            oss << " blocked deq q" << blockedQueue;
            break;
          case BlockReason::kQueueFull:
            oss << " blocked enq q" << blockedQueue;
            break;
          case BlockReason::kBarrier:
            oss << " at barrier";
            break;
          default:
            break;
        }
        return oss.str();
    }

    void step() override;

    const Program* prog;
    int replica;
    int queueOffset;
    int queueStride;
    int numReplicas;

    bool timing = true;
    int quantum = 4096;
    int issueWidth = 6;
    int mispredictPenalty = 14;
    int interCoreLat = 8;
    int intraLat = 1;
    int atomicExtra = 5;

    int pc = 0;
    std::vector<ir::Value> regs;
    std::vector<uint64_t> regReady;
    std::vector<ArrayBuffer*> arrayBind;

    // Reorder buffer ring: slot (i % robSize) holds the in-order
    // retirement time of dynamic instruction i.
    std::vector<uint64_t> rob;
    uint64_t robIdx = 0;
    int robSize = 224;
    uint64_t lastRetire = 0;
    int uopsThisCycle = 0;

    /**
     * Issue work already charged to issueCycles whose clock advance is
     * still pending (the in-progress partial cycle). A stall that jumps
     * the clock and resets uopsThisCycle swallows that advance, so the
     * stall must charge gap − pendingIssueFrac() or the books
     * over-attribute: issue + stall would exceed elapsed cycles and
     * backendCycles() would clamp a negative residual.
     */
    double
    pendingIssueFrac() const
    {
        return static_cast<double>(uopsThisCycle) / issueWidth;
    }

    static constexpr size_t kPredictorSize = 4096;
    std::vector<uint8_t> predictor;
    uint32_t history = 0;

    ThreadStats stats;

  private:
    int
    absQueue(int q) const
    {
        return queueOffset + q;
    }

    uint64_t
    ready(ir::RegId r) const
    {
        return r >= 0 ? regReady[static_cast<size_t>(r)] : 0;
    }

    /** In-order dispatch point: waits for ROB space. */
    uint64_t
    dispatchPoint()
    {
        uint64_t oldest = rob[robIdx % static_cast<uint64_t>(robSize)];
        if (oldest > clock) {
            clock = oldest;
            uopsThisCycle = 0;
        }
        return clock;
    }

    void
    complete(uint64_t c)
    {
        if (c < lastRetire)
            c = lastRetire;
        else
            lastRetire = c;
        rob[robIdx % static_cast<uint64_t>(robSize)] = c;
        robIdx++;
    }

    void
    chargeUops(int n)
    {
        stats.uops += static_cast<uint64_t>(n);
        stats.issueCycles += static_cast<double>(n) / issueWidth;
        uopsThisCycle += n;
        while (uopsThisCycle >= issueWidth) {
            clock++;
            uopsThisCycle -= issueWidth;
        }
    }

    bool predict(int16_t branch_id);
    void train(int16_t branch_id, bool taken);

    /** Execute one regular op; returns false if the thread blocked. */
    bool execOp(const Inst& inst);
    bool execQueueOp(const Inst& inst);
    void execMemOp(const Inst& inst);
    void block(BlockReason reason, int abs_q);
};

/**
 * A reference accelerator: an autonomous FSM that dequeues indices (or
 * scan ranges) and streams loaded elements into its output queue,
 * overlapping up to raMaxInflight memory requests (paper Sec. III).
 */
class RAEntity : public Entity
{
  public:
    RAEntity(Machine& m, std::string name, int core, const ir::RAConfig& cfg,
             ArrayBuffer* array, int in_q, int out_q, int ra_index)
        : Entity(m, std::move(name), core), raCfg(cfg), array(array),
          inQ(in_q), outQ(out_q), raIndex(ra_index)
    {
        timing = m.options().timing;
        quantum = m.options().quantum;
        inflight.assign(
            static_cast<size_t>(m.config().raMaxInflight), 0);
    }

    bool isThread() const override { return false; }

    std::string
    describe() const override
    {
        std::ostringstream oss;
        oss << name << " clock=" << clock
            << (phase == Phase::kScanning ? " scanning" : "");
        switch (blockReason) {
          case BlockReason::kQueueEmpty:
            oss << " blocked deq q" << blockedQueue;
            break;
          case BlockReason::kQueueFull:
            oss << " blocked enq q" << blockedQueue;
            break;
          default:
            break;
        }
        return oss.str();
    }

    void step() override;

    ir::RAConfig raCfg;
    ArrayBuffer* array;
    int inQ;
    int outQ;
    int raIndex;
    bool timing = true;
    int quantum = 4096;

    enum class Phase : uint8_t { kIdle, kHaveStart, kScanning };
    Phase phase = Phase::kIdle;
    int64_t pendingStart = 0;
    int64_t scanCur = 0;
    int64_t scanEnd = 0;

    std::vector<uint64_t> inflight;
    size_t inflightIdx = 0;
    uint64_t prevDeliver = 0;

    RAStats stats;

  private:
    /** Access array[idx]; returns {value, deliver time}. */
    QueueEntry loadElement(int64_t idx);
    bool pushOut(QueueEntry e);
    void block(BlockReason reason, int q);
};

// ---------------------------------------------------------------------
// ThreadEntity implementation.
// ---------------------------------------------------------------------

bool
ThreadEntity::predict(int16_t branch_id)
{
    size_t idx = (static_cast<size_t>(branch_id) * 31u ^ history) &
                 (kPredictorSize - 1);
    return predictor[idx] >= 2;
}

void
ThreadEntity::train(int16_t branch_id, bool taken)
{
    size_t idx = (static_cast<size_t>(branch_id) * 31u ^ history) &
                 (kPredictorSize - 1);
    uint8_t& c = predictor[idx];
    if (taken && c < 3)
        c++;
    else if (!taken && c > 0)
        c--;
    history = (history << 1) | (taken ? 1u : 0u);
}

void
ThreadEntity::block(BlockReason reason, int abs_q)
{
    state = State::kBlocked;
    blockReason = reason;
    blockedQueue = abs_q;
    traceBlock(reason, abs_q);
    QueueImpl& q = machine.queue(abs_q);
    if (reason == BlockReason::kQueueEmpty)
        q.waitingConsumer = id;
    else
        q.waitingProducers.push_back(id);
}

void
ThreadEntity::execMemOp(const Inst& inst)
{
    ArrayBuffer* buf = arrayBind[static_cast<size_t>(inst.arr)];
    int64_t idx = regs[static_cast<size_t>(inst.src0)].asInt();

    // Functional part (shared with the native runtime).
    ir::Value result = applyMemOp(inst, *buf, regs.data());
    if (ir::isMemRead(inst.opcode) || inst.opcode == ir::Opcode::kPrefetch)
        stats.loads++;
    if (ir::isMemWrite(inst.opcode))
        stats.stores++;

    if (inst.dst >= 0)
        regs[static_cast<size_t>(inst.dst)] = result;

    if (!timing) {
        clock++;
        return;
    }

    uint64_t d = dispatchPoint();
    uint64_t issue = std::max(d, ready(inst.src0));
    if (inst.src1 >= 0)
        issue = std::max(issue, ready(inst.src1));
    issue = machine.core(core).issueAt(issue);

    // Misses wait for a fill buffer *before* entering the memory system
    // so DRAM queueing is not double-counted into the MSHR busy time.
    uint64_t start = issue;
    bool is_miss = !machine.memory().probeL1(core, buf->addrOf(idx));
    if (is_miss)
        start = machine.core(core).mshrAcquire(issue);
    AccessResult res =
        machine.memory().access(core, buf->addrOf(idx), start);
    uint64_t done = res.done;
    if (res.l1Miss)
        machine.core(core).mshrRelease(done);
    bool is_rmw = inst.opcode == ir::Opcode::kAtomicMin ||
                  inst.opcode == ir::Opcode::kAtomicAdd ||
                  inst.opcode == ir::Opcode::kAtomicFAdd ||
                  inst.opcode == ir::Opcode::kAtomicOr;
    if (is_rmw)
        done += static_cast<uint64_t>(atomicExtra);

    if (inst.dst >= 0)
        regReady[static_cast<size_t>(inst.dst)] = done;

    // Stores and prefetches retire without waiting for the fill.
    bool waits = inst.dst >= 0;
    complete(waits ? done : issue + 1);
    chargeUops(1);
}

bool
ThreadEntity::execQueueOp(const Inst& inst)
{
    switch (inst.opcode) {
      case ir::Opcode::kEnq:
      case ir::Opcode::kEnqCtrl:
      case ir::Opcode::kEnqDist: {
        int abs_q;
        if (inst.opcode == ir::Opcode::kEnqDist) {
            int64_t sel = regs[static_cast<size_t>(inst.src1)].asInt();
            int target = distTargetReplica(sel, numReplicas);
            abs_q = inst.queue + target * queueStride;
        } else {
            abs_q = absQueue(inst.queue);
        }
        QueueImpl& q = machine.queue(abs_q);
        if (q.full()) {
            // The op re-executes (and is re-counted) after the block, so
            // un-charge it: dynamic instruction counts must match the
            // native runtime, which blocks *inside* the op.
            stats.instructions--;
            block(BlockReason::kQueueFull, abs_q);
            return false;
        }

        QueueEntry e;
        if (inst.opcode == ir::Opcode::kEnqCtrl ||
            (inst.opcode == ir::Opcode::kEnqDist && inst.src0 < 0)) {
            // enq_dist with no source register broadcasts a control value
            // (used when distributing streams across replicas).
            e.v = ir::Value::makeControl(static_cast<uint32_t>(inst.imm));
        } else {
            e.v = regs[static_cast<size_t>(inst.src0)];
        }

        if (timing) {
            uint64_t d = dispatchPoint();
            // Architectural capacity: slot of entry (k - depth) frees when
            // its deq completed.
            if (q.enqCount >= static_cast<uint64_t>(q.depth)) {
                uint64_t free_at =
                    q.deqTimeRing[(q.enqCount -
                                   static_cast<uint64_t>(q.depth)) %
                                  static_cast<uint64_t>(q.depth)];
                if (free_at > clock) {
                    stats.queueStallCycles += std::max(
                        0.0, static_cast<double>(free_at - clock) -
                                 pendingIssueFrac());
                    clock = free_at;
                    uopsThisCycle = 0;
                    d = clock;
                }
            }
            uint64_t issue = d;
            if (inst.opcode != ir::Opcode::kEnqCtrl && inst.src0 >= 0)
                issue = std::max(issue, ready(inst.src0));
            if (inst.opcode == ir::Opcode::kEnqDist)
                issue = std::max(issue, ready(inst.src1));
            issue = machine.core(core).issueAt(issue);
            int lat = (core == q.consumerCore) ? intraLat : interCoreLat;
            e.ready = issue + static_cast<uint64_t>(lat);
            complete(issue + 1);
            chargeUops(1);
        } else {
            clock++;
        }

        q.entries.push_back(e);
        q.enqCount++;
        stats.queueOps++;
        traceUnblock(clock);
        machine.traceSampleOcc(abs_q, clock);
        machine.wakeConsumer(abs_q);
        pc++;
        return true;
      }

      case ir::Opcode::kDeq:
      case ir::Opcode::kPeek: {
        int abs_q = absQueue(inst.queue);
        QueueImpl& q = machine.queue(abs_q);
        if (q.empty()) {
            stats.instructions--;  // re-counted on retry, see enq above
            block(BlockReason::kQueueEmpty, abs_q);
            return false;
        }
        QueueEntry e = q.entries.front();

        uint64_t done = 0;
        if (timing) {
            uint64_t d = dispatchPoint();
            if (e.ready > d) {
                stats.queueStallCycles += std::max(
                    0.0, static_cast<double>(e.ready - d) -
                             pendingIssueFrac());
                clock = e.ready;
                uopsThisCycle = 0;
            }
            uint64_t issue = machine.core(core).issueAt(clock);
            done = issue + 1;
            complete(done);
            chargeUops(1);
        } else {
            clock++;
        }

        regs[static_cast<size_t>(inst.dst)] = e.v;
        if (timing)
            regReady[static_cast<size_t>(inst.dst)] = done;
        stats.queueOps++;

        traceUnblock(clock);
        if (inst.opcode == ir::Opcode::kDeq) {
            q.entries.pop_front();
            if (timing) {
                if (q.deqTimeRing.empty())
                    q.deqTimeRing.assign(
                        static_cast<size_t>(q.depth), 0);
                q.deqTimeRing[q.deqCount %
                              static_cast<uint64_t>(q.depth)] = done;
            }
            q.deqCount++;
            machine.traceSampleOcc(abs_q, clock);
            machine.wakeProducers(abs_q);

            // Control-value handler: hardware transfers to the handler
            // when a control value is about to be dequeued.
            if (e.v.isControl() && inst.handlerPc >= 0) {
                pc = inst.handlerPc;
                return true;
            }
        }
        pc++;
        return true;
      }

      default:
        phloem_panic("not a queue op");
    }
}

bool
ThreadEntity::execOp(const Inst& inst)
{
    using ir::Opcode;

    if (ir::usesQueue(inst.opcode))
        return execQueueOp(inst);
    if (ir::usesArray(inst.opcode) && inst.opcode != Opcode::kSwapArr) {
        execMemOp(inst);
        pc++;
        return true;
    }

    switch (inst.opcode) {
      case Opcode::kBarrier: {
        pc++;
        barrierArrival = clock;
        state = State::kBlocked;
        blockReason = BlockReason::kBarrier;
        machine.arriveBarrier(id);
        return false;
      }
      case Opcode::kHalt:
        state = State::kHalted;
        traceHalt();
        return false;
      case Opcode::kSwapArr: {
        std::swap(arrayBind[static_cast<size_t>(inst.arr)],
                  arrayBind[static_cast<size_t>(inst.arr2)]);
        if (timing) {
            uint64_t d = dispatchPoint();
            complete(machine.core(core).issueAt(d) + 1);
            chargeUops(1);
        } else {
            clock++;
        }
        pc++;
        return true;
      }
      default:
        break;
    }

    // Scalar op: functional evaluation (shared with the native runtime).
    ir::Value out = evalScalarOp(inst, regs.data());

    if (inst.dst >= 0)
        regs[static_cast<size_t>(inst.dst)] = out;

    if (timing) {
        uint64_t d = dispatchPoint();
        uint64_t issue = d;
        for (int i = 0; i < ir::numSrcs(inst.opcode); ++i) {
            ir::RegId r =
                i == 0 ? inst.src0 : (i == 1 ? inst.src1 : inst.src2);
            if (r >= 0)
                issue = std::max(issue, ready(r));
        }
        issue = machine.core(core).issueAt(issue);
        int uops = 1;
        uint64_t lat;
        if (inst.opcode == Opcode::kWork) {
            uops = static_cast<int>(std::max<int64_t>(1, inst.imm));
            lat = static_cast<uint64_t>(uops);
        } else {
            lat = static_cast<uint64_t>(aluLatency(inst.opcode));
        }
        uint64_t done = issue + lat;
        if (inst.dst >= 0)
            regReady[static_cast<size_t>(inst.dst)] = done;
        complete(done);
        chargeUops(uops);
    } else {
        clock++;
    }
    pc++;
    return true;
}

void
ThreadEntity::step()
{
    const auto& code = prog->code;
    uint64_t horizon = clock + machine.options().horizonCycles;
    for (int n = 0; n < quantum; ++n) {
        if (state != State::kReady)
            return;
        if (clock > horizon)
            return;  // yield: keep entity clocks close together
        if (pc >= static_cast<int>(code.size())) {
            state = State::kHalted;
            traceHalt();
            return;
        }
        machine.chargeInstruction();
        stats.instructions++;
        const Inst& inst = code[static_cast<size_t>(pc)];

        switch (inst.kind) {
          case Inst::Kind::kBr:
            stats.branches++;
            pc = inst.target;
            if (timing) {
                uint64_t d = dispatchPoint();
                complete(machine.core(core).issueAt(d) + 1);
                chargeUops(1);
            } else {
                clock++;
            }
            break;

          case Inst::Kind::kBrIf:
          case Inst::Kind::kBrIfNot: {
            bool truth =
                regs[static_cast<size_t>(inst.src0)].asInt() != 0;
            bool taken =
                inst.kind == Inst::Kind::kBrIf ? truth : !truth;
            stats.branches++;
            if (timing) {
                uint64_t d = dispatchPoint();
                uint64_t issue =
                    std::max(d, ready(inst.src0));
                issue = machine.core(core).issueAt(issue);
                uint64_t resolve = issue + 1;
                bool pred = predict(inst.branchId);
                if (pred != taken) {
                    stats.mispredicts++;
                    uint64_t resume =
                        resolve +
                        static_cast<uint64_t>(mispredictPenalty);
                    if (resume > clock) {
                        stats.frontendCycles +=
                            static_cast<double>(mispredictPenalty);
                        clock = resume;
                        uopsThisCycle = 0;
                    }
                }
                train(inst.branchId, taken);
                complete(resolve);
                chargeUops(1);
            } else {
                clock++;
            }
            pc = taken ? inst.target : pc + 1;
            break;
          }

          case Inst::Kind::kOp:
            if (!execOp(inst))
                return;
            break;
        }
    }
}

// ---------------------------------------------------------------------
// RAEntity implementation.
// ---------------------------------------------------------------------

void
RAEntity::block(BlockReason reason, int q)
{
    state = State::kBlocked;
    blockReason = reason;
    blockedQueue = q;
    traceBlock(reason, q);
    QueueImpl& queue = machine.queue(q);
    if (reason == BlockReason::kQueueEmpty)
        queue.waitingConsumer = id;
    else
        queue.waitingProducers.push_back(id);
}

QueueEntry
RAEntity::loadElement(int64_t idx)
{
    QueueEntry out;
    out.v = array->load(idx);
    stats.memAccesses++;
    if (!timing) {
        out.ready = 0;
        return out;
    }
    uint64_t issue = clock;
    uint64_t& slot = inflight[inflightIdx % inflight.size()];
    if (slot > issue)
        issue = slot;
    AccessResult res =
        machine.memory().access(core, array->addrOf(idx), issue);
    slot = res.done;
    inflightIdx++;
    uint64_t deliver = std::max(prevDeliver + 1, res.done);
    prevDeliver = deliver;
    int lat = machine.config().queueLatency;
    out.ready = deliver + static_cast<uint64_t>(lat);
    return out;
}

bool
RAEntity::pushOut(QueueEntry e)
{
    QueueImpl& q = machine.queue(outQ);
    if (q.full()) {
        block(BlockReason::kQueueFull, outQ);
        return false;
    }
    if (timing && q.enqCount >= static_cast<uint64_t>(q.depth)) {
        uint64_t free_at =
            q.deqTimeRing[(q.enqCount - static_cast<uint64_t>(q.depth)) %
                          static_cast<uint64_t>(q.depth)];
        if (free_at > clock)
            clock = free_at;
        if (e.ready < free_at)
            e.ready = free_at;
    }
    q.entries.push_back(e);
    q.enqCount++;
    traceUnblock(clock);
    machine.traceSampleOcc(outQ, clock);
    machine.wakeConsumer(outQ);
    return true;
}

void
RAEntity::step()
{
    QueueImpl& in = machine.queue(inQ);
    uint64_t horizon = clock + machine.options().horizonCycles;
    for (int n = 0; n < quantum; ++n) {
        if (state != State::kReady)
            return;
        if (clock > horizon)
            return;  // yield: keep entity clocks close together
        // RA work counts against the run's instruction budget so that a
        // mis-plumbed accelerator cannot spin forever.
        machine.chargeInstruction();

        if (phase == Phase::kScanning) {
            if (scanCur >= scanEnd) {
                // Stay in kScanning until the range-end control value is
                // safely enqueued: a full output queue must not drop it.
                if (raCfg.emitRangeCtrl) {
                    QueueEntry e;
                    e.v = ir::Value::makeControl(raCfg.rangeCtrlCode);
                    e.ready = clock + 1;
                    if (!pushOut(e))
                        return;
                    stats.ctrlForwarded++;
                }
                phase = Phase::kIdle;
                continue;
            }
            if (machine.queue(outQ).full()) {
                block(BlockReason::kQueueFull, outQ);
                return;
            }
            QueueEntry e = loadElement(scanCur);
            scanCur++;
            clock++;
            stats.elements++;
            if (!pushOut(e))
                return;
            continue;
        }

        if (in.empty()) {
            block(BlockReason::kQueueEmpty, inQ);
            return;
        }
        if (machine.queue(outQ).full()) {
            block(BlockReason::kQueueFull, outQ);
            return;
        }

        QueueEntry e = in.entries.front();
        in.entries.pop_front();
        uint64_t done = std::max(clock + 1, e.ready);
        clock = done;
        if (timing) {
            if (in.deqTimeRing.empty())
                in.deqTimeRing.assign(static_cast<size_t>(in.depth), 0);
            in.deqTimeRing[in.deqCount %
                           static_cast<uint64_t>(in.depth)] = done;
        }
        in.deqCount++;
        traceUnblock(clock);
        machine.traceSampleOcc(inQ, clock);
        machine.wakeProducers(inQ);

        if (e.v.isControl()) {
            // Control values pass through RAs, delimiting streams.
            QueueEntry fwd;
            fwd.v = e.v;
            fwd.ready = clock + 1;
            phase = Phase::kIdle;
            stats.ctrlForwarded++;
            if (!pushOut(fwd))
                return;
            continue;
        }

        if (raCfg.mode == ir::RAMode::kIndirect) {
            QueueEntry out = loadElement(e.v.asInt());
            stats.elements++;
            if (!pushOut(out))
                return;
        } else {
            if (phase == Phase::kIdle) {
                pendingStart = e.v.asInt();
                phase = Phase::kHaveStart;
            } else {
                scanCur = pendingStart;
                scanEnd = e.v.asInt();
                phase = Phase::kScanning;
            }
        }
    }
}

} // namespace detail

// ---------------------------------------------------------------------
// Machine implementation.
// ---------------------------------------------------------------------

using detail::Entity;
using detail::RAEntity;
using detail::ThreadEntity;

Machine::Machine(const SysConfig& cfg, const MachineOptions& opt)
    : cfg_(cfg), opt_(opt)
{
    mem_ = std::make_unique<MemorySystem>(cfg);
    cores_.resize(static_cast<size_t>(cfg.numCores));
    for (auto& c : cores_) {
        c.slotsPerEpoch = CoreState::kEpochCycles * cfg.issueWidth;
        c.mshrRing.assign(static_cast<size_t>(cfg.mshrsPerCore), 0);
    }
    instructionBudget_ =
        opt.maxInstructions > 0 ? opt.maxInstructions : 4'000'000'000ull;
}

Machine::~Machine() = default;

detail::QueueImpl&
Machine::queue(int abs_q)
{
    phloem_assert(abs_q >= 0 && abs_q < static_cast<int>(queues_.size()),
                  "bad absolute queue id ", abs_q);
    return queues_[static_cast<size_t>(abs_q)];
}

void
Machine::wakeProducers(int abs_q)
{
    QueueImpl& q = queue(abs_q);
    for (int id : q.waitingProducers)
        entities_[static_cast<size_t>(id)]->state = Entity::State::kReady;
    q.waitingProducers.clear();
}

void
Machine::wakeConsumer(int abs_q)
{
    QueueImpl& q = queue(abs_q);
    if (q.waitingConsumer >= 0) {
        entities_[static_cast<size_t>(q.waitingConsumer)]->state =
            Entity::State::kReady;
        q.waitingConsumer = -1;
    }
}

void
Machine::arriveBarrier(int)
{
    barrierWaiting_++;
    if (barrierWaiting_ < numStageThreads_)
        return;
    // Release: all threads resume one cycle after the last arrival.
    uint64_t max_arrival = 0;
    for (auto& e : entities_) {
        if (e->isThread() &&
            e->blockReason == Entity::BlockReason::kBarrier) {
            max_arrival = std::max(max_arrival, e->barrierArrival);
        }
    }
    for (auto& e : entities_) {
        if (e->isThread() &&
            e->blockReason == Entity::BlockReason::kBarrier) {
            auto* t = static_cast<ThreadEntity*>(e.get());
            t->stats.queueStallCycles += std::max(
                0.0, static_cast<double>(max_arrival + 1 -
                                         t->barrierArrival) -
                         t->pendingIssueFrac());
            if (t->traceBuf != nullptr)
                t->traceBuf->record(trace::EventKind::kBarrierWait, -1,
                                    t->barrierArrival, max_arrival + 1);
            t->clock = max_arrival + 1;
            t->uopsThisCycle = 0;
            t->state = Entity::State::kReady;
            t->blockReason = Entity::BlockReason::kNone;
        }
    }
    barrierWaiting_ = 0;
}

void
Machine::traceSampleOcc(int abs_q, uint64_t ts)
{
    if (traceOccBuf_ == nullptr)
        return;
    uint64_t occ = queues_[static_cast<size_t>(abs_q)].entries.size();
    if (occ == traceOccLast_[static_cast<size_t>(abs_q)])
        return;
    traceOccLast_[static_cast<size_t>(abs_q)] = occ;
    traceOccBuf_->record(trace::EventKind::kQueueOcc, abs_q, ts, ts, occ);
}

std::string
Machine::debugClocks() const
{
    std::ostringstream oss;
    for (const auto& e : entities_) {
        oss << e->name << "=" << e->clock
            << (e->state == detail::Entity::State::kReady
                    ? "R"
                    : e->state == detail::Entity::State::kHalted ? "H"
                                                                 : "B")
            << " ";
    }
    return oss.str();
}

uint64_t
Machine::chargeInstruction()
{
    if (++instructionsExecuted_ > instructionBudget_) {
        phloem_fatal("instruction budget exceeded (",
                     instructionBudget_,
                     "); runaway program or budget too small");
    }
    return instructionsExecuted_;
}

void
Machine::addDeadlockInfo(RunStats& stats)
{
    std::ostringstream oss;
    for (const auto& e : entities_) {
        if (e->state != Entity::State::kHalted)
            oss << e->describe() << "\n";
    }
    for (size_t q = 0; q < queues_.size(); ++q) {
        const QueueImpl& qi = queues_[q];
        if (qi.enqCount == 0 && qi.deqCount == 0)
            continue;
        oss << "q" << q << ": enq=" << qi.enqCount
            << " deq=" << qi.deqCount << " held=" << qi.entries.size()
            << "\n";
    }
    if (opt_.tracer != nullptr) {
        // Still-open block spans are what the post-mortem is for: flush
        // them so the deadlocked entities' waits are visible.
        for (auto& e : entities_)
            e->traceUnblock(e->clock);
        oss << "trace post-mortem (trailing events per worker):\n"
            << opt_.tracer->postMortem();
    }
    stats.deadlock = true;
    stats.deadlockInfo = oss.str();
}

RunStats
Machine::runEntities(int num_stage_threads)
{
    numStageThreads_ = num_stage_threads;

    for (size_t i = 0; i < entities_.size(); ++i)
        entities_[i]->id = static_cast<int>(i);

    if (opt_.tracer != nullptr) {
        phloem_assert(opt_.tracer->timebase() ==
                          trace::Timebase::kSimCycles,
                      "simulator runs trace on the cycle timebase");
        for (auto& e : entities_)
            e->traceBuf = opt_.tracer->addWorker(e->name, e->isThread());
        traceOccBuf_ = opt_.tracer->addWorker("queue-occupancy",
                                              /*is_stage=*/false);
        traceOccLast_.assign(queues_.size(), ~0ull);
    }

    RunStats stats;
    for (;;) {
        Entity* best = nullptr;
        bool any_thread_live = false;
        for (auto& e : entities_) {
            if (e->isThread() && e->state != Entity::State::kHalted)
                any_thread_live = true;
            if (e->state == Entity::State::kReady &&
                (best == nullptr || e->clock < best->clock)) {
                best = e.get();
            }
        }
        if (!any_thread_live)
            break;
        if (best == nullptr) {
            addDeadlockInfo(stats);
            break;
        }
        best->step();
    }

    // Trace epilogue: RAs end the run blocked on their drained input
    // (that is their normal exit), so flush the open span; any entity
    // that recorded nothing still gets its terminal state as one event.
    for (auto& e : entities_) {
        if (e->traceBuf == nullptr)
            continue;
        e->traceUnblock(e->clock);
        if (e->traceBuf->recorded() == 0)
            e->traceHalt();
    }

    // Collect results.
    for (auto& e : entities_) {
        if (e->isThread()) {
            auto* t = static_cast<ThreadEntity*>(e.get());
            t->stats.cycles = t->clock;
            stats.threads.push_back(t->stats);
            stats.cycles = std::max(stats.cycles, t->clock);
        } else {
            auto* r = static_cast<RAEntity*>(e.get());
            stats.ras.push_back(r->stats);
        }
    }
    for (size_t q = 0; q < queues_.size(); ++q) {
        const QueueImpl& qi = queues_[q];
        if (qi.enqCount == 0 && qi.deqCount == 0)
            continue;  // queues the program never touched add no signal
        QueueSimStats qs;
        qs.id = static_cast<int>(q);
        qs.enq = qi.enqCount;
        qs.deq = qi.deqCount;
        qs.residual = qi.entries.size();
        stats.queues.push_back(qs);
    }
    stats.mem = mem_->stats();
    return stats;
}

RunStats
Machine::runSerial(const ir::Function& fn, Binding& binding)
{
    programSerial_ = flatten(fn);
    // Serial runs get the whole core: full ROB, one thread.
    queues_.clear();
    entities_.clear();
    auto t = std::make_unique<ThreadEntity>(
        *this, fn.name, /*core=*/0, &programSerial_, binding, /*replica=*/0,
        /*queue_offset=*/0, /*queue_stride=*/0, /*num_replicas=*/1);
    t->setRobSize(cfg_.robSize);
    entities_.push_back(std::move(t));
    return runEntities(/*num_stage_threads=*/1);
}

RunStats
Machine::runParallel(const std::vector<const ir::Function*>& fns,
                     Binding& binding)
{
    int total = static_cast<int>(fns.size());
    phloem_assert(total <= cfg_.numCores * cfg_.threadsPerCore,
                  "too many data-parallel threads (", total, ")");
    queues_.clear();
    entities_.clear();

    std::vector<Program> programs;
    programs.reserve(fns.size());
    for (const auto* fn : fns)
        programs.push_back(flatten(*fn));
    programsParallel_ = std::move(programs);

    std::vector<int> threads_on_core(static_cast<size_t>(cfg_.numCores), 0);
    for (int i = 0; i < total; ++i) {
        int core = i / cfg_.threadsPerCore;
        threads_on_core[static_cast<size_t>(core)]++;
    }
    for (int i = 0; i < total; ++i) {
        int core = i / cfg_.threadsPerCore;
        auto t = std::make_unique<ThreadEntity>(
            *this, fns[static_cast<size_t>(i)]->name + "@" +
                       std::to_string(i),
            core, &programsParallel_[static_cast<size_t>(i)], binding,
            /*replica=*/i, /*queue_offset=*/0, /*queue_stride=*/0,
            /*num_replicas=*/1);
        t->setRobSize(cfg_.robSize /
                      threads_on_core[static_cast<size_t>(core)]);
        entities_.push_back(std::move(t));
    }
    return runEntities(total);
}

void
Machine::buildQueues(const ir::Pipeline& pipeline, int replicas, int stride)
{
    queues_.assign(static_cast<size_t>(stride * replicas), QueueImpl{});
    for (auto& q : queues_)
        q.depth = cfg_.queueDepth;
    for (const auto& qc : pipeline.queues) {
        if (qc.depth <= 0)
            continue;
        for (int r = 0; r < replicas; ++r)
            queues_[static_cast<size_t>(qc.id + r * stride)].depth =
                qc.depth;
    }
    for (auto& q : queues_)
        q.deqTimeRing.assign(static_cast<size_t>(q.depth), 0);
}

RunStats
Machine::runPipeline(const ir::Pipeline& pipeline, Binding& binding)
{
    int replicas = std::max(1, pipeline.replicas);

    // Queue-id stride between replicas.
    int max_qid = ir::maxQueueId(pipeline);
    int stride = pipeline.queueStride > 0 ? pipeline.queueStride
                                          : max_qid + 1;
    phloem_assert(stride >= max_qid + 1, "queue stride too small");

    buildQueues(pipeline, replicas, stride);

    int stages_per_replica = static_cast<int>(pipeline.stages.size());
    int total_threads = stages_per_replica * replicas;
    phloem_assert(total_threads <= cfg_.numCores * cfg_.threadsPerCore,
                  "pipeline needs ", total_threads, " threads but system has ",
                  cfg_.numCores * cfg_.threadsPerCore);

    programsPipeline_.clear();
    for (const auto& stage : pipeline.stages)
        programsPipeline_.push_back(flatten(*stage));

    entities_.clear();
    std::vector<int> threads_on_core(static_cast<size_t>(cfg_.numCores), 0);
    std::vector<int> thread_core(static_cast<size_t>(total_threads), 0);
    for (int t = 0; t < total_threads; ++t) {
        int core = t / cfg_.threadsPerCore;
        thread_core[static_cast<size_t>(t)] = core;
        threads_on_core[static_cast<size_t>(core)]++;
    }

    std::vector<std::vector<int>> stage_core(
        static_cast<size_t>(replicas),
        std::vector<int>(static_cast<size_t>(stages_per_replica), 0));
    int tidx = 0;
    for (int r = 0; r < replicas; ++r) {
        for (int s = 0; s < stages_per_replica; ++s) {
            int core = thread_core[static_cast<size_t>(tidx)];
            stage_core[static_cast<size_t>(r)][static_cast<size_t>(s)] =
                core;
            auto t = std::make_unique<ThreadEntity>(
                *this,
                pipeline.stages[static_cast<size_t>(s)]->name +
                    (replicas > 1 ? "@" + std::to_string(r) : ""),
                core, &programsPipeline_[static_cast<size_t>(s)], binding,
                r, /*queue_offset=*/r * stride, stride, replicas);
            t->setRobSize(cfg_.robSize /
                          std::max(1, threads_on_core[static_cast<size_t>(
                                        core)]));
            entities_.push_back(std::move(t));
            tidx++;
        }
    }

    // Reference accelerators: place each RA at the core of the stage that
    // ultimately consumes its output (following RA chains).
    for (int r = 0; r < replicas; ++r) {
        for (size_t i = 0; i < pipeline.ras.size(); ++i) {
            const auto& ra = pipeline.ras[i];
            // Follow chains to the consuming stage.
            ir::QueueId out = ra.outQueue;
            bool chained = true;
            while (chained) {
                chained = false;
                for (const auto& other : pipeline.ras) {
                    if (other.inQueue == out) {
                        out = other.outQueue;
                        chained = true;
                        break;
                    }
                }
            }
            int core = 0;
            for (int s = 0; s < stages_per_replica; ++s) {
                bool consumes = false;
                ir::forEachOp(
                    pipeline.stages[static_cast<size_t>(s)]->body,
                    [&](const ir::Op& op) {
                        if ((op.opcode == ir::Opcode::kDeq ||
                             op.opcode == ir::Opcode::kPeek) &&
                            op.queue == out) {
                            consumes = true;
                        }
                    });
                if (consumes) {
                    core = stage_core[static_cast<size_t>(r)]
                                     [static_cast<size_t>(s)];
                    break;
                }
            }
            auto* buf = binding.array(ra.arrayName, r);
            auto ent = std::make_unique<RAEntity>(
                *this,
                "ra:" + ra.arrayName +
                    (replicas > 1 ? "@" + std::to_string(r) : ""),
                core, ra, buf, ra.inQueue + r * stride,
                ra.outQueue + r * stride, static_cast<int>(i));
            entities_.push_back(std::move(ent));
        }
    }

    // Compute each queue's consumer core (for enq latency selection).
    for (size_t e = 0; e < entities_.size(); ++e) {
        Entity* ent = entities_[e].get();
        if (ent->isThread()) {
            auto* t = static_cast<ThreadEntity*>(ent);
            for (const auto& inst : t->prog->code) {
                if (inst.kind == Inst::Kind::kOp &&
                    (inst.opcode == ir::Opcode::kDeq ||
                     inst.opcode == ir::Opcode::kPeek)) {
                    queues_[static_cast<size_t>(t->queueOffset +
                                                inst.queue)]
                        .consumerCore = t->core;
                }
            }
        } else {
            auto* r = static_cast<RAEntity*>(ent);
            queues_[static_cast<size_t>(r->inQ)].consumerCore = r->core;
        }
    }

    return runEntities(total_threads);
}

} // namespace phloem::sim
