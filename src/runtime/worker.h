/**
 * @file
 * Native-runtime workers: the per-stage task and the software
 * reference accelerator.
 *
 * A StageWorker runs one stage's sim::flatten instruction stream,
 * pre-decoded (runtime/decode.h), through the same functional core the
 * simulator uses (sim/eval.h), so the two backends agree bit-for-bit.
 * Queue ops block on the SPSC rings through waitBlocked() below;
 * control values arriving at a kDeq with a handler transfer to the
 * handler pc exactly as the simulated hardware does.
 *
 * An RAWorker replays sim/machine.cc's RAEntity state machine in
 * software: indirect mode turns dequeued indices into loaded elements;
 * scan mode streams [start, end) ranges, optionally delimited with a
 * range control value. Control values pass through unchanged. Like a
 * stage, an RA holds no value outside its rings. RA workers never write
 * memory, so they can be shut down as soon as every stage task has
 * halted.
 */

#ifndef PHLOEM_RUNTIME_WORKER_H
#define PHLOEM_RUNTIME_WORKER_H

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "ir/pipeline.h"
#include "runtime/decode.h"
#include "runtime/queue.h"
#include "runtime/sched.h"
#include "runtime/stats.h"
#include "runtime/trace.h"
#include "sim/binding.h"
#include "sim/program.h"

namespace phloem::rt {

/**
 * Poll abort and the instruction budget, and offer the pool worker to
 * runnable peers (Scheduler::maybeYield), every this many instructions.
 */
constexpr uint64_t kHeartbeatInterval = 4096;

/** Tuning knobs for one native run. */
struct RuntimeOptions
{
    /**
     * Abort the run once every live task has stayed parked, with
     * nothing runnable, for this long (the scheduler's all-parked
     * monitor; a mis-compiled pipeline would otherwise hang the host).
     * It bounds a deadlocked run, not a live one: a run that keeps
     * computing is bounded only by maxInstructions.
     */
    int deadlockTimeoutMs = 10000;
    /** Per-worker dynamic instruction budget (runaway-loop backstop). */
    uint64_t maxInstructions = 4'000'000'000ull;
    /**
     * Stall-attribution tracer (trace.h), or null for no tracing. Must
     * outlive the run; the runtime registers one buffer per worker and
     * a sampled-occupancy lane. Null keeps every hook on its inlined
     * no-op path (the zero-cost-off contract).
     */
    trace::Tracer* tracer = nullptr;
    /**
     * Run on this scheduler instead of the process-wide shared pool
     * (whose size PHLOEM_SCHED_WORKERS sets). Tests use it to build
     * private pools of known size; must outlive the run. Null = the
     * shared pool.
     */
    Scheduler* schedulerOverride = nullptr;
    /**
     * Caller-assigned request id (phloemd threads the server's id down
     * here). Prefixes deadlock/worker errors and lands in trace metadata
     * so a service-side span and the runtime stalls it caused correlate.
     */
    std::string requestId;
};

/**
 * Run-wide shared control state: the shutdown/abort flags, the run's
 * scheduler task group, and the first error.
 */
struct RunControl
{
    RuntimeOptions opt;

    /** All stage tasks have halted; RA workers drain and exit. */
    std::atomic<bool> stop{false};
    /** A worker failed (exception, deadlock, budget); everyone unwinds. */
    std::atomic<bool> abortFlag{false};

    /** This run's scheduler task group, or null for a serial run. */
    SchedRun* schedRun = nullptr;

    /** Serializes atomic read-modify-write memory ops across stages. */
    std::mutex atomicsMu;

    std::mutex errorMu;
    std::string error;

    /** Record the first failure and tell every worker to unwind. */
    void
    fail(const std::string& msg)
    {
        {
            std::lock_guard<std::mutex> g(errorMu);
            if (error.empty())
                error = msg;
        }
        abortFlag.store(true, std::memory_order_release);
        // Parked tasks cannot poll the abort flag; wake them so the
        // run unwinds instead of waiting out the deadlock monitor.
        if (schedRun != nullptr)
            schedRun->wakeAllTasks();
    }

    bool
    aborted() const
    {
        return abortFlag.load(std::memory_order_acquire);
    }
};

/**
 * The one step of every blocked wait (queue op or barrier): false once
 * the run has aborted, or stopped for a `stoppable` wait. Otherwise it
 * parks the calling task on pt.list until a notifier or an abort wakes
 * it, and returns true so the caller re-checks its condition. Deadlock
 * detection is the scheduler's all-parked monitor, whose fail() the
 * abort check here observes once the task is woken.
 */
inline bool
parkStep(RunControl& ctl, bool stoppable, const ParkTarget& pt)
{
    if (ctl.aborted() ||
        (stoppable && ctl.stop.load(std::memory_order_acquire)))
        return false;
    // Park straight away: every task is homed, so the peer that would
    // satisfy this wait usually shares the worker and cannot run until
    // we switch out; spinning would only delay it.
    Scheduler::parkCurrent(pt, ctl, stoppable);
    return true;
}

/** Which side of a ring a blocked queue op waits on. */
enum class QueueWait : uint8_t {
    kEnq,   ///< producer: the ring is full
    kDeq,   ///< consumer: the ring is empty
    kPeek,  ///< consumer reading the front without popping
};

/** "enq", "deq" or "peek": park diagnostics and deadlock reports. */
inline const char*
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
 * The blocked path of every queue op, entered once its inline fast path
 * failed: count the block on the ring, then retry `attempt`, parking on
 * the ring's waiter list between tries (parkStep), until it succeeds or
 * the run stops. Returns true iff the op completed. Every outcome
 * records the wait as one trace span on `tb` (null when tracing is
 * off). `stoppable` waits also end on RunControl::stop.
 */
template <typename Attempt>
bool
waitBlocked(RunControl& ctl, trace::TraceBuffer* tb, SpscQueue& q, int abs_q,
            QueueWait kind, bool stoppable, Attempt&& attempt)
{
    const bool enq = kind == QueueWait::kEnq;
    if (enq)
        q.noteEnqBlocked();
    else
        q.noteDeqBlocked();
    uint64_t t0 = tb != nullptr ? tb->now() : 0;

    ParkTarget pt;
    pt.list = enq ? &q.waiters().producers : &q.waiters().consumers;
    if (enq) {
        pt.ready = [](const ParkTarget& p) {
            const auto* ring = static_cast<const SpscQueue*>(p.obj);
            return ring->sizeApprox() < static_cast<size_t>(ring->depth());
        };
    } else {
        pt.ready = [](const ParkTarget& p) {
            return static_cast<const SpscQueue*>(p.obj)->sizeApprox() > 0;
        };
    }
    pt.obj = &q;
    pt.what = queueWaitName(kind);
    pt.q = abs_q;

    bool ok = attempt();
    while (!ok && parkStep(ctl, stoppable, pt))
        ok = attempt();
    if (tb != nullptr)
        tb->record(enq ? trace::EventKind::kEnqBlock
                       : trace::EventKind::kDeqBlock,
                   abs_q, t0, tb->now());
    return ok;
}

/**
 * Sense-reversing barrier for the pipeline's stage workers (kBarrier).
 * Abort-aware: a waiter returns false when the run is unwinding.
 * Waiters park on the barrier's waiter list and the last arriver wakes
 * them (spinning would starve the missing parties, which share the
 * waiter's pool worker).
 */
class StageBarrier
{
  public:
    explicit StageBarrier(int parties) : parties_(parties) {}

    /** Returns false when the run aborted while waiting. */
    bool arriveAndWait(RunControl& ctl);

  private:
    /** ParkTarget re-check: has the generation moved past pt.arg? */
    static bool
    generationAdvanced(const ParkTarget& pt)
    {
        const auto* b = static_cast<const StageBarrier*>(pt.obj);
        return b->generation_.load(std::memory_order_acquire) != pt.arg;
    }

    const int parties_;
    std::atomic<int> waiting_{0};
    std::atomic<uint64_t> generation_{0};
    WaitList waiters_;
};

/**
 * One pipeline stage as a pool task (or a serial function on the
 * caller's thread). The stage's flat program is decoded for its
 * replica's queue window (decodeProgram) and executed through a
 * function-pointer handler table: one indirect call per decoded
 * instruction, fused superinstructions retiring the flattener's
 * dominant pairs in one dispatch. Dynamic counts match the simulator's
 * exactly (fused pairs count two).
 *
 * Queue ops go straight to the ring: a value stays in its fixed-depth
 * ring until a deq moves it into a register, as in the simulator, so a
 * ring holds at most its architectural depth. Each op's fast path
 * (tryPush/tryPop/tryPeek) is inline; only the blocked path
 * (waitBlocked) is out of line.
 */
class StageWorker
{
  public:
    StageWorker(std::string name, const sim::Program* prog,
                sim::Binding& binding, int replica, int queue_offset,
                int queue_stride, int num_replicas,
                std::vector<SpscQueue*> queues, StageBarrier* barrier,
                RunControl* ctl);

    /**
     * Task body: run the stage until halt or abort. Throws on an
     * instruction-budget overrun; the caller's task wrapper routes that
     * to RunControl::fail.
     */
    void run();

    WorkerStats stats;

    /** This worker's trace ring, or null when tracing is off. */
    trace::TraceBuffer* traceBuf = nullptr;

  private:
    using Handler = bool (*)(StageWorker&, const DInst&);
    static const Handler kDispatch[kNumDOps];

    // --- Bookkeeping ------------------------------------------------
    /** Count n retired instructions; false when the run aborted. */
    bool tick(uint64_t n);
    bool slowTick();

    // --- Queue ops: false once the run aborted while blocked. -------
    bool
    push(SpscQueue& q, int abs_q, const ir::Value& v)
    {
        return q.tryPush(v) || pushBlocked(q, abs_q, v);
    }

    bool
    pop(SpscQueue& q, int abs_q, ir::Value& v)
    {
        return q.tryPop(v) || popBlocked(q, abs_q, v);
    }

    /** Read the front without consuming it. */
    bool
    peek(SpscQueue& q, int abs_q, ir::Value& v)
    {
        return q.tryPeek(v) || peekBlocked(q, abs_q, v);
    }

    bool pushBlocked(SpscQueue& q, int abs_q, const ir::Value& v);
    bool popBlocked(SpscQueue& q, int abs_q, ir::Value& v);
    bool peekBlocked(SpscQueue& q, int abs_q, ir::Value& v);

    // --- Handlers (indexed by DOp) ----------------------------------
    static bool hEnd(StageWorker& w, const DInst& d);
    static bool hHalt(StageWorker& w, const DInst& d);
    static bool hBr(StageWorker& w, const DInst& d);
    static bool hBrIf(StageWorker& w, const DInst& d);
    static bool hBrIfNot(StageWorker& w, const DInst& d);
    static bool hScalar(StageWorker& w, const DInst& d);
    static bool hWork(StageWorker& w, const DInst& d);
    static bool hLoad(StageWorker& w, const DInst& d);
    static bool hStore(StageWorker& w, const DInst& d);
    static bool hMemOther(StageWorker& w, const DInst& d);
    static bool hAtomic(StageWorker& w, const DInst& d);
    static bool hSwapArr(StageWorker& w, const DInst& d);
    static bool hBarrier(StageWorker& w, const DInst& d);
    static bool hEnq(StageWorker& w, const DInst& d);
    static bool hEnqCtrl(StageWorker& w, const DInst& d);
    static bool hEnqDist(StageWorker& w, const DInst& d);
    static bool hDeq(StageWorker& w, const DInst& d);
    static bool hPeek(StageWorker& w, const DInst& d);
    static bool hScalarBr(StageWorker& w, const DInst& d);
    static bool hScalarJmp(StageWorker& w, const DInst& d);
    static bool hScalarEnq(StageWorker& w, const DInst& d);
    static bool hLoadEnq(StageWorker& w, const DInst& d);

    const sim::Program* prog_;
    int queueOffset_;
    int queueStride_;
    int numReplicas_;
    std::vector<SpscQueue*> queues_;
    StageBarrier* barrier_;
    RunControl* ctl_;

    std::vector<ir::Value> regs_;
    std::vector<sim::ArrayBuffer*> arrayBind_;

    int32_t pc_ = 0;
    uint64_t heartbeat_ = 0;
    /** Sink for kWork's burned mixes; keeps the burn loop observable. */
    uint64_t workSink_ = 0;
};

/**
 * One software reference accelerator as a pool task: the native twin of
 * sim/machine.cc's RAEntity::step. Each step first waits for a free slot
 * on the output ring, then pops one input value and passes it on, so no
 * value ever sits outside a ring.
 */
class RAWorker
{
  public:
    RAWorker(std::string name, const ir::RAConfig& cfg,
             sim::ArrayBuffer* array, SpscQueue* in_q, SpscQueue* out_q,
             RunControl* ctl);

    /** Task body: service requests until shutdown. */
    void run();

    WorkerStats stats;

    /** This worker's trace ring, or null when tracing is off. */
    trace::TraceBuffer* traceBuf = nullptr;
    /** Absolute ids of inQ_/outQ_ for trace attribution (-1 unset). */
    int traceInQ = -1;
    int traceOutQ = -1;

  private:
    /** Service loop (run() wraps it to trace the halt). */
    void runLoop();
    /** Wait for a free output slot; false on shutdown/abort. */
    bool waitSlot();
    /** Pop one input value; false on shutdown/abort. */
    bool waitPop(ir::Value& v);
    /** Push into the slot waitSlot found free. */
    void emit(const ir::Value& v);
    /** Count serviced values; every kHeartbeatInterval, maybeYield. */
    void heartbeat(uint64_t n);

    uint64_t heartbeatCount_ = 0;
    ir::RAConfig cfg_;
    sim::ArrayBuffer* array_;
    SpscQueue* inQ_;
    SpscQueue* outQ_;
    RunControl* ctl_;
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_WORKER_H
