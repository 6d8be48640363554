/**
 * @file
 * Native-runtime workers: the stage context, the software reference
 * accelerator, and the replica loop that runs them as one pool task.
 *
 * A StageWorker runs one stage's sim::flatten instruction stream,
 * pre-decoded (runtime/decode.h), through the same functional core the
 * simulator uses (sim/eval.h), so the two backends agree bit-for-bit.
 * Like a Pipette thread context it is registers and a pc, no stack: all
 * of its state lives in members, and it can stop only between
 * instructions or inside a queue op, kBarrier or its heartbeat. A
 * blocked queue op pumps the RA beside its ring, if any, then returns
 * "blocked" with pc_ still on the op (waitBlocked in worker.cc); control
 * values arriving at a kDeq with a handler transfer to the handler pc
 * exactly as the simulated hardware does.
 *
 * An RAWorker replays sim/machine.cc's RAEntity state machine in
 * software: indirect mode turns dequeued indices into loaded elements;
 * scan mode streams [start, end) ranges, optionally delimited with a
 * range control value. Control values pass through unchanged. Like a
 * stage, an RA holds no value outside its rings. An RA is not a task:
 * its replica's stages pump it from their blocked queue ops.
 *
 * A Replica is one replica's stages as one stackless pool task: it runs
 * them in turn, switching whenever one blocks, the way sim/machine.cc
 * steps its thread contexts, so a run is complete once every replica's
 * stages have halted.
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
 * Every this many instructions a stage polls abort and the instruction
 * budget and hands over to the next stage of its replica, which yields
 * its pool worker if other tasks are queued there
 * (Scheduler::shouldYield).
 */
constexpr uint64_t kHeartbeatInterval = 4096;

/** Tuning knobs for one native run. */
struct RuntimeOptions
{
    /**
     * Per-worker dynamic instruction budget (runaway-loop backstop). A
     * deadlocked run needs no bound: it fails as soon as every replica
     * waits (sched.h); only a run that keeps computing meets this one.
     */
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
 * Run-wide shared control state: the abort flag, the run's scheduler
 * task group, and the first error.
 */
struct RunControl
{
    RuntimeOptions opt;

    /** A worker failed (exception, deadlock, budget); everyone unwinds. */
    std::atomic<bool> abortFlag{false};

    /** This run's scheduler task group, or null for a serial run. */
    SchedRun* schedRun = nullptr;

    /** Serializes atomic read-modify-write memory ops across stages. */
    std::mutex atomicsMu;

    std::mutex errorMu;
    std::string error;

    /**
     * Record the first failure and tell every worker to unwind. On the
     * pool, only a live task of the run may call it (sched.h): one of
     * its stages, its last task to park, or a finishing task.
     */
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
        // run unwinds.
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
 * Sense-reversing barrier for the pipeline's stages (kBarrier). A stage
 * arrives once (arrive) and then waits, switched out by its replica's
 * loop, until the generation it arrived in has passed (passed). The
 * last arriver starts the next generation and, when the parties span
 * replicas, wakes the replicas parked on the barrier.
 */
class StageBarrier
{
  public:
    StageBarrier(int parties, bool spans_replicas)
        : parties_(parties), spansReplicas_(spans_replicas)
    {
    }

    /** Count one arrival; returns the generation it has to pass. */
    uint64_t arrive();

    /** Has the generation `gen` (from arrive) passed? */
    bool
    passed(uint64_t gen) const
    {
        return generation_.load(std::memory_order_acquire) != gen;
    }

    /** Do the parties span replicas (can a replica park here)? */
    bool spansReplicas() const { return spansReplicas_; }

    /** Where a replica parks until generation `gen` passes. */
    ParkTarget parkTarget(uint64_t gen);

  private:
    /** ParkTarget re-check: has the generation moved past pt.arg? */
    static bool
    generationAdvanced(const ParkTarget& pt)
    {
        return static_cast<const StageBarrier*>(pt.obj)->passed(pt.arg);
    }

    const int parties_;
    const bool spansReplicas_;
    std::atomic<int> waiting_{0};
    std::atomic<uint64_t> generation_{0};
    WaitList waiters_;
};

/** Why StageWorker::resume returned. */
enum class StageStop : uint8_t {
    kRunning,    ///< internal: no handler has stopped yet (never returned)
    kHalted,     ///< ran kHalt or fell off the end of its program
    kBlocked,    ///< its op at pc_ cannot complete yet (see blocked())
    kHeartbeat,  ///< ran a heartbeat's worth: let the next stage run
    kAborted,    ///< the run is aborting
};

/**
 * One pipeline stage as a resumable context, run by its replica's loop
 * (or by runSerial on the caller's thread). The stage's flat program is
 * decoded for its replica's queue window (decodeProgram) and executed
 * through a function-pointer handler table: one indirect call per
 * decoded instruction, fused superinstructions retiring the
 * flattener's dominant pairs in one dispatch. Dynamic counts match the
 * simulator's exactly (fused pairs count two): a handler counts its op
 * when it first runs and retires its instructions when the op
 * completes, and a blocked op's retries (kRetry) count nothing.
 *
 * Queue ops go straight to the ring: a value stays in its fixed-capacity
 * ring until a deq moves it into a register, as in the simulator, so a
 * ring holds at most its capacity. Each op's fast path
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
     * Run from pc_ until the stage halts, blocks, reaches a heartbeat,
     * or sees the run abort. A blocked stage first retries the op at
     * pc_. Throws on an instruction-budget overrun, after failing the
     * run.
     */
    StageStop resume();

    bool halted() const { return halted_; }
    /** Is the op at pc_ waiting to complete? */
    bool
    blocked() const
    {
        return waitWhat_.load(std::memory_order_relaxed) != nullptr;
    }
    /**
     * Did the last resume change anything: run an instruction, count a
     * new op, complete the op it waited on, or pump an RA that moved a
     * value?
     */
    bool moved() const { return moved_; }
    /**
     * Fill *pt for a wait that only another replica can end (a
     * multi-producer ring, a barrier whose parties span replicas);
     * false when this stage's own replica must end it.
     */
    bool crossReplicaWait(ParkTarget* pt) const;
    /**
     * The run is aborting: close the trace span of an open wait and
     * halt.
     */
    void abandon();
    /**
     * While blocked, append "\n  <stage> parked on <enq|deq|peek|barrier>
     * [qN]" to a deadlock report. Safe from any thread.
     */
    void describeWait(std::string& out) const;

    WorkerStats stats;

    /** This worker's trace ring, or null when tracing is off. */
    trace::TraceBuffer* traceBuf = nullptr;

  private:
    using Handler = bool (*)(StageWorker&, const DInst&);
    /** First execution of each DOp (counts it). */
    static const Handler kDispatch[kNumDOps];
    /**
     * Retry of the blocked op at pc_ (counts nothing); null for an op
     * that never blocks.
     */
    static const Handler kRetry[kNumDOps];

    /** Which side of a ring, or the barrier, a blocked op waits on. */
    enum class WaitKind : uint8_t { kEnq, kDeq, kPeek, kBarrier };

    // --- Bookkeeping ------------------------------------------------
    /** Count n retired instructions without a heartbeat check. */
    void
    retire(uint64_t n)
    {
        stats.instructions += n;
        heartbeat_ += n;
    }
    /**
     * Count n retired instructions; false (with stop_ set) at a
     * heartbeat or once the run aborted.
     */
    bool
    tick(uint64_t n)
    {
        retire(n);
        return heartbeat_ < kHeartbeatInterval || slowTick();
    }
    bool slowTick();
    /** Mark the stage halted and trace it. */
    void halt();
    /** The op at pc_ blocked for the first time. */
    void beginWait(WaitKind kind, void* on, int abs_q);
    /** The op waited on completed, or the run aborted. */
    void endWait();

    // --- Queue ops: false (stop_ = kBlocked) when the op must wait. --
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

    // Out of line, so the pumps they may call cost the fast paths no
    // registers.
    [[gnu::noinline]] bool pushBlocked(SpscQueue& q, int abs_q,
                                       const ir::Value& v);
    [[gnu::noinline]] bool popBlocked(SpscQueue& q, int abs_q, ir::Value& v);
    [[gnu::noinline]] bool peekBlocked(SpscQueue& q, int abs_q,
                                       ir::Value& v);
    template <typename Attempt>
    bool waitBlocked(SpscQueue& q, int abs_q, WaitKind kind,
                     Attempt&& attempt);

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

    // --- Op completions: a blocking op's first run and its retries. --
    static bool rBarrier(StageWorker& w, const DInst& d);
    static bool rEnq(StageWorker& w, const DInst& d);
    static bool rEnqCtrl(StageWorker& w, const DInst& d);
    static bool rEnqDist(StageWorker& w, const DInst& d);
    static bool rDeq(StageWorker& w, const DInst& d);
    static bool rPeek(StageWorker& w, const DInst& d);

    const sim::Program* prog_;
    int queueOffset_;
    int queueStride_;
    int numReplicas_;
    std::vector<SpscQueue*> queues_;
    StageBarrier* barrier_;
    RunControl* ctl_;
    /** Decoded by the first resume(); code_ is null until then. */
    DecodedProgram dec_;
    const DInst* code_ = nullptr;

    std::vector<ir::Value> regs_;
    std::vector<sim::ArrayBuffer*> arrayBind_;

    int32_t pc_ = 0;
    uint64_t heartbeat_ = 0;
    /** Sink for kWork's burned mixes; keeps the burn loop observable. */
    uint64_t workSink_ = 0;
    /** Why the last handler that returned false stopped. */
    StageStop stop_ = StageStop::kRunning;
    bool halted_ = false;
    bool moved_ = false;

    // --- The wait of a blocked op, set by beginWait. -----------------
    /**
     * "enq", "deq", "peek" or "barrier" while the op at pc_ waits, else
     * null; atomic, with waitQ_, for describeWait.
     */
    std::atomic<const char*> waitWhat_{nullptr};
    std::atomic<int32_t> waitQ_{-1};
    WaitKind waitKind_ = WaitKind::kEnq;
    /** The ring (SpscQueue) or StageBarrier waited on. */
    void* waitOn_ = nullptr;
    /** The barrier generation a kBarrier waits to pass. */
    uint64_t waitGen_ = 0;
    /** Trace timestamp of the wait's first failed attempt. */
    uint64_t waitT0_ = 0;
};

/**
 * One software reference accelerator: the native twin of
 * sim/machine.cc's RAEntity::step, run by its replica's stages rather
 * than as a task of its own. A stage whose queue op finds an RA's
 * output ring empty pumps the RA forward (pumpOut); one that finds an
 * RA's input ring full pumps it onward (pumpIn). Each step first
 * reserves a free slot on the output ring, then pops one input value
 * and passes it on, so no value ever sits outside a ring; the step's
 * state lives here between pumps. Pumps run only on the replica's home
 * worker: the RA is the only producer of its output ring and the only
 * consumer of its input ring, and that ring's producer is one stage of
 * the same replica.
 */
class RAWorker
{
  public:
    /** Registers itself as in_q's drainer and out_q's feeder. */
    RAWorker(std::string name, const ir::RAConfig& cfg,
             sim::ArrayBuffer* array, SpscQueue* in_q, SpscQueue* out_q);

    RAWorker(const RAWorker&) = delete;
    RAWorker& operator=(const RAWorker&) = delete;

    /**
     * Step while the output ring has a free slot, pulling the upstream
     * RA when the input ring runs dry. Returns the steps that moved a
     * value, in this RA and the RAs it pulled.
     */
    size_t pumpOut();
    /**
     * Step while the input ring holds work, draining the downstream RA
     * when the output ring is full. Returns the steps that moved a
     * value, in this RA and the RAs it drained.
     */
    size_t pumpIn();

    WorkerStats stats;

    /** This RA's trace lane, or null when tracing is off. */
    trace::TraceBuffer* traceBuf = nullptr;
    /** Absolute id of outQ_ for trace attribution (-1 unset). */
    int traceOutQ = -1;

  private:
    enum class Phase : uint8_t { kIdle, kHaveStart, kScanning };

    /**
     * One RAEntity::step with the output slot already reserved: adds
     * the values it pushes to *pushed, and returns false, having moved
     * nothing, when it needs an input value and the input ring is
     * empty.
     */
    bool step(size_t* pushed);
    /** Push into the slot the caller found free. */
    void emit(const ir::Value& v);
    /** Record one kRaService span for a pump that pushed n > 0 values. */
    void traceService(uint64_t t0, size_t n);

    ir::RAConfig cfg_;
    sim::ArrayBuffer* array_;
    SpscQueue* inQ_;
    SpscQueue* outQ_;

    Phase phase_ = Phase::kIdle;
    int64_t pendingStart_ = 0;
    int64_t scanCur_ = 0;
    int64_t scanEnd_ = 0;
};

/**
 * One replica's stages as one stackless pool task: the software
 * counterpart of a Pipette core switching SMT thread contexts on a
 * blocked queue. resume() runs the stages round-robin, each until it
 * blocks, halts or reaches its heartbeat, so a same-replica handoff is
 * a return and a call. The order depends only on the replica's own
 * stages, so its switches (queue blocks) are a function of the program
 * and its input. A round in which no stage ran or completed its op and
 * no pump moved a value is a fixed point: if some stage waits on
 * another replica the task parks on those waits, else the replica is
 * deadlocked and fails the run at once, in the scheduler's words.
 */
class Replica final : public TaskBody
{
  public:
    Replica(std::vector<StageWorker*> stages, RunControl* ctl);

    TaskStep resume(std::vector<ParkTarget>& park) override;
    void describeWaits(std::string& out) const override;

  private:
    /** The run is aborting: halt every stage still live. */
    TaskStep stop();

    std::vector<StageWorker*> stages_;
    RunControl* ctl_;
    /** Index of the stage to run next. */
    size_t next_ = 0;
    /** Stages not yet halted. */
    size_t live_;
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_WORKER_H
