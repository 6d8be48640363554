/**
 * @file
 * Native-runtime workers: the per-stage task and the software
 * reference accelerator.
 *
 * A StageWorker runs one stage's sim::flatten instruction stream,
 * pre-decoded by the engine (runtime/engine.h), through the same
 * functional core the simulator uses (sim/eval.h), so the two backends
 * agree bit-for-bit.
 * Queue ops block on the SPSC rings through waitBlocked() below;
 * control values arriving at a kDeq with a handler transfer to the
 * handler pc exactly as the simulated hardware does.
 *
 * An RAWorker replays sim/machine.cc's RAEntity state machine in
 * software: indirect mode turns dequeued indices into loaded elements;
 * scan mode streams [start, end) ranges, optionally delimited with a
 * range control value. Control values pass through unchanged. RA workers
 * never write memory, so they can be shut down as soon as every stage
 * thread has halted.
 */

#ifndef PHLOEM_RUNTIME_WORKER_H
#define PHLOEM_RUNTIME_WORKER_H

#include <atomic>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ir/pipeline.h"
#include "runtime/queue.h"
#include "runtime/stats.h"
#include "runtime/trace.h"
#include "sim/binding.h"
#include "sim/program.h"

namespace phloem::rt {

/** Bump the global progress counter every this many instructions. */
constexpr uint64_t kHeartbeatInterval = 4096;

/** How stage/RA workers map onto host threads (see runtime/sched.h). */
enum class SchedulerMode : uint8_t {
    /** Shared pool unless the PHLOEM_SCHED=legacy env override. */
    kAuto,
    /** Tasks on the shared fixed-size pool, one worker per replica. */
    kShared,
    /** One dedicated OS thread per worker (differential fallback). */
    kLegacy,
};

class Scheduler;
class SchedRun;
struct DecodedProgram;

/** Null-safe wake of every parked task in a run (runtime/sched.cc). */
void schedWakeAll(SchedRun* run);

/** Tuning knobs for one native run. */
struct RuntimeOptions
{
    /**
     * Abort the run when no worker makes progress for this long while
     * some worker is blocked (a mis-compiled pipeline would otherwise
     * hang the host). Progress = successful queue ops + periodic
     * instruction-count heartbeats.
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
    /** Task scheduling: shared pool (default) vs thread-per-stage. */
    SchedulerMode scheduler = SchedulerMode::kAuto;
    /**
     * Run on this scheduler instead of the process-wide shared pool
     * (whose size PHLOEM_SCHED_WORKERS sets). Tests use it to build
     * private pools of known size; must outlive the run. Null = the
     * shared pool.
     */
    Scheduler* schedulerOverride = nullptr;
    /**
     * Caller-assigned request id (phloemd threads the server's id down
     * here). Prefixes watchdog/worker errors and lands in trace metadata
     * so a service-side span and the runtime stalls it caused correlate.
     */
    std::string requestId;
};

/**
 * Run-wide shared control state: the global progress counter feeding the
 * deadlock watchdog, the shutdown/abort flags, and the first error.
 */
struct RunControl
{
    RuntimeOptions opt;

    /** Bumped on successful queue ops and every few k instructions. */
    std::atomic<uint64_t> progress{0};
    /** All stage threads have halted; RA workers drain and exit. */
    std::atomic<bool> stop{false};
    /** A worker failed (exception, watchdog); everyone unwinds. */
    std::atomic<bool> abortFlag{false};

    /** This run's scheduler task group, or null in legacy mode. */
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
        schedWakeAll(schedRun);
    }

    bool
    aborted() const
    {
        return abortFlag.load(std::memory_order_acquire);
    }
};

/**
 * Backoff for one blocked queue op. A scheduler task parks at once.
 * Off the pool it spins briefly with cpu-relax, then yields; while
 * yielding it watches the global progress counter and trips the
 * deadlock watchdog when nothing in the whole runtime has advanced for
 * opt.deadlockTimeoutMs.
 */
class Backoff
{
  public:
    enum class Result : uint8_t {
        kRetry,     ///< try the queue op again
        kStopped,   ///< runtime shut down (RA drain) or aborted
        kDeadlock,  ///< watchdog fired: caller should report and abort
    };

    /**
     * One backoff step. `stoppable` waits also end on ctl.stop. On a
     * scheduler task with a parkable target it parks without spinning
     * (the wait then costs ~0 CPU and deadlock detection is the
     * scheduler's all-parked monitor, which never returns kDeadlock
     * from here). Off the pool, or with a null target/list, the legacy
     * spin-yield-watchdog behavior applies.
     */
    Result step(RunControl& ctl, bool stoppable,
                const ParkTarget* pt = nullptr);

  private:
    int spins_ = 0;
    uint64_t lastProgress_ = 0;
    /**
     * Monotonic ns timestamp of the last observed progress change; 0
     * until the watchdog's first yield.
     */
    uint64_t lastChangeNs_ = 0;
};

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

/** How a blocked queue op ended (see waitBlocked). */
enum class WaitStatus : uint8_t {
    kOk,        ///< the op completed
    kStopped,   ///< runtime shut down (RA drain) or aborted
    kDeadlock,  ///< wall-time watchdog fired: caller reports and aborts
};

/**
 * The blocked path of every queue op, entered once its inline fast path
 * failed: count the block on the ring, then retry `attempt` under
 * Backoff — spinning, then parking on the ring's waiter list on the
 * pool, or yielding under the watchdog off it — until it succeeds, the
 * run stops, or the watchdog fires. Success bumps global progress, and
 * every outcome records the wait as one trace span on `tb` (null when
 * tracing is off). `stoppable` waits also end on RunControl::stop.
 * Reporting a deadlock is the caller's job: it knows what to name.
 */
template <typename Attempt>
WaitStatus
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
    if (QueueWaiters* w = q.waiters())
        pt.list = enq ? &w->producers : &w->consumers;
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

    Backoff backoff;
    WaitStatus status = WaitStatus::kOk;
    for (;;) {
        if (attempt()) {
            ctl.progress.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        Backoff::Result r = backoff.step(ctl, stoppable, &pt);
        if (r == Backoff::Result::kRetry)
            continue;
        status = r == Backoff::Result::kStopped ? WaitStatus::kStopped
                                                : WaitStatus::kDeadlock;
        break;
    }
    if (tb != nullptr)
        tb->record(enq ? trace::EventKind::kEnqBlock
                       : trace::EventKind::kDeqBlock,
                   abs_q, t0, tb->now());
    return status;
}

/**
 * Sense-reversing barrier for the pipeline's stage workers (kBarrier).
 * Abort-aware: a waiter returns false when the run is unwinding. On
 * the shared pool, waiters park on the barrier's waiter list and the
 * last arriver wakes them (spinning would starve the missing parties
 * when the pool is smaller than the stage count).
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

/** One pipeline stage (or a serial function) on one host thread. */
class StageWorker
{
  public:
    StageWorker(std::string name, const sim::Program* prog,
                sim::Binding& binding, int replica, int queue_offset,
                int queue_stride, int num_replicas,
                std::vector<SpscQueue*> queues, StageBarrier* barrier,
                RunControl* ctl);

    /** Thread body: run the stage until halt, abort, or watchdog. */
    void run();

    WorkerStats stats;

    /** This worker's trace ring, or null when tracing is off. */
    trace::TraceBuffer* traceBuf = nullptr;

    /**
     * Cached decoded shape of prog_ (set by the runtime when the
     * compilation service pre-decoded it), or null to decode locally.
     * The engine copies it and relocates the copy for this replica, so
     * cache hits skip classification+fusion, not just flattening. Must
     * outlive the run.
     */
    const DecodedProgram* shape = nullptr;

    /**
     * Per-queue counts of values drained into the consumer batch buffer
     * but never architecturally dequeued (pairs of absolute queue id,
     * count). The runtime subtracts these from the ring's deq count and
     * reports them as buffered residue.
     */
    std::vector<std::pair<int, uint64_t>> unconsumed;

  private:
    /** Decode (or copy the cached shape) and run the engine. */
    void runEngine();

    const sim::Program* prog_;
    int queueOffset_;
    int queueStride_;
    int numReplicas_;
    std::vector<SpscQueue*> queues_;
    StageBarrier* barrier_;
    RunControl* ctl_;

    std::vector<ir::Value> regs_;
    std::vector<sim::ArrayBuffer*> arrayBind_;
};

/** One software reference accelerator on one host thread. */
class RAWorker
{
  public:
    RAWorker(std::string name, const ir::RAConfig& cfg,
             sim::ArrayBuffer* array, SpscQueue* in_q, SpscQueue* out_q,
             RunControl* ctl);

    /** Thread body: service requests until shutdown. */
    void run();

    WorkerStats stats;

    /** This worker's trace ring, or null when tracing is off. */
    trace::TraceBuffer* traceBuf = nullptr;
    /** Absolute ids of inQ_/outQ_ for trace attribution (-1 unset). */
    int traceInQ = -1;
    int traceOutQ = -1;

    /**
     * Values drained from the input queue (batched indirect mode) but
     * not yet serviced when the worker shut down. The runtime folds
     * these back into the input ring's deq/residual statistics.
     */
    uint64_t unconsumedIn = 0;

  private:
    /** Indices drained per input-ring synchronization (indirect mode). */
    static constexpr size_t kIndirectBatch = 256;

    /** Service loop (run() wraps it to trace the halt). */
    void runLoop();
    /** Returns false on shutdown/abort. */
    bool waitPush(const ir::Value& v);
    bool waitPop(ir::Value& v);
    /** Service a drained run of values in order; false on shutdown. */
    bool serviceIndirectBatch(const ir::Value* batch, size_t n);
    /** Periodic progress bump so blocked peers' watchdogs stay fed. */
    void heartbeat(uint64_t n = 1);

    uint64_t heartbeatCount_ = 0;
    ir::RAConfig cfg_;
    sim::ArrayBuffer* array_;
    SpscQueue* inQ_;
    SpscQueue* outQ_;
    RunControl* ctl_;
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_WORKER_H
