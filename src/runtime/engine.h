/**
 * @file
 * Pre-decoded batching execution engine for stage workers.
 *
 * The engine executes a DecodedProgram (runtime/decode.h) through a
 * function-pointer handler table: one indirect call per decoded
 * instruction, queue pointers already absolute, and fused
 * superinstructions retiring the flattener's dominant pairs in one
 * dispatch.
 *
 * Dequeues additionally drain the ring in batches (StageQueues below).
 * Buffering is consumer-side only: values a stage *produces* are always
 * published immediately (blocking semantics and the deadlock monitor
 * depend on enqueued values being visible to peers), while values
 * already published by a peer may be drained eagerly without changing
 * any observable ordering.
 *
 * Semantics are bit-identical to the simulator: both run the same
 * sim/eval.h functional core, and dynamic instruction counts match
 * exactly (fused pairs count two). The fuzzing oracle and the
 * differential tests diff engine vs. simulator vs. serial reference.
 */

#ifndef PHLOEM_RUNTIME_ENGINE_H
#define PHLOEM_RUNTIME_ENGINE_H

#include <memory>
#include <utility>
#include <vector>

#include "runtime/decode.h"
#include "runtime/queue.h"
#include "runtime/stats.h"
#include "runtime/worker.h"
#include "sim/binding.h"

namespace phloem::rt {

/** Borrowed per-stage execution state the engine operates on. */
struct EngineEnv
{
    ir::Value* regs = nullptr;
    sim::ArrayBuffer** arrayBind = nullptr;
    const std::vector<SpscQueue*>* queues = nullptr;
    StageBarrier* barrier = nullptr;
    RunControl* ctl = nullptr;
    WorkerStats* stats = nullptr;
    /** Owning worker's trace ring, or null when tracing is off. */
    trace::TraceBuffer* trace = nullptr;
    int queueStride = 0;
    int numReplicas = 1;
};

/**
 * A stage's blocking queue ops: pushes publish immediately; pops drain
 * the ring in batches. A pop that finds its per-queue buffer empty
 * refills it with SpscQueue::popBatch — one acquire/release pair per
 * run of values instead of one per element — and later pops and peeks
 * are served from the buffer. Values drained but never architecturally
 * dequeued when the stage halts are reported by unconsumed(), so queue
 * statistics (deq counts, residual occupancy) stay truthful.
 *
 * The fast paths (a buffer hit, the first tryPush/popBatch/tryPeek)
 * are inline here; only the blocked paths (waitBlocked) are out of
 * line.
 */
class StageQueues
{
  public:
    explicit StageQueues(const EngineEnv& env);

    bool
    push(SpscQueue& q, int abs_q, const ir::Value& v)
    {
        return q.tryPush(v) || pushBlocked(q, abs_q, v);
    }

    bool
    pop(SpscQueue& q, int abs_q, ir::Value& v)
    {
        ConsumerBuf& b = bufs_[static_cast<size_t>(abs_q)];
        if (b.pos < b.len) {
            v = b.data[b.pos++];
            return true;
        }
        if (!b.data)
            b.data = std::make_unique<ir::Value[]>(kBatchCap);
        size_t n = q.popBatch(kBatchCap, b.data.get());
        if (n == 0 && !refillBlocked(q, abs_q, b.data.get(), n))
            return false;
        b.len = static_cast<uint32_t>(n);
        b.pos = 1;
        v = b.data[0];
        return true;
    }

    /** Read the front without consuming (so never a refill). */
    bool
    peek(SpscQueue& q, int abs_q, ir::Value& v)
    {
        const ConsumerBuf& b = bufs_[static_cast<size_t>(abs_q)];
        if (b.pos < b.len) {
            v = b.data[b.pos];
            return true;
        }
        return q.tryPeek(v) || peekBlocked(q, abs_q, v);
    }

    /**
     * Per-queue counts of values drained into a buffer but never
     * dequeued by the program (pairs of absolute queue id, count).
     */
    std::vector<std::pair<int, uint64_t>> unconsumed() const;

  private:
    /** Values drained per popBatch refill (and buffer capacity). */
    static constexpr size_t kBatchCap = 256;

    struct ConsumerBuf
    {
        std::unique_ptr<ir::Value[]> data;
        uint32_t pos = 0;
        uint32_t len = 0;
    };

    bool pushBlocked(SpscQueue& q, int abs_q, const ir::Value& v);
    /** Wait for a non-empty popBatch into dst; its size lands in n. */
    bool refillBlocked(SpscQueue& q, int abs_q, ir::Value* dst, size_t& n);
    bool peekBlocked(SpscQueue& q, int abs_q, ir::Value& v);

    RunControl* ctl_;
    trace::TraceBuffer* trace_;
    /** Consumer-side batch buffers, indexed by absolute queue id. */
    std::vector<ConsumerBuf> bufs_;
};

class Engine
{
  public:
    Engine(const DecodedProgram& prog, const EngineEnv& env);

    /**
     * Execute until halt or abort. Throws on an instruction-budget
     * overrun; the caller's task wrapper routes that to
     * RunControl::fail.
     */
    void run();

    /** The stage's queue ops; unconsumed() is valid after run(). */
    const StageQueues& queues() const { return queues_; }

  private:
    using Handler = bool (*)(Engine&, const DInst&);
    static const Handler kDispatch[kNumDOps];

    // --- Bookkeeping ------------------------------------------------
    /** Count n retired instructions; false when the run aborted. */
    bool tick(uint64_t n);
    bool slowTick();

    // --- Handlers (indexed by DOp) ----------------------------------
    static bool hEnd(Engine& e, const DInst& d);
    static bool hHalt(Engine& e, const DInst& d);
    static bool hBr(Engine& e, const DInst& d);
    static bool hBrIf(Engine& e, const DInst& d);
    static bool hBrIfNot(Engine& e, const DInst& d);
    static bool hScalar(Engine& e, const DInst& d);
    static bool hWork(Engine& e, const DInst& d);
    static bool hLoad(Engine& e, const DInst& d);
    static bool hStore(Engine& e, const DInst& d);
    static bool hMemOther(Engine& e, const DInst& d);
    static bool hAtomic(Engine& e, const DInst& d);
    static bool hSwapArr(Engine& e, const DInst& d);
    static bool hBarrier(Engine& e, const DInst& d);
    static bool hEnq(Engine& e, const DInst& d);
    static bool hEnqCtrl(Engine& e, const DInst& d);
    static bool hEnqDist(Engine& e, const DInst& d);
    static bool hDeq(Engine& e, const DInst& d);
    static bool hPeek(Engine& e, const DInst& d);
    static bool hScalarBr(Engine& e, const DInst& d);
    static bool hScalarJmp(Engine& e, const DInst& d);
    static bool hScalarEnq(Engine& e, const DInst& d);
    static bool hLoadEnq(Engine& e, const DInst& d);

    const DecodedProgram& prog_;
    EngineEnv env_;

    int32_t pc_ = 0;
    uint64_t heartbeat_ = 0;
    /** Sink for kWork's burned mixes; keeps the burn loop observable. */
    uint64_t workSink_ = 0;
    StageQueues queues_;
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_ENGINE_H
