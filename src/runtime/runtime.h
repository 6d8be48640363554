/**
 * @file
 * Native execution backend: run a compiled pipeline on real host
 * threads connected by lock-free SPSC ring buffers.
 *
 * This is the "what if the paper's hardware were software" backend: one
 * resumable context per pipeline stage (per replica), software
 * reference accelerators that those stages pump from their blocked
 * queue ops, and one bounded ring per architectural queue (deeper than
 * the queue: see ringCapacities).
 * Every pipeline runs on a fixed-size shared pool (runtime/sched.h)
 * sized to the machine, each replica as one task on one home worker
 * that switches among its stages the way a Pipette core switches SMT
 * threads: a stage blocked on a full/empty ring gives way to the next
 * one. Many pipelines — or one pipeline with more stages than cores —
 * share the host without thread oversubscription.
 * It executes the same sim::flatten instruction stream as the
 * simulator, through the same functional core (sim/eval.h), so its
 * output is bit-for-bit identical to the simulator's — which the
 * differential tests enforce.
 *
 * What it measures is real: wall-clock time of the parallel region and
 * per-queue backpressure (block counts, occupancy high-water marks),
 * the native analogue of the paper's queue-sizing discussion.
 */

#ifndef PHLOEM_RUNTIME_RUNTIME_H
#define PHLOEM_RUNTIME_RUNTIME_H

#include <cstdint>
#include <vector>

#include "ir/pipeline.h"
#include "runtime/stats.h"
#include "runtime/worker.h"
#include "sim/binding.h"
#include "sim/config.h"

namespace phloem::rt {

/**
 * Native rings are deeper than the architectural queues they stand for.
 * A Pipette queue only has to hide a few cycles per handoff; on the host
 * a handoff between a replica's stages is a return to its loop and a
 * stage switch, so
 * each ring holds kRingDepthScale x its queue's depth, unless the run's
 * rings would then exceed kRingSlotBudget slots (16 bytes each): the
 * factor then shrinks to fit, but never below 1. Depth never changes a
 * pipeline's output, and a deeper ring cannot add a deadlock, so the
 * simulator stays the depth-faithful oracle.
 */
inline constexpr int kRingDepthScale = 64;
inline constexpr int64_t kRingSlotBudget = int64_t{1} << 20;

/**
 * Host ring capacity for every queue a run of `pipeline` builds, by
 * absolute (replica-strided) queue id: the queue's depth (its
 * QueueConfig override, else cfg.queueDepth) times
 * min(kRingDepthScale, max(1, kRingSlotBudget / sum of all depths)).
 */
std::vector<int> ringCapacities(const ir::Pipeline& pipeline,
                                const sim::SysConfig& cfg);

/**
 * Caller-supplied pre-flattened stage programs, one per stage in stage
 * order (null = flatten per run). Only read: a compilation service
 * shares one pipeline across concurrent runs, and everything referenced
 * must outlive the call.
 */
struct PreparedPrograms
{
    const std::vector<sim::Program>* programs = nullptr;
};

class Runtime
{
  public:
    explicit Runtime(const sim::SysConfig& cfg = {},
                     const RuntimeOptions& opt = {})
        : cfg_(cfg), opt_(opt)
    {
    }

    /**
     * Execute a pipeline to completion as tasks on the scheduler pool.
     * Mutates the bound arrays exactly as Machine::runPipeline would.
     * `prep` optionally supplies pre-flattened programs (see
     * PreparedPrograms). On failure (deadlock, instruction budget,
     * worker exception) the returned stats have ok=false and the array
     * contents are unspecified.
     */
    NativeStats runPipeline(const ir::Pipeline& pipeline,
                            sim::Binding& binding,
                            const PreparedPrograms& prep = {});

    /** Execute a serial function on the calling thread (the baseline). */
    NativeStats runSerial(const ir::Function& fn, sim::Binding& binding);

  private:
    sim::SysConfig cfg_;
    RuntimeOptions opt_;
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_RUNTIME_H
