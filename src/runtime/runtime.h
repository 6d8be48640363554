/**
 * @file
 * Native execution backend: run a compiled pipeline on real host
 * threads connected by lock-free SPSC ring buffers.
 *
 * This is the "what if the paper's hardware were software" backend: one
 * resumable task per pipeline stage (per replica), one task per software
 * reference accelerator, and one bounded ring per architectural queue.
 * Every pipeline runs on a fixed-size shared pool (runtime/sched.h)
 * sized to the machine, all of a replica's tasks on one home worker, so
 * many pipelines — or one pipeline with more stages than cores — share
 * the host without thread oversubscription; a task blocked on a
 * full/empty ring parks and yields its pool worker.
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

#include <vector>

#include "ir/pipeline.h"
#include "runtime/stats.h"
#include "runtime/worker.h"
#include "sim/binding.h"
#include "sim/config.h"

namespace phloem::rt {

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
