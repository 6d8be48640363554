/**
 * @file
 * Statistics collected by one native-runtime run.
 *
 * Unlike sim::RunStats (simulated cycles), these are real measurements:
 * wall-clock time plus per-queue occupancy/backpressure counters, which
 * is what the paper's queue-sizing arguments are about — a queue whose
 * producer keeps blocking is the pipeline's bottleneck edge.
 */

#ifndef PHLOEM_RUNTIME_STATS_H
#define PHLOEM_RUNTIME_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace phloem::rt {

struct QueueStats
{
    /** Absolute queue id (replica-strided, as in the simulator). */
    int id = 0;
    int depth = 0;
    uint64_t enq = 0;
    uint64_t deq = 0;
    /** Times the producer found the ring full and had to wait. */
    uint64_t enqBlocks = 0;
    /** Times the consumer found the ring empty and had to wait. */
    uint64_t deqBlocks = 0;
    /** High-water mark of elements held. */
    uint64_t maxOccupancy = 0;
    /**
     * Elements still in the ring when the stage threads halted (at most
     * depth: every consumer, stage or RA, pops one value at a time).
     * Nonzero means a producer out-ran its consumer's demand — the
     * signature of a mispaired stream (the fuzzer's deadlock
     * post-mortems key on it).
     */
    uint64_t residual = 0;

    // --- Batched-transfer accounting (scan-RA streaming). -----------
    /** Number of log2 histogram buckets: 1, 2-3, 4-7, ..., >= 128. */
    static constexpr int kBatchHistBuckets = 8;
    /**
     * Always 0: no consumer pops in batches. Kept only because
     * perfbench reads them (like SchedStats::steals).
     */
    uint64_t popBatches = 0;
    uint64_t popBatchElems = 0;
    /** Producer-side batch publishes (pushBatch calls that took >= 1). */
    uint64_t pushBatches = 0;
    uint64_t pushBatchElems = 0;
    /** Publish sizes, log2-bucketed: small pushes mean a trickle. */
    uint64_t pushHist[kBatchHistBuckets] = {};

    double
    meanPushBatch() const
    {
        return pushBatches > 0
                   ? static_cast<double>(pushBatchElems) /
                         static_cast<double>(pushBatches)
                   : 0.0;
    }
};

struct WorkerStats
{
    std::string name;
    /** True for stage threads; false for software reference accelerators. */
    bool isStage = true;
    uint64_t instructions = 0;
    uint64_t queueOps = 0;
    /** RA workers: elements streamed + control values forwarded. */
    uint64_t raElements = 0;
    uint64_t raCtrlForwarded = 0;

    // --- Profiling (stage workers). ---------------------------------
    /** Dynamic executions per ir::Opcode (size ir::kNumOpcodes). */
    std::vector<uint64_t> opCounts;
    /** Dynamic branch instructions (kBr/kBrIf/kBrIfNot). */
    uint64_t branches = 0;
    /** Static superinstruction sites found by the decoder. */
    uint64_t fusedSites = 0;
};

/** Scheduler-side counters for one run; all zero for a serial run. */
struct SchedStats
{
    /** Worker threads in the pool that ran this pipeline (> 0). */
    int poolSize = 0;
    /** Distinct pool workers that dispatched this run's tasks. */
    int workersUsed = 0;
    /** Pool worker index each replica was homed on, by replica. */
    std::vector<int> homes;
    /** Times a task of this run parked on a full/empty ring or barrier. */
    uint64_t parks = 0;
    /** Times a parked/parking task of this run was woken. */
    uint64_t unparks = 0;
    /**
     * This run's tasks stolen from another worker's queue: always 0,
     * since every task stays on its replica's home worker.
     */
    uint64_t steals = 0;
    /** Cooperative yields from compute loops (heartbeat checkpoints). */
    uint64_t yields = 0;
};

/**
 * Portable resource usage, captured before/after a run and differenced:
 * the runtime's host-side observability floor, always available.
 */
struct ResourceUsage
{
    /** Process high-water RSS in KiB (absolute, not a delta). */
    double maxRssKb = 0.0;
    uint64_t voluntaryCtxSw = 0;
    uint64_t involuntaryCtxSw = 0;
    double userNs = 0.0;
    double systemNs = 0.0;

    /** getrusage(RUSAGE_SELF) snapshot. */
    static ResourceUsage processNow();

    /** Delta of the accumulating fields; maxRssKb stays absolute. */
    ResourceUsage
    minus(const ResourceUsage& earlier) const
    {
        ResourceUsage d;
        d.maxRssKb = maxRssKb;
        auto sub = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
        d.voluntaryCtxSw = sub(voluntaryCtxSw, earlier.voluntaryCtxSw);
        d.involuntaryCtxSw =
            sub(involuntaryCtxSw, earlier.involuntaryCtxSw);
        d.userNs = userNs > earlier.userNs ? userNs - earlier.userNs : 0.0;
        d.systemNs =
            systemNs > earlier.systemNs ? systemNs - earlier.systemNs : 0.0;
        return d;
    }
};

struct NativeStats
{
    /** Wall-clock time of the parallel region (start -> stages halt). */
    double wallNs = 0.0;
    int numStageThreads = 0;
    int numRAWorkers = 0;
    /** Task-pool scheduling counters (poolSize 0 for a serial run). */
    SchedStats sched;

    std::vector<WorkerStats> workers;
    std::vector<QueueStats> queues;

    /** getrusage delta across the run (always populated). */
    ResourceUsage rusage;

    bool ok = true;
    /** Deadlock / budget / worker-exception diagnostics when !ok. */
    std::string error;

    double wallMs() const { return wallNs / 1e6; }

    uint64_t
    totalInstructions() const
    {
        uint64_t n = 0;
        for (const auto& w : workers)
            n += w.instructions;
        return n;
    }

    uint64_t
    totalEnqBlocks() const
    {
        uint64_t n = 0;
        for (const auto& q : queues)
            n += q.enqBlocks;
        return n;
    }

    uint64_t
    totalDeqBlocks() const
    {
        uint64_t n = 0;
        for (const auto& q : queues)
            n += q.deqBlocks;
        return n;
    }

    /** Per-opcode dynamic counts summed over all stage workers. */
    std::vector<uint64_t>
    totalOpCounts() const
    {
        std::vector<uint64_t> out;
        for (const auto& w : workers) {
            if (w.opCounts.size() > out.size())
                out.resize(w.opCounts.size(), 0);
            for (size_t i = 0; i < w.opCounts.size(); ++i)
                out[i] += w.opCounts[i];
        }
        return out;
    }

    uint64_t
    totalBranches() const
    {
        uint64_t n = 0;
        for (const auto& w : workers)
            n += w.branches;
        return n;
    }
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_STATS_H
