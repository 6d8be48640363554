/**
 * @file
 * Execution statistics collected by one simulation run.
 *
 * The buckets mirror the paper's Fig. 10 cycle breakdown: cycles spent
 * issuing micro-ops, backend stalls (dominated by memory latency), stalls
 * on full/empty queues, and other stalls (frontend / mispredicts).
 */

#ifndef PHLOEM_SIM_STATS_H
#define PHLOEM_SIM_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace phloem::sim {

struct ThreadStats
{
    std::string name;
    int core = 0;

    uint64_t uops = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;         ///< final thread clock
    uint64_t startCycle = 0;

    double issueCycles = 0;      ///< uops / issueWidth
    double queueStallCycles = 0; ///< blocked on full/empty queues + barriers
    double frontendCycles = 0;   ///< mispredict penalties
    /** Dynamic kBr/kBrIf/kBrIfNot, counted as rt::WorkerStats does. */
    uint64_t branches = 0;
    uint64_t mispredicts = 0;    ///< conditional branches, timing only

    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t queueOps = 0;

    /** Backend (memory/dependency) stall: the residual bucket. */
    double
    backendCycles() const
    {
        double busy = issueCycles + queueStallCycles + frontendCycles;
        double total = static_cast<double>(cycles - startCycle);
        return total > busy ? total - busy : 0.0;
    }
};

struct MemStats
{
    uint64_t l1Hits = 0;
    uint64_t l2Hits = 0;
    uint64_t l3Hits = 0;
    uint64_t dramAccesses = 0;

    uint64_t
    totalAccesses() const
    {
        return l1Hits + l2Hits + l3Hits + dramAccesses;
    }
};

struct RAStats
{
    uint64_t elements = 0;     ///< data elements processed
    uint64_t ctrlForwarded = 0;
    uint64_t memAccesses = 0;
};

/**
 * Per-queue activity of one simulated run (absolute queue id). The
 * native runtime reports the same triple in rt::QueueStats, which is
 * what lets `phloemc --run=both` compare pushes/pops across backends
 * and the metrics layer check pushes == pops + residual on both.
 */
struct QueueSimStats
{
    int id = 0;
    uint64_t enq = 0;
    uint64_t deq = 0;
    /** Elements still held when the stage threads halted. */
    uint64_t residual = 0;
};

struct RunStats
{
    /** Wall-clock cycles: max completion over all stage threads. */
    uint64_t cycles = 0;

    std::vector<ThreadStats> threads;
    std::vector<RAStats> ras;
    std::vector<QueueSimStats> queues;
    MemStats mem;

    bool deadlock = false;
    std::string deadlockInfo;

    uint64_t
    totalUops() const
    {
        uint64_t n = 0;
        for (const auto& t : threads)
            n += t.uops;
        return n;
    }

    uint64_t
    totalInstructions() const
    {
        uint64_t n = 0;
        for (const auto& t : threads)
            n += t.instructions;
        return n;
    }

    uint64_t
    totalQueueOps() const
    {
        uint64_t n = 0;
        for (const auto& t : threads)
            n += t.queueOps;
        return n;
    }

    /** Sum of active-thread cycles (denominator for Fig. 10 breakdowns). */
    double
    totalThreadCycles() const
    {
        double n = 0;
        for (const auto& t : threads)
            n += static_cast<double>(t.cycles - t.startCycle);
        return n;
    }

    double
    totalIssueCycles() const
    {
        double n = 0;
        for (const auto& t : threads)
            n += t.issueCycles;
        return n;
    }

    double
    totalQueueStallCycles() const
    {
        double n = 0;
        for (const auto& t : threads)
            n += t.queueStallCycles;
        return n;
    }

    double
    totalFrontendCycles() const
    {
        double n = 0;
        for (const auto& t : threads)
            n += t.frontendCycles;
        return n;
    }

    double
    totalBackendCycles() const
    {
        double n = 0;
        for (const auto& t : threads)
            n += t.backendCycles();
        return n;
    }

    uint64_t
    totalRAElements() const
    {
        uint64_t n = 0;
        for (const auto& r : ras)
            n += r.elements;
        return n;
    }

    uint64_t
    totalRAMemAccesses() const
    {
        uint64_t n = 0;
        for (const auto& r : ras)
            n += r.memAccesses;
        return n;
    }
};

} // namespace phloem::sim

#endif // PHLOEM_SIM_STATS_H
