/**
 * @file
 * Hardware performance counters for native-runtime worker threads.
 *
 * The paper's stall-breakdown arguments (Fig. 10) are about where
 * cycles go; the runtime's software counters say how often a worker
 * blocked, but only the PMU can say whether the unblocked time was
 * spent retiring instructions or stalled on misses. This layer samples
 * cycles, instructions, LLC references/misses, and stalled cycles per
 * worker thread through `perf_event_open(2)` and folds the deltas into
 * NativeStats as per-lane counts (one lane per counted OS thread: the
 * pool workers for a pipeline, the calling thread for a serial run).
 *
 * Graceful degradation is the contract: `perf_event_paranoid`, seccomp,
 * or a missing PMU (VMs, containers) must not change behavior beyond
 * one warning and an absent `hw_*` metrics family. Counters are opened
 * user-space-only (`exclude_kernel`) so paranoid level 2 — the common
 * distro default — still works. A portable `getrusage` capture (maxrss,
 * voluntary/involuntary context switches) is always present regardless.
 *
 * Counters are opened individually, not as a PMU group: a group larger
 * than the PMU's programmable-counter budget would never be scheduled
 * at all, whereas individual events time-multiplex. Each read scales by
 * time-enabled / time-running to undo the multiplexing, which is the
 * standard estimate and exact whenever the event set fits the PMU.
 *
 * Threading contract: open() must be called by the thread being
 * counted (the events attach to the calling thread); read() may be
 * called from any thread — coordinators snapshot pool workers' fds
 * before and after a run and subtract.
 */

#ifndef PHLOEM_RUNTIME_HWCOUNT_H
#define PHLOEM_RUNTIME_HWCOUNT_H

#include <cstdint>
#include <string>

namespace phloem::rt {

/** One thread's scaled counter values (cumulative since open()). */
struct HwCounts
{
    bool valid = false;
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t llcRefs = 0;
    uint64_t llcMisses = 0;
    /** Backend-stall cycles; 0 on PMUs that lack the event. */
    uint64_t stalledCycles = 0;

    double
    ipc() const
    {
        return cycles > 0 ? static_cast<double>(instructions) /
                                static_cast<double>(cycles)
                          : 0.0;
    }

    /** LLC miss ratio in [0, 1]; 0 when no references were counted. */
    double
    llcMissRate() const
    {
        return llcRefs > 0 ? static_cast<double>(llcMisses) /
                                 static_cast<double>(llcRefs)
                           : 0.0;
    }

    void
    accumulate(const HwCounts& other)
    {
        if (!other.valid)
            return;
        valid = true;
        cycles += other.cycles;
        instructions += other.instructions;
        llcRefs += other.llcRefs;
        llcMisses += other.llcMisses;
        stalledCycles += other.stalledCycles;
    }

    /** this - earlier, clamped at 0 per counter (multiplexing jitter). */
    HwCounts
    minus(const HwCounts& earlier) const
    {
        HwCounts d;
        d.valid = valid && earlier.valid;
        auto sub = [](uint64_t a, uint64_t b) { return a > b ? a - b : 0; };
        d.cycles = sub(cycles, earlier.cycles);
        d.instructions = sub(instructions, earlier.instructions);
        d.llcRefs = sub(llcRefs, earlier.llcRefs);
        d.llcMisses = sub(llcMisses, earlier.llcMisses);
        d.stalledCycles = sub(stalledCycles, earlier.stalledCycles);
        return d;
    }
};

/**
 * The perf fds of one counted thread. open() attaches to the calling
 * thread; read() is thread-safe relative to the counted thread (perf
 * fds may be read from anywhere). Not copyable: the fds are owned.
 */
class HwThreadCounters
{
  public:
    HwThreadCounters() = default;
    ~HwThreadCounters() { close(); }

    HwThreadCounters(const HwThreadCounters&) = delete;
    HwThreadCounters& operator=(const HwThreadCounters&) = delete;

    /**
     * Open counters for the calling thread. False when the kernel
     * forbids it (see hwCountersAvailable) or PHLOEM_HWCOUNT=0; cycles
     * and instructions must both open for the set to count as valid,
     * the cache/stall events are best-effort (PMU-dependent).
     */
    bool open();

    /** Scaled cumulative counts; valid=false when not open. */
    HwCounts read() const;

    bool isOpen() const { return fds_[0] >= 0; }

    void close();

  private:
    static constexpr int kNumEvents = 5;
    int fds_[kNumEvents] = {-1, -1, -1, -1, -1};
};

/**
 * One-time probe: can this process open a perf counter at all?
 * The first failing probe emits a single warning naming the errno and
 * the perf_event_paranoid remedy; every later call is a cached load.
 * PHLOEM_HWCOUNT=0/off force-disables without warning.
 */
bool hwCountersAvailable();

/** Why counters are unavailable ("" when hwCountersAvailable()). */
const std::string& hwUnavailableReason();

/**
 * Portable resource usage, captured before/after a run and differenced.
 * Always available: this is the fallback observability floor when the
 * PMU is not.
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

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_HWCOUNT_H
