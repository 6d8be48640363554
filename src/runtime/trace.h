/**
 * @file
 * Run-wide stall-attribution tracing for both execution backends.
 *
 * The paper's performance arguments (queue sizing, bottleneck stages,
 * RA overlap) are about *where time goes*; post-hoc counters say how
 * often a worker blocked, not when or for how long. This subsystem
 * records timestamped events — enq-block, deq-block, barrier wait, RA
 * service bursts, halt, sampled queue occupancy — into one fixed-size
 * ring per worker and serializes them post-run as Chrome `trace_event`
 * JSON loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
 *
 * Timebase unification: the native backend stamps events with
 * monotonic wall-clock nanoseconds since the tracer's creation; the
 * simulator stamps them with simulated cycles. The serializer maps
 * both onto the trace `ts` axis (1 us <- 1000 ns, or 1 us <- 1 cycle)
 * so the two backends' runs of the same pipeline are visually
 * comparable lane-for-lane.
 *
 * Concurrency contract: buffers are registered from the coordinating
 * thread before workers start, each ring is written only by its owning
 * worker (single-writer, no atomics, overwriting the oldest event when
 * full), and serialization happens after every worker has joined. The
 * off path is zero-cost: every hook sits behind an inlined null check
 * of a plain pointer, hooks live only on blocked/cold paths, and no
 * atomic or clock is touched when tracing is disabled.
 */

#ifndef PHLOEM_RUNTIME_TRACE_H
#define PHLOEM_RUNTIME_TRACE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace phloem::trace {

/** Unit of event timestamps (selected per backend). */
enum class Timebase : uint8_t {
    kWallNs,    ///< native runtime: monotonic ns since tracer creation
    kSimCycles, ///< simulator: simulated cycles
};

enum class EventKind : uint8_t {
    kEnqBlock,    ///< producer waited on a full ring     [span]
    kDeqBlock,    ///< consumer waited on an empty ring   [span]
    kBarrierWait, ///< stage waited at a kBarrier         [span]
    kRaService,   ///< scan RA streamed a burst           [span, arg=n]
    kHalt,        ///< worker halted                      [instant]
    kQueueOcc,    ///< sampled queue occupancy            [counter, arg=occ]

    // Service-side spans (phloemd request lifecycle). Recorded on a
    // per-request tracer's "service" lane so a request's queue wait,
    // cache lookup, compile, and run share one time axis with the
    // runtime stall spans the run produced.
    kSvcQueueWait,  ///< connection waited for a service worker  [span]
    kSvcCacheLookup,///< pipeline-cache probe                    [span]
    kSvcCompile,    ///< cache-miss compile (single-flight)      [span]
    kSvcRun,        ///< native execution of the request         [span]
};

const char* eventKindName(EventKind k);

struct Event
{
    EventKind kind = EventKind::kHalt;
    /** Absolute queue id, or -1 when not queue-related. */
    int32_t queue = -1;
    /** Timebase units (see Timebase). end == begin for instants. */
    uint64_t begin = 0;
    uint64_t end = 0;
    /** kRaService: elements in the burst; kQueueOcc: occupancy. */
    uint64_t arg = 0;
};

class Tracer;

/**
 * One worker's event ring. Single-writer: only the owning worker
 * records, and readers (serializer, post-mortem) run after it joined.
 * When the ring fills, the oldest events are overwritten — the
 * post-mortem wants the *trailing* history.
 */
class TraceBuffer
{
  public:
    TraceBuffer(const Tracer* owner, std::string name, bool is_stage,
                size_t capacity);

    const std::string& workerName() const { return name_; }
    bool isStage() const { return isStage_; }
    /** Total events recorded (>= retained when the ring wrapped). */
    uint64_t recorded() const { return head_; }
    size_t retained() const;

    void
    record(EventKind kind, int32_t queue, uint64_t begin, uint64_t end,
           uint64_t arg = 0)
    {
        Event& e = ring_[static_cast<size_t>(head_ % ring_.size())];
        e.kind = kind;
        e.queue = queue;
        e.begin = begin;
        e.end = end;
        e.arg = arg;
        head_++;
    }

    /** Current timestamp in the owning tracer's timebase (native). */
    uint64_t now() const;

    /** Retained events, oldest first. */
    template <typename Fn>
    void
    forEachRetained(Fn&& fn) const
    {
        uint64_t first = head_ > ring_.size()
                             ? head_ - static_cast<uint64_t>(ring_.size())
                             : 0;
        for (uint64_t i = first; i < head_; ++i)
            fn(ring_[static_cast<size_t>(i % ring_.size())]);
    }

    /** The trailing `n` events, oldest first (post-mortem dumps). */
    std::vector<Event> lastN(size_t n) const;

  private:
    const Tracer* owner_;
    std::string name_;
    bool isStage_;
    std::vector<Event> ring_;
    /** Total events ever recorded; ring index is head_ % capacity. */
    uint64_t head_ = 0;
};

/**
 * One tracing session: owns the per-worker buffers and the timebase,
 * serializes Chrome trace JSON, and renders the deadlock post-mortem.
 * Construct one per traced run and pass it through RuntimeOptions
 * (native) or MachineOptions (simulator); a null tracer disables every
 * hook.
 */
class Tracer
{
  public:
    /** Events retained per worker ring by default. */
    static constexpr size_t kDefaultCapacity = 16384;

    explicit Tracer(Timebase tb, size_t capacity = kDefaultCapacity);

    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    Timebase timebase() const { return tb_; }

    /**
     * Register one worker's buffer. Must be called before the worker
     * starts (buffer registration is not thread-safe; records are).
     * The returned buffer is owned by the tracer and stays valid for
     * its lifetime.
     */
    TraceBuffer* addWorker(const std::string& name, bool is_stage);

    /**
     * Attach a key/value pair serialized into the trace's "otherData"
     * object (e.g. request_id, cache verdict). Call from the
     * coordinating thread before/after the run, not concurrently with
     * toJson().
     */
    void setMeta(const std::string& key, const std::string& value);

    /** Monotonic timestamp for kWallNs sessions (ns since creation). */
    uint64_t
    now() const
    {
        return static_cast<uint64_t>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now()
                           .time_since_epoch())
                       .count()) -
               epochNs_;
    }

    const std::vector<std::unique_ptr<TraceBuffer>>& buffers() const
    {
        return buffers_;
    }

    /** Serialize every buffer as Chrome trace_event JSON. */
    std::string toJson() const;

    /** toJson() to a file; false (and *err) on I/O failure. */
    bool writeJson(const std::string& path, std::string* err = nullptr) const;

    /**
     * Human-readable trailing history: each worker's last `last_n`
     * events, one line per event. Appended to the deadlock monitor's
     * post-mortem alongside the residual-occupancy report.
     */
    std::string postMortem(size_t last_n = 8) const;

  private:
    Timebase tb_;
    size_t capacity_;
    uint64_t epochNs_;
    std::vector<std::unique_ptr<TraceBuffer>> buffers_;
    /** Insertion-ordered (key, value) pairs for "otherData". */
    std::vector<std::pair<std::string, std::string>> meta_;
};

inline uint64_t
TraceBuffer::now() const
{
    return owner_->now();
}

} // namespace phloem::trace

#endif // PHLOEM_RUNTIME_TRACE_H
