/**
 * @file
 * Wire protocol of the phloemd compilation service.
 *
 * Framing: every message (request or response) is one frame:
 *
 *   bytes 0..3   magic "PHLO"      (rejects a stray non-phloem client)
 *   bytes 4..7   payload length, uint32 little-endian, <= kMaxFrameBytes
 *   bytes 8..    payload: one UTF-8 JSON document
 *
 * Length-prefixed framing keeps the stream self-synchronizing over a
 * Unix-domain socket (no sentinel scanning, no ambiguity about where a
 * pretty-printed JSON document ends) and lets the server bound memory
 * per connection before reading a byte of payload. The payload reuses
 * metrics::Json so the daemon has exactly one JSON implementation.
 *
 * Requests (`op` selects the verb):
 *   "run"       compile (or cache-hit) and execute a kernel
 *   "stats"     report cache/server counters plus a schema-versioned
 *               metrics::Report snapshot (rolling-window latency
 *               distributions per cache verdict, gauges, sched counters)
 *               embedded as the nested "report" object
 *   "health"    cheap liveness summary: state, uptime, in-flight and
 *               queued gauges (no report, no cache walk)
 *   "ping"      liveness probe
 *   "shutdown"  ask the server to drain and exit (same path as SIGTERM)
 *
 * A connection carries any number of sequential request/response pairs;
 * the server never pipelines responses out of order.
 */

#ifndef PHLOEM_SERVICE_PROTOCOL_H
#define PHLOEM_SERVICE_PROTOCOL_H

#include <cstdint>
#include <string>

namespace phloem::svc {

/** Frame header magic, on the wire as 'P' 'H' 'L' 'O'. */
inline constexpr char kFrameMagic[4] = {'P', 'H', 'L', 'O'};
/** Max payload size; a run request is source text, so 8 MiB is ample. */
inline constexpr uint32_t kMaxFrameBytes = 8u * 1024u * 1024u;

/**
 * Write one frame (header + payload) to `fd`, retrying on EINTR and
 * short writes. False + *err on I/O failure.
 */
bool writeFrame(int fd, const std::string& payload, std::string* err);

enum class ReadResult : uint8_t
{
    kOk,
    kEof,   ///< clean close before any header byte
    kError, ///< I/O failure, bad magic, oversized or truncated frame
};

/**
 * Read one frame from `fd` into *payload. kEof only when the peer
 * closed cleanly between frames; a close mid-frame is kError.
 */
ReadResult readFrame(int fd, std::string* payload, std::string* err);

/** One decoded client request. */
struct Request
{
    std::string op = "run"; ///< "run"|"stats"|"health"|"ping"|"shutdown"

    // op == "run" fields.
    std::string source;          ///< mini-C kernel text
    std::string kernel;          ///< function name; empty = first
    std::string backend = "native"; ///< "native" | "sim"
    int stages = 4;              ///< target stage count
    int64_t size = 4096;         ///< synthetic input size
    bool noCache = false;        ///< bypass the pipeline cache
    /**
     * Ask for a request-scoped trace: the server runs this request
     * under a per-request Tracer and writes req-<id>.trace.json under
     * its --trace-dir (ignored, with a response note, when the daemon
     * has no trace dir). The file carries service spans (queue wait,
     * cache lookup, compile, run) and the runtime's stall spans on one
     * time axis, tagged with the server-assigned request id.
     */
    bool trace = false;

    std::string toJson() const;
    /** False + *err on malformed JSON or a structurally bad request. */
    static bool fromJson(const std::string& text, Request* out,
                         std::string* err);
};

/** One server response. */
struct Response
{
    bool ok = false;
    std::string error;

    /** Server-assigned request id ("r-<hex>", run ops only). */
    std::string requestId;
    /** Path of the request-scoped trace file ("" when not traced). */
    std::string tracePath;

    /** "hit" | "miss" | "bypass" ("" for non-run ops). */
    std::string cache;
    double compileNs = 0.0; ///< 0 on a cache hit
    double runNs = 0.0;
    double totalNs = 0.0;   ///< server-side request latency
    /** driver::hashBinding of the output image, as 16 hex digits. */
    std::string outputHash;
    int stages = 0;
    uint64_t instructions = 0;

    // op == "stats" fields.
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t cacheEvictions = 0;
    uint64_t cacheEntries = 0;
    uint64_t requestsServed = 0;

    /**
     * Shared task-pool counters, cumulative over the daemon's life
     * (op == "stats", zero until a native run created the pool). All
     * native requests share one fixed-size pool, so these are global,
     * not per-request.
     */
    int schedPoolSize = 0;
    uint64_t schedParks = 0;
    uint64_t schedUnparks = 0;
    uint64_t schedSteals = 0;
    uint64_t schedYields = 0;

    /**
     * op == "stats": the live telemetry snapshot — a serialized
     * metrics::Report (schema-versioned; rolling-window + cumulative
     * latency distributions per cache verdict, gauges, counters). On
     * the wire it is the nested "report" object; here it is kept as
     * its JSON text so protocol.h does not depend on metrics.h — feed
     * it to metrics::parseReport.
     */
    std::string reportJson;

    // op == "health" fields (also echoed by "stats").
    std::string state;      ///< "serving" | "draining"
    double uptimeS = 0.0;
    int64_t inflight = 0;   ///< run requests currently executing
    int64_t queuedConns = 0;///< accepted connections awaiting a worker
    int workersTotal = 0;   ///< service worker-pool size

    std::string toJson() const;
    static bool fromJson(const std::string& text, Response* out,
                         std::string* err);
};

} // namespace phloem::svc

#endif // PHLOEM_SERVICE_PROTOCOL_H
