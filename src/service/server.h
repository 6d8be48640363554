/**
 * @file
 * The phloemd server: a long-lived pipeline-compilation + execution
 * service over a Unix-domain socket.
 *
 * Threading model:
 *  - one acceptor thread polls {listen fd, self-pipe} and pushes
 *    accepted connections onto a queue;
 *  - a bounded pool of worker threads pops connections and serves each
 *    one's sequential request/response frames (protocol.h), compiling
 *    through the PipelineCache and executing via driver::runCompiled.
 *
 * One connection occupies one worker for its lifetime, so `workers`
 * bounds both concurrent executions and concurrent connections — the
 * natural admission control for a CPU-bound service (excess
 * connections queue in the accept backlog).
 *
 * Shutdown is a drain, not an abort: requestDrain() is async-signal
 * safe (an atomic store plus one write() to the self-pipe, both
 * signal-safe), so the SIGTERM handler can call it directly. The
 * acceptor then stops accepting, in-flight requests finish, idle
 * connections close, and wait() returns. The same path serves the
 * protocol's "shutdown" op. A deadlocked run fails as soon as every
 * replica waits; one that keeps computing is bounded by the per-worker
 * instruction budget alone, and the drain waits for it.
 */

#ifndef PHLOEM_SERVICE_SERVER_H
#define PHLOEM_SERVICE_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/rolling.h"
#include "service/cache.h"
#include "service/protocol.h"
#include "sim/config.h"

namespace phloem::svc {

struct ServerOptions
{
    std::string socketPath;
    /** Worker pool size = max concurrent connections/executions. */
    int workers = 4;
    /** Pipeline cache capacity (entries); 0 disables caching. */
    size_t cacheCapacity = 32;
    /** Machine configuration every request compiles and runs against. */
    sim::SysConfig cfg = sim::SysConfig::scaledEval();
    /** Upper bound on a request's synthetic input size. */
    int64_t maxRunSize = 1 << 22;
    /**
     * Directory for request-scoped traces (req-<id>.trace.json). Empty
     * disables per-request tracing: a request's `trace` flag is then
     * ignored. Must exist; the server does not create it.
     */
    std::string traceDir;
    /** Rolling telemetry window for the stats verb, in seconds. */
    int statsWindowSec = 60;
};

/**
 * Live server telemetry, designed to be read coherently while workers
 * update it: the scalar counters/gauges are atomics (single-word reads
 * can't tear), and the latency aggregates — the rolling window and the
 * cumulative per-verdict distributions — sit behind their own locks
 * (RollingWindow locks internally; `mu` guards `totalByVerdict`). The
 * stats verb therefore snapshots without stopping the worker pool.
 */
struct ServerStats
{
    std::atomic<uint64_t> runRequests{0};
    std::atomic<uint64_t> runErrors{0};
    /** Run requests currently executing (gauge). */
    std::atomic<int64_t> inflight{0};

    std::mutex mu;
    /** Cumulative request-latency distributions keyed by cache verdict
     *  ("hit"/"miss"/"bypass"/"error") — the final drain report. */
    std::map<std::string, metrics::Distribution> totalByVerdict;
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /**
     * Bind the socket and start the acceptor + worker threads.
     * False + *err if the socket path cannot be bound (e.g. a live
     * daemon already owns it).
     */
    bool start(std::string* err);

    /**
     * Begin draining: stop accepting, let in-flight requests finish.
     * Async-signal-safe — callable from a SIGTERM handler.
     */
    void requestDrain();

    /** Block until the drain completes and all threads have joined. */
    void wait();

    /** requestDrain() + wait() + unlink the socket. Idempotent. */
    void stop();

    PipelineCache::Stats cacheStats() const { return cache_.stats(); }
    uint64_t requestsServed() const
    {
        return requestsServed_.load(std::memory_order_relaxed);
    }

    /**
     * The stats-verb payload: a serialized metrics::Report holding the
     * rolling-window and cumulative latency distributions per cache
     * verdict, hit rates, scheduler counters, and the in-flight /
     * queued gauges. Safe to call while the server is live (see
     * ServerStats); also used for the final drain report.
     */
    std::string buildStatsReport();

  private:
    void acceptLoop();
    void workerLoop();
    void serveConnection(int fd, double queuedAtNs);
    Response handleRequest(const Request& req, double queueWaitNs);
    Response handleRun(const Request& req, double queueWaitNs);
    void fillHealth(Response* resp);

    ServerOptions opts_;
    PipelineCache cache_;
    int listenFd_ = -1;
    int wakePipe_[2] = {-1, -1}; ///< self-pipe: [0] read, [1] write
    std::atomic<bool> draining_{false};
    std::atomic<bool> stopped_{false};
    std::atomic<uint64_t> requestsServed_{0};
    std::atomic<uint64_t> nextRequestId_{1};
    double startNs_ = 0.0;

    ServerStats stats_;
    metrics::RollingWindow window_;

    std::thread acceptor_;
    std::vector<std::thread> workers_;

    std::mutex connMu_;
    std::condition_variable connCv_;
    /** Accepted connections awaiting a worker: (fd, enqueue time ns). */
    std::deque<std::pair<int, double>> pendingConns_;
    bool acceptorDone_ = false;
};

} // namespace phloem::svc

#endif // PHLOEM_SERVICE_SERVER_H
