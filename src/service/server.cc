#include "service/server.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "base/logging.h"
#include "base/thread_name.h"
#include "ir/pipeline.h"
#include "metrics/metrics.h"
#include "runtime/sched.h"
#include "runtime/trace.h"
#include "sim/binding.h"

namespace phloem::svc {

namespace {

std::string
hex64(uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
closeFd(int& fd)
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

} // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cacheCapacity),
      window_(opts_.statsWindowSec > 0 ? opts_.statsWindowSec : 60)
{
}

Server::~Server() { stop(); }

bool
Server::start(std::string* err)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.socketPath.size() >= sizeof(addr.sun_path)) {
        if (err != nullptr) *err = "socket path too long";
        return false;
    }
    std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        if (err != nullptr) *err = std::strerror(errno);
        return false;
    }
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0) {
        if (errno == EADDRINUSE) {
            // Distinguish a live daemon from a stale socket file left by
            // a crash: if nobody accepts a connection, reclaim the path.
            int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
            bool alive =
                probe >= 0 &&
                ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                          sizeof addr) == 0;
            if (probe >= 0) ::close(probe);
            if (alive) {
                if (err != nullptr) {
                    *err = "another phloemd is already serving " +
                           opts_.socketPath;
                }
                closeFd(listenFd_);
                return false;
            }
            ::unlink(opts_.socketPath.c_str());
            if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) != 0) {
                if (err != nullptr) *err = std::strerror(errno);
                closeFd(listenFd_);
                return false;
            }
        } else {
            if (err != nullptr) *err = std::strerror(errno);
            closeFd(listenFd_);
            return false;
        }
    }
    if (::listen(listenFd_, 64) != 0) {
        if (err != nullptr) *err = std::strerror(errno);
        closeFd(listenFd_);
        ::unlink(opts_.socketPath.c_str());
        return false;
    }
    if (::pipe(wakePipe_) != 0) {
        if (err != nullptr) *err = std::strerror(errno);
        closeFd(listenFd_);
        ::unlink(opts_.socketPath.c_str());
        return false;
    }

    startNs_ = nowNs();
    int n = opts_.workers > 0 ? opts_.workers : 1;
    workers_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        workers_.emplace_back([this, i] {
            setCurrentThreadName("phl-svc/" + std::to_string(i));
            workerLoop();
        });
    }
    acceptor_ = std::thread([this] {
        setCurrentThreadName("phl-accept");
        acceptLoop();
    });
    return true;
}

void
Server::requestDrain()
{
    // Signal-handler path: only async-signal-safe operations here.
    draining_.store(true, std::memory_order_release);
    if (wakePipe_[1] >= 0) {
        char b = 'q';
        [[maybe_unused]] ssize_t r = ::write(wakePipe_[1], &b, 1);
    }
}

void
Server::acceptLoop()
{
    for (;;) {
        pollfd fds[2];
        fds[0] = {listenFd_, POLLIN, 0};
        fds[1] = {wakePipe_[0], POLLIN, 0};
        int r = ::poll(fds, 2, -1);
        if (r < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (draining_.load(std::memory_order_acquire)) break;
        if ((fds[0].revents & POLLIN) == 0) continue;
        int conn = ::accept(listenFd_, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR) continue;
            break;
        }
        std::lock_guard<std::mutex> lock(connMu_);
        pendingConns_.emplace_back(conn, nowNs());
        connCv_.notify_one();
    }
    std::lock_guard<std::mutex> lock(connMu_);
    acceptorDone_ = true;
    connCv_.notify_all();
}

void
Server::workerLoop()
{
    for (;;) {
        int fd = -1;
        double queuedAt = 0.0;
        {
            std::unique_lock<std::mutex> lock(connMu_);
            connCv_.wait(lock, [this] {
                return !pendingConns_.empty() || acceptorDone_;
            });
            if (pendingConns_.empty()) {
                if (acceptorDone_) return;
                continue;
            }
            fd = pendingConns_.front().first;
            queuedAt = pendingConns_.front().second;
            pendingConns_.pop_front();
        }
        serveConnection(fd, queuedAt);
        ::close(fd);
    }
}

void
Server::serveConnection(int fd, double queuedAtNs)
{
    // The accept-to-worker handoff delay charges the connection's first
    // request (later requests on the kept-alive connection waited in
    // the client, not in our queue).
    double queueWaitNs = nowNs() - queuedAtNs;
    if (queueWaitNs < 0) queueWaitNs = 0;
    for (;;) {
        // Wait for the next request in short slices so a drain can
        // close idle connections instead of blocking in read() forever.
        for (;;) {
            pollfd p{fd, POLLIN, 0};
            int r = ::poll(&p, 1, 100);
            if (r < 0 && errno != EINTR) return;
            if (r > 0) break;
            if (draining_.load(std::memory_order_acquire)) return;
        }

        std::string payload, err;
        ReadResult rr = readFrame(fd, &payload, &err);
        if (rr != ReadResult::kOk) return;

        Request req;
        Response resp;
        if (!Request::fromJson(payload, &req, &err)) {
            resp.ok = false;
            resp.error = "bad request: " + err;
        } else {
            resp = handleRequest(req, queueWaitNs);
        }
        if (req.op == "run") {
            // Fold the request into the live telemetry, keyed by cache
            // verdict so a cold-path regression stays attributable.
            std::string verdict = !resp.ok ? "error"
                                  : resp.cache.empty() ? "run"
                                                       : resp.cache;
            if (!resp.ok)
                stats_.runErrors.fetch_add(1,
                                           std::memory_order_relaxed);
            double now = nowNs();
            window_.observe(verdict, resp.totalNs,
                            static_cast<uint64_t>(now));
            std::lock_guard<std::mutex> g(stats_.mu);
            auto it = stats_.totalByVerdict.find(verdict);
            if (it == stats_.totalByVerdict.end()) {
                it = stats_.totalByVerdict
                         .emplace(verdict,
                                  metrics::Distribution(
                                      metrics::RollingWindow::
                                          defaultEdges()))
                         .first;
            }
            it->second.observe(resp.totalNs);
        }
        requestsServed_.fetch_add(1, std::memory_order_relaxed);
        if (!writeFrame(fd, resp.toJson(), &err)) return;
        if (req.op == "shutdown") return;
        queueWaitNs = 0.0;
    }
}

void
Server::fillHealth(Response* resp)
{
    resp->state = draining_.load(std::memory_order_acquire) ? "draining"
                                                            : "serving";
    resp->uptimeS = (nowNs() - startNs_) / 1e9;
    resp->inflight = stats_.inflight.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(connMu_);
        resp->queuedConns = static_cast<int64_t>(pendingConns_.size());
    }
    resp->workersTotal = static_cast<int>(workers_.size());
}

Response
Server::handleRequest(const Request& req, double queueWaitNs)
{
    Response resp;
    if (req.op == "ping") {
        resp.ok = true;
        return resp;
    }
    if (req.op == "health") {
        resp.ok = true;
        fillHealth(&resp);
        return resp;
    }
    if (req.op == "stats") {
        auto s = cache_.stats();
        resp.ok = true;
        resp.cacheHits = s.hits;
        resp.cacheMisses = s.misses;
        resp.cacheEvictions = s.evictions;
        resp.cacheEntries = s.entries;
        resp.requestsServed =
            requestsServed_.load(std::memory_order_relaxed);
        // Shared task pool counters: null until some native run
        // instantiated the pool (sim-only daemons never do).
        if (rt::Scheduler* sched = rt::Scheduler::sharedIfCreated()) {
            auto c = sched->counters();
            resp.schedPoolSize = sched->poolSize();
            resp.schedParks = c.parks;
            resp.schedUnparks = c.unparks;
            resp.schedSteals = c.steals;
            resp.schedYields = c.yields;
        }
        fillHealth(&resp);
        resp.reportJson = buildStatsReport();
        return resp;
    }
    if (req.op == "shutdown") {
        requestDrain();
        resp.ok = true;
        return resp;
    }
    return handleRun(req, queueWaitNs);
}

std::string
Server::buildStatsReport()
{
    metrics::Report report;
    report.meta["service"] = "phloemd";
    metrics::Run& run = report.run("phloemd", {{"source", "stats"}});
    metrics::MetricSet& top = run.top;

    auto cs = cache_.stats();
    top.addCounter("requests_served",
                   requestsServed_.load(std::memory_order_relaxed));
    top.addCounter("run_requests",
                   stats_.runRequests.load(std::memory_order_relaxed));
    top.addCounter("run_errors",
                   stats_.runErrors.load(std::memory_order_relaxed));
    top.addCounter("cache_hits", cs.hits);
    top.addCounter("cache_misses", cs.misses);
    top.addCounter("cache_evictions", cs.evictions);
    top.setGauge("cache_entries", static_cast<double>(cs.entries));
    uint64_t lookups = cs.hits + cs.misses;
    top.setGauge("cache_hit_rate",
                 lookups > 0
                     ? static_cast<double>(cs.hits) /
                           static_cast<double>(lookups)
                     : 0.0);
    top.setGauge("uptime_s", (nowNs() - startNs_) / 1e9);
    top.setGauge("inflight", static_cast<double>(stats_.inflight.load(
                                 std::memory_order_relaxed)));
    {
        std::lock_guard<std::mutex> lock(connMu_);
        top.setGauge("queued_conns",
                     static_cast<double>(pendingConns_.size()));
    }
    top.setGauge("workers", static_cast<double>(workers_.size()));
    top.setGauge("window_sec", static_cast<double>(window_.windowSec()));
    if (rt::Scheduler* sched = rt::Scheduler::sharedIfCreated()) {
        auto c = sched->counters();
        top.setGauge("sched_pool_size",
                     static_cast<double>(sched->poolSize()));
        top.addCounter("sched_parks", c.parks);
        top.addCounter("sched_unparks", c.unparks);
        top.addCounter("sched_steals", c.steals);
        top.addCounter("sched_yields", c.yields);
        top.addCounter("sched_tasks_started", c.tasksStarted);
    }

    // Latency distributions per cache verdict, in two scopes: the live
    // rolling window ("what is slow now") and the cumulative totals
    // ("what has this process served") — the latter doubles as the
    // drain report.
    metrics::Family& lat = run.families["latency"];
    auto emit = [&lat](const std::string& verdict,
                       const std::string& scope,
                       const metrics::Distribution& d) {
        metrics::MetricSet& ms =
            lat.at({{"verdict", verdict}, {"scope", scope}});
        ms.dists["latency_ns"] = d;
        ms.addCounter("count", d.total);
        ms.setGauge("mean_ns", d.mean());
        ms.setGauge("p50_ns", d.quantile(0.50));
        ms.setGauge("p95_ns", d.quantile(0.95));
        ms.setGauge("p99_ns", d.quantile(0.99));
    };
    auto snap = window_.snapshot(static_cast<uint64_t>(nowNs()));
    for (const auto& [verdict, d] : snap.byKind)
        emit(verdict, "window", d);
    emit("all", "window", snap.total);
    {
        std::lock_guard<std::mutex> g(stats_.mu);
        metrics::Distribution all_total(
            metrics::RollingWindow::defaultEdges());
        for (const auto& [verdict, d] : stats_.totalByVerdict) {
            emit(verdict, "total", d);
            all_total.merge(d);
        }
        emit("all", "total", all_total);
    }

    // Window-level headline gauges so quick consumers (phloem-top, the
    // CI smoke) can skip the family walk.
    top.setGauge("window_requests",
                 static_cast<double>(snap.total.total));
    top.setGauge("window_rps",
                 static_cast<double>(snap.total.total) /
                     static_cast<double>(window_.windowSec()));
    top.setGauge("window_p50_ns", snap.total.quantile(0.50));
    top.setGauge("window_p95_ns", snap.total.quantile(0.95));
    top.setGauge("window_p99_ns", snap.total.quantile(0.99));
    uint64_t whits = 0, wlookups = 0;
    for (const auto& [verdict, d] : snap.byKind) {
        if (verdict == "hit") whits += d.total;
        if (verdict == "hit" || verdict == "miss") wlookups += d.total;
    }
    top.setGauge("window_hit_rate",
                 wlookups > 0 ? static_cast<double>(whits) /
                                    static_cast<double>(wlookups)
                              : 0.0);
    return metrics::toJson(report);
}

Response
Server::handleRun(const Request& req, double queueWaitNs)
{
    Response resp;
    double t0 = nowNs();
    resp.requestId =
        "r-" + std::to_string(nextRequestId_.fetch_add(
                   1, std::memory_order_relaxed));
    stats_.runRequests.fetch_add(1, std::memory_order_relaxed);
    stats_.inflight.fetch_add(1, std::memory_order_relaxed);
    struct InflightGuard
    {
        ServerStats& s;
        ~InflightGuard()
        {
            s.inflight.fetch_sub(1, std::memory_order_relaxed);
        }
    } inflight_guard{stats_};

    // Request-scoped tracing: a per-request Tracer whose wall-ns time
    // axis is shared by the service spans below and the runtime's stall
    // spans (RuntimeOptions.tracer). Native only — sim traces run on
    // the simulated-cycle timebase, which cannot share an axis with
    // service wall time. The epoch starts here, after the connection's
    // queue wait ended, so that wait is recorded as [0, wait] on its
    // own lane.
    std::unique_ptr<trace::Tracer> tracer;
    trace::TraceBuffer* svc = nullptr;
    if (req.trace && !opts_.traceDir.empty() && req.backend != "sim") {
        tracer =
            std::make_unique<trace::Tracer>(trace::Timebase::kWallNs);
        tracer->setMeta("request_id", resp.requestId);
        if (queueWaitNs > 0) {
            trace::TraceBuffer* qw =
                tracer->addWorker("svc-queue", /*is_stage=*/false);
            qw->record(trace::EventKind::kSvcQueueWait, -1, 0,
                       static_cast<uint64_t>(queueWaitNs));
        }
        svc = tracer->addWorker("service", /*is_stage=*/false);
    }

    driver::CompileSpec spec;
    spec.source = req.source;
    spec.kernelName = req.kernel;
    spec.opts.numStages = req.stages;
    spec.opts.maxRAs = opts_.cfg.maxRAs;
    spec.opts.maxQueues = opts_.cfg.maxQueues;

    std::string key = cacheKey(opts_.cfg, spec);
    driver::CompiledPipelinePtr cp;
    bool hit = false;
    std::string fe_err;
    // The compile lambda runs on this worker thread (we are the flight
    // leader) or not at all (a follower rides the leader's compile), so
    // recording its span on `svc` keeps the ring single-writer.
    auto compile_fn = [&] {
        uint64_t c0 = svc != nullptr ? svc->now() : 0;
        auto p = driver::compileSource(spec, &fe_err);
        if (svc != nullptr)
            svc->record(trace::EventKind::kSvcCompile, -1, c0,
                        svc->now());
        return p;
    };
    uint64_t l0 = svc != nullptr ? svc->now() : 0;
    if (req.noCache) {
        resp.cache = "bypass";
        cp = compile_fn();
    } else {
        cp = cache_.getOrCompile(key, compile_fn, &hit);
        resp.cache = hit ? "hit" : "miss";
    }
    if (svc != nullptr)
        svc->record(trace::EventKind::kSvcCacheLookup, -1, l0,
                    svc->now());
    // Trace files are written even for failed requests: "why did this
    // request fail/stall" is exactly when the spans matter.
    auto finish_trace = [&] {
        if (tracer == nullptr) return;
        tracer->setMeta("cache", resp.cache);
        std::string path =
            opts_.traceDir + "/req-" + resp.requestId + ".trace.json";
        std::string terr;
        if (tracer->writeJson(path, &terr))
            resp.tracePath = path;
        else
            phloem_warn("request trace write failed: ", terr);
    };
    if (cp == nullptr) {
        resp.ok = false;
        resp.error = "compile failed: " + fe_err;
        resp.totalNs = nowNs() - t0;
        finish_trace();
        return resp;
    }
    if (!cp->ok()) {
        resp.ok = false;
        resp.error = !cp->error.empty()
                         ? "compile failed: " + cp->error
                         : "compile failed: " +
                               (cp->compiled.problems.empty()
                                    ? std::string("no pipeline produced")
                                    : cp->compiled.problems.front());
        resp.totalNs = nowNs() - t0;
        finish_trace();
        return resp;
    }
    if (!hit) resp.compileNs = cp->compileNs;
    resp.stages = static_cast<int>(cp->compiled.pipeline->stages.size());

    driver::RunSpec run;
    run.backend = req.backend == "sim" ? driver::Backend::kSim
                                       : driver::Backend::kNative;
    run.size = std::min<int64_t>(req.size, opts_.maxRunSize);
    run.cfg = opts_.cfg;
    run.requestId = resp.requestId;
    run.tracer = tracer.get();
    if (run.backend == driver::Backend::kSim) {
        // The simulated machine must host one SMT thread per stage
        // (times replicas); scale cores up for wide pipelines rather
        // than rejecting them — the daemon serves arbitrary kernels.
        int threads =
            static_cast<int>(cp->compiled.pipeline->stages.size()) *
            std::max(1, cp->compiled.pipeline->replicas);
        int per_core = std::max(1, run.cfg.threadsPerCore);
        int cores = (threads + per_core - 1) / per_core;
        if (cores > run.cfg.numCores) run.cfg.numCores = cores;
    }

    sim::Binding binding;
    driver::ExecOutcome out;
    uint64_t r0 = svc != nullptr ? svc->now() : 0;
    try {
        driver::synthesizeBinding(*cp->kernel.fn, run.size, binding);
        out = driver::runCompiled(*cp, run, binding);
    } catch (const std::exception& e) {
        resp.ok = false;
        resp.error = std::string("run failed: ") + e.what();
        resp.totalNs = nowNs() - t0;
        finish_trace();
        return resp;
    }
    if (svc != nullptr)
        svc->record(trace::EventKind::kSvcRun, -1, r0, svc->now());
    resp.ok = out.ok;
    if (!out.ok) resp.error = out.error;
    resp.runNs = out.runNs;
    resp.outputHash = hex64(driver::hashBinding(binding));
    resp.instructions = run.backend == driver::Backend::kSim
                            ? out.sim.totalInstructions()
                            : out.native.totalInstructions();
    resp.totalNs = nowNs() - t0;
    finish_trace();
    return resp;
}

void
Server::wait()
{
    if (acceptor_.joinable()) acceptor_.join();
    for (auto& w : workers_) {
        if (w.joinable()) w.join();
    }
}

void
Server::stop()
{
    if (stopped_.exchange(true)) return;
    requestDrain();
    wait();
    closeFd(listenFd_);
    closeFd(wakePipe_[0]);
    closeFd(wakePipe_[1]);
    if (!opts_.socketPath.empty()) ::unlink(opts_.socketPath.c_str());
}

} // namespace phloem::svc
