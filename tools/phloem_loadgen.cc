/**
 * @file
 * phloem-loadgen — concurrent load generator for the phloemd service.
 *
 * Drives N client threads against a running daemon, cycling each
 * through a pool of distinct kernels (a hand-written SpMV plus
 * deterministic fuzz-generated kernels), so the run exercises both
 * cold compiles and compiled-pipeline cache hits:
 *
 *   phloemd --socket=/tmp/phloemd.sock &
 *   phloem-loadgen --socket=/tmp/phloemd.sock --clients=8 \
 *       --requests=25 --report=loadgen.json
 *
 * Per-request latency is measured client-side around the full round
 * trip and classified by the server's cache verdict ("hit" vs "miss").
 * Results flow through the unified metrics model: a "loadgen" run whose
 * "latency" family has one point per request kind, each holding a
 * log-spaced latency_ns distribution with p50/p95/p99 gauges, plus
 * top-level throughput and hit-rate gauges — all in the same
 * schema-versioned phloem-report JSON the CI perf gate reads.
 *
 * Exit status: 0 when every request succeeded, 1 otherwise.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "metrics/collect.h"
#include "metrics/metrics.h"
#include "service/client.h"
#include "testing/progen.h"

namespace {

using namespace phloem;

constexpr const char* kSpmvSource = R"(#pragma phloem
void spmv(const int* restrict row, const int* restrict col,
          const double* restrict val, const double* restrict x,
          double* restrict y, int n) {
    for (int i = 0; i < n; i++) {
        double sum = 0.0;
        int start = row[i];
        int end = row[i + 1];
        for (int k = start; k < end; k++) {
            sum = sum + val[k] * x[col[k]];
        }
        y[i] = sum;
    }
}
)";

struct KernelSpec
{
    std::string name;
    std::string source;
    int stages = 4;
};

struct Options
{
    std::string socket;
    int clients = 4;
    int requests = 25;  ///< per client
    int kernels = 4;    ///< distinct kernels in the pool
    int stages = 0;     ///< 0 = per-kernel default; else force this many
    std::string backend = "native";
    int64_t size = 2048;
    uint64_t seed = 1;
    std::string reportPath;
    /** Set Request.trace on each client's first request (the cold
     *  compile): the daemon then writes req-<id>.trace.json under its
     *  --trace-dir with service + runtime spans for that request. */
    bool trace = false;
};

/** One measured request. */
struct Sample
{
    double latencyNs = 0.0;
    bool hit = false;
    int kernel = 0; ///< index into the kernel pool
};

struct ClientResult
{
    std::vector<Sample> samples;
    int errors = 0;
    std::string firstError;
    /** Server-side trace path of this client's traced request. */
    std::string tracePath;
};

double
nowNs()
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::vector<KernelSpec>
buildKernelPool(const Options& opt)
{
    std::vector<KernelSpec> pool;
    pool.push_back({"spmv", kSpmvSource, 4});
    fuzz::GenLimits limits;
    limits.allowReplication = false; // keep the pool uniform across sizes
    // Bigger-than-smoke kernels: compile cost should look like real
    // irregular kernels (the cache's value proposition), not one-liners.
    limits.maxTopStmts = 10;
    limits.maxBlockStmts = 5;
    limits.maxExprDepth = 4;
    for (int i = 1; i < opt.kernels; ++i) {
        fuzz::FuzzCase fc = fuzz::generateCase(
            fuzz::caseSeed(opt.seed, static_cast<uint64_t>(i)), limits);
        pool.push_back({"fuzz_" + std::to_string(fc.seed), fc.source(),
                        fc.knobs.numStages});
    }
    if (opt.stages > 0) {
        // Force wide pipelines regardless of the kernels' own choices:
        // the oversubscription smoke wants stage count x concurrency to
        // far exceed the host's cores.
        for (auto& k : pool) k.stages = opt.stages;
    }
    return pool;
}

void
clientLoop(const Options& opt, const std::vector<KernelSpec>& pool,
           int client_id, ClientResult* result)
{
    svc::Client client;
    std::string err;
    if (!client.connect(opt.socket, &err)) {
        result->errors = opt.requests;
        result->firstError = "connect: " + err;
        return;
    }
    for (int r = 0; r < opt.requests; ++r) {
        int kernel_idx =
            static_cast<int>(static_cast<size_t>(client_id + r) %
                             pool.size());
        const KernelSpec& k = pool[static_cast<size_t>(kernel_idx)];
        svc::Request req;
        req.op = "run";
        req.source = k.source;
        req.backend = opt.backend;
        req.stages = k.stages;
        req.size = opt.size;
        req.trace = opt.trace && r == 0;
        svc::Response resp;
        double t0 = nowNs();
        bool transport_ok = client.call(req, &resp, &err);
        double t1 = nowNs();
        if (!transport_ok || !resp.ok) {
            ++result->errors;
            if (result->firstError.empty()) {
                result->firstError =
                    transport_ok ? resp.error : "transport: " + err;
            }
            if (!transport_ok) return; // connection is gone
            continue;
        }
        if (!resp.tracePath.empty() && result->tracePath.empty())
            result->tracePath = resp.tracePath;
        result->samples.push_back(
            {t1 - t0, resp.cache == "hit", kernel_idx});
    }
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: phloem-loadgen --socket=PATH [options]\n"
        "\n"
        "options:\n"
        "  --socket=PATH    phloemd socket to drive (required)\n"
        "  --clients=N      concurrent client threads (default 4)\n"
        "  --requests=N     requests per client (default 25)\n"
        "  --kernels=N      distinct kernels in the pool (default 4)\n"
        "  --stages=N       force every kernel to N stages (default: "
        "per-kernel)\n"
        "  --backend=B      native | sim (default native)\n"
        "  --size=N         synthetic input size (default 2048)\n"
        "  --seed=N         base seed for fuzz kernels (default 1)\n"
        "  --report=PATH    write a phloem-report JSON\n"
        "  --trace          request a per-request trace for each "
        "client's\n"
        "                   first request (needs phloemd --trace-dir)\n");
}

bool
parseInt(const char* s, long long* out)
{
    char* end = nullptr;
    long long v = std::strtoll(s, &end, 10);
    if (end == nullptr || *end != '\0' || end == s) return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto val = [&arg](const char* name) -> const char* {
            size_t n = std::strlen(name);
            if (arg.compare(0, n, name) == 0 && arg.size() > n &&
                arg[n] == '=') {
                return arg.c_str() + n + 1;
            }
            return nullptr;
        };
        long long n = 0;
        if (const char* v = val("--socket")) {
            opt.socket = v;
        } else if (const char* v = val("--clients")) {
            if (!parseInt(v, &n) || n < 1 || n > 256) {
                std::fprintf(stderr, "loadgen: bad --clients\n");
                return 2;
            }
            opt.clients = static_cast<int>(n);
        } else if (const char* v = val("--requests")) {
            if (!parseInt(v, &n) || n < 1) {
                std::fprintf(stderr, "loadgen: bad --requests\n");
                return 2;
            }
            opt.requests = static_cast<int>(n);
        } else if (const char* v = val("--kernels")) {
            if (!parseInt(v, &n) || n < 1 || n > 64) {
                std::fprintf(stderr, "loadgen: bad --kernels\n");
                return 2;
            }
            opt.kernels = static_cast<int>(n);
        } else if (const char* v = val("--stages")) {
            if (!parseInt(v, &n) || n < 1 || n > 64) {
                std::fprintf(stderr, "loadgen: bad --stages\n");
                return 2;
            }
            opt.stages = static_cast<int>(n);
        } else if (const char* v = val("--backend")) {
            opt.backend = v;
            if (opt.backend != "native" && opt.backend != "sim") {
                std::fprintf(stderr, "loadgen: bad --backend\n");
                return 2;
            }
        } else if (const char* v = val("--size")) {
            if (!parseInt(v, &n) || n < 1) {
                std::fprintf(stderr, "loadgen: bad --size\n");
                return 2;
            }
            opt.size = n;
        } else if (const char* v = val("--seed")) {
            if (!parseInt(v, &n) || n < 0) {
                std::fprintf(stderr, "loadgen: bad --seed\n");
                return 2;
            }
            opt.seed = static_cast<uint64_t>(n);
        } else if (const char* v = val("--report")) {
            opt.reportPath = v;
        } else if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "loadgen: unknown option %s\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }
    if (opt.socket.empty()) {
        usage();
        return 2;
    }

    std::string err;
    if (!svc::waitForServer(opt.socket, 10000, &err)) {
        std::fprintf(stderr, "loadgen: no server at %s: %s\n",
                     opt.socket.c_str(), err.c_str());
        return 1;
    }

    std::vector<KernelSpec> pool = buildKernelPool(opt);
    std::printf("loadgen: %d clients x %d requests over %zu kernels "
                "(backend=%s, size=%lld)\n",
                opt.clients, opt.requests, pool.size(),
                opt.backend.c_str(),
                static_cast<long long>(opt.size));
    std::fflush(stdout);

    std::vector<ClientResult> results(
        static_cast<size_t>(opt.clients));
    double t0 = nowNs();
    {
        std::vector<std::thread> threads;
        threads.reserve(results.size());
        for (int c = 0; c < opt.clients; ++c) {
            threads.emplace_back(clientLoop, std::cref(opt),
                                 std::cref(pool), c, &results[c]);
        }
        for (auto& t : threads) t.join();
    }
    double wall_ns = nowNs() - t0;

    // ---- Aggregate into the metrics model. --------------------------
    const std::vector<double> edges =
        metrics::logSpacedEdges(1e3, 1e10, 4);
    metrics::Report report;
    report.meta["tool"] = "phloem-loadgen";
    report.meta["backend"] = opt.backend;
    metrics::Run& run = report.run("loadgen", {{"backend", opt.backend}});

    metrics::Distribution hit_d(edges), cold_d(edges);
    int errors = 0;
    std::string first_error;
    for (const auto& res : results) {
        errors += res.errors;
        if (first_error.empty()) first_error = res.firstError;
        for (const auto& s : res.samples) {
            (s.hit ? hit_d : cold_d).observe(s.latencyNs);
        }
    }
    uint64_t total = hit_d.total + cold_d.total;

    auto fill = [&run, &edges](const char* kind,
                               const metrics::Distribution& d) {
        metrics::MetricSet& point =
            run.families["latency"].at({{"kind", kind}});
        point.dist("latency_ns", edges).merge(d);
        point.addCounter("requests", d.total);
        point.setGauge("p50_ns", d.quantile(0.50));
        point.setGauge("p95_ns", d.quantile(0.95));
        point.setGauge("p99_ns", d.quantile(0.99));
        point.setGauge("mean_ns", d.mean());
    };
    fill("hit", hit_d);
    fill("cold", cold_d);

    run.top.addCounter("requests", total);
    run.top.addCounter("errors", static_cast<uint64_t>(errors));
    run.top.setGauge("wall_ns", wall_ns);
    run.top.setGauge("clients", opt.clients);
    double rps = wall_ns > 0 ? static_cast<double>(total) /
                                   (wall_ns / 1e9)
                             : 0.0;
    run.top.setGauge("requests_per_sec", rps);
    double hit_rate =
        total > 0 ? static_cast<double>(hit_d.total) /
                        static_cast<double>(total)
                  : 0.0;
    run.top.setGauge("cache_hit_rate", hit_rate);
    double speedup = hit_d.total > 0 && cold_d.total > 0 &&
                             hit_d.quantile(0.50) > 0
                         ? cold_d.quantile(0.50) / hit_d.quantile(0.50)
                         : 0.0;
    run.top.setGauge("cold_over_hit_p50", speedup);

    // Same-kernel speedup: for every kernel that saw both a cold
    // compile and cache hits, compare its cold latency against its
    // median hit latency, then take the median over kernels. This is
    // the apples-to-apples form of the cache benefit — the aggregate
    // p50 ratio above mixes kernels of very different run costs.
    std::vector<double> per_kernel;
    for (size_t k = 0; k < pool.size(); ++k) {
        double cold_min = 0.0;
        std::vector<double> hits;
        for (const auto& res : results) {
            for (const auto& s : res.samples) {
                if (s.kernel != static_cast<int>(k)) continue;
                if (s.hit) {
                    hits.push_back(s.latencyNs);
                } else if (cold_min == 0.0 || s.latencyNs < cold_min) {
                    cold_min = s.latencyNs;
                }
            }
        }
        if (cold_min <= 0.0 || hits.empty()) continue;
        std::nth_element(hits.begin(), hits.begin() + hits.size() / 2,
                         hits.end());
        double hit_med = hits[hits.size() / 2];
        if (hit_med > 0.0) per_kernel.push_back(cold_min / hit_med);
    }
    double same_kernel_speedup = 0.0;
    if (!per_kernel.empty()) {
        std::nth_element(per_kernel.begin(),
                         per_kernel.begin() + per_kernel.size() / 2,
                         per_kernel.end());
        same_kernel_speedup = per_kernel[per_kernel.size() / 2];
    }
    run.top.setGauge("same_kernel_speedup", same_kernel_speedup);

    // Server-side cache counters, so the report shows the daemon's view
    // (single-flight waiters count as hits there too).
    {
        svc::Client c;
        svc::Request stats;
        stats.op = "stats";
        svc::Response resp;
        if (c.connect(opt.socket, &err) && c.call(stats, &resp, &err) &&
            resp.ok) {
            run.top.addCounter("server_cache_hits", resp.cacheHits);
            run.top.addCounter("server_cache_misses", resp.cacheMisses);
            run.top.addCounter("server_cache_evictions",
                               resp.cacheEvictions);
            run.top.setGauge("server_cache_entries",
                             static_cast<double>(resp.cacheEntries));
            // Shared task-pool counters: all native requests multiplex
            // onto one fixed pool, one task per replica, so the daemon
            // runs concurrency x stages stage contexts without spawning
            // that many threads; parks count waits across replicas.
            if (resp.schedPoolSize > 0) {
                run.top.setGauge("sched_pool_size",
                                 static_cast<double>(resp.schedPoolSize));
                run.top.addCounter("sched_parks", resp.schedParks);
                run.top.addCounter("sched_unparks", resp.schedUnparks);
                run.top.addCounter("sched_steals", resp.schedSteals);
                run.top.addCounter("sched_yields", resp.schedYields);
            }
            // Cross-check: the daemon's own rolling-window view of the
            // burst we just drove, straight from the stats-verb report.
            // Client latency includes the socket round trip, so the
            // server's percentiles sit at or below ours; hit rates
            // should agree (the window still covers the whole burst
            // when the run is shorter than the window).
            metrics::Report sreport;
            std::string perr;
            const metrics::Run* srun = nullptr;
            if (!resp.reportJson.empty() &&
                metrics::parseReport(resp.reportJson, &sreport, &perr)) {
                for (const auto& r : sreport.runs)
                    if (r.name == "phloemd") { srun = &r; break; }
            }
            if (srun != nullptr) {
                auto sg = [srun](const char* name) {
                    auto it = srun->top.gauges.find(name);
                    return it != srun->top.gauges.end() ? it->second
                                                        : 0.0;
                };
                run.top.setGauge("server_window_requests",
                                 sg("window_requests"));
                run.top.setGauge("server_window_p50_ns",
                                 sg("window_p50_ns"));
                run.top.setGauge("server_window_p95_ns",
                                 sg("window_p95_ns"));
                run.top.setGauge("server_window_hit_rate",
                                 sg("window_hit_rate"));
                metrics::Distribution all_d(edges);
                all_d.merge(hit_d);
                all_d.merge(cold_d);
                std::printf(
                    "loadgen: server window: %.0f requests, p95 "
                    "%.3f ms, hit rate %.1f%% (client-side p95 "
                    "%.3f ms, hit rate %.1f%%)\n",
                    sg("window_requests"),
                    sg("window_p95_ns") / 1e6,
                    sg("window_hit_rate") * 100.0,
                    all_d.quantile(0.95) / 1e6, hit_rate * 100.0);
            }
        }
    }

    if (opt.trace) {
        int traced = 0;
        std::string first_trace;
        for (const auto& res : results) {
            if (res.tracePath.empty()) continue;
            ++traced;
            if (first_trace.empty()) first_trace = res.tracePath;
        }
        if (traced > 0) {
            std::printf("loadgen: %d request traces written (e.g. %s)\n",
                        traced, first_trace.c_str());
        } else {
            std::fprintf(stderr,
                         "loadgen: --trace requested but the server "
                         "returned no trace paths (is phloemd running "
                         "with --trace-dir?)\n");
        }
    }

    std::printf("loadgen: %llu ok (%d errors) in %.1f ms, %.1f req/s\n",
                static_cast<unsigned long long>(total), errors,
                wall_ns / 1e6, rps);
    std::printf("loadgen: cold  p50 %.3f ms  p95 %.3f ms  p99 %.3f ms "
                "(%llu requests)\n",
                cold_d.quantile(0.50) / 1e6, cold_d.quantile(0.95) / 1e6,
                cold_d.quantile(0.99) / 1e6,
                static_cast<unsigned long long>(cold_d.total));
    std::printf("loadgen: hit   p50 %.3f ms  p95 %.3f ms  p99 %.3f ms "
                "(%llu requests, hit rate %.1f%%)\n",
                hit_d.quantile(0.50) / 1e6, hit_d.quantile(0.95) / 1e6,
                hit_d.quantile(0.99) / 1e6,
                static_cast<unsigned long long>(hit_d.total),
                hit_rate * 100.0);
    std::printf("loadgen: cold/hit p50 speedup %.1fx, same-kernel "
                "median %.1fx (target >= 5)\n",
                speedup, same_kernel_speedup);
    if (errors > 0) {
        std::fprintf(stderr, "loadgen: first error: %s\n",
                     first_error.c_str());
    }

    if (!opt.reportPath.empty()) {
        if (!metrics::writeFile(report, opt.reportPath, &err)) {
            std::fprintf(stderr, "loadgen: report write failed: %s\n",
                         err.c_str());
            return 1;
        }
        std::printf("loadgen: metrics report written to %s\n",
                    opt.reportPath.c_str());
    }
    return errors > 0 ? 1 : 0;
}
