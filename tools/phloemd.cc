/**
 * @file
 * phloemd — the long-lived Phloem pipeline-compilation + execution
 * daemon.
 *
 * Serves compile+run requests over a Unix-domain socket (see
 * src/service/protocol.h for the framed protocol), caching compiled
 * pipelines across requests so repeated kernels skip the frontend ->
 * passes -> flatten path entirely:
 *
 *   phloemd --socket=/tmp/phloemd.sock --workers=4 &
 *   phloem-loadgen --socket=/tmp/phloemd.sock --clients=8
 *
 * SIGTERM/SIGINT drain gracefully: accepting stops, in-flight requests
 * run to completion, then the process exits 0 after printing final
 * cache statistics.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/server.h"

namespace {

using namespace phloem;

svc::Server* g_server = nullptr;

void
onSignal(int)
{
    // requestDrain() is async-signal-safe by contract (atomic store +
    // one pipe write).
    if (g_server != nullptr) g_server->requestDrain();
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: phloemd --socket=PATH [options]\n"
        "\n"
        "options:\n"
        "  --socket=PATH     Unix-domain socket to serve (required)\n"
        "  --workers=N       worker threads = max concurrent requests "
        "(default 4)\n"
        "  --cache=N         compiled-pipeline cache capacity (default "
        "32; 0 disables)\n"
        "  --cores=N         simulated cores in the machine config "
        "(default 1)\n"
        "  --max-size=N      clamp per-request input size (default "
        "4194304)\n"
        "  --trace-dir=DIR   write per-request traces "
        "(req-<id>.trace.json) for requests that set trace=true; the "
        "directory must exist (default: tracing disabled)\n"
        "  --window=SEC      rolling telemetry window for the stats "
        "verb (default 60)\n");
}

bool
parseInt(const std::string& s, long long* out)
{
    char* end = nullptr;
    long long v = std::strtoll(s.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || end == s.c_str()) return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    svc::ServerOptions opts;
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
            opts.socketPath = v;
        } else if (const char* v = val("--workers")) {
            if (!parseInt(v, &n) || n < 1 || n > 64) {
                std::fprintf(stderr, "phloemd: bad --workers\n");
                return 2;
            }
            opts.workers = static_cast<int>(n);
        } else if (const char* v = val("--cache")) {
            if (!parseInt(v, &n) || n < 0) {
                std::fprintf(stderr, "phloemd: bad --cache\n");
                return 2;
            }
            opts.cacheCapacity = static_cast<size_t>(n);
        } else if (const char* v = val("--cores")) {
            if (!parseInt(v, &n) || n < 1 || n > 64) {
                std::fprintf(stderr, "phloemd: bad --cores\n");
                return 2;
            }
            opts.cfg = sim::SysConfig::scaledEval(static_cast<int>(n));
        } else if (const char* v = val("--max-size")) {
            if (!parseInt(v, &n) || n < 1) {
                std::fprintf(stderr, "phloemd: bad --max-size\n");
                return 2;
            }
            opts.maxRunSize = n;
        } else if (const char* v = val("--trace-dir")) {
            opts.traceDir = v;
        } else if (const char* v = val("--window")) {
            if (!parseInt(v, &n) || n < 1 || n > 3600) {
                std::fprintf(stderr, "phloemd: bad --window\n");
                return 2;
            }
            opts.statsWindowSec = static_cast<int>(n);
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "phloemd: unknown option %s\n",
                         arg.c_str());
            usage();
            return 2;
        }
    }
    if (opts.socketPath.empty()) {
        usage();
        return 2;
    }

    svc::Server server(opts);
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "phloemd: %s\n", err.c_str());
        return 1;
    }
    g_server = &server;

    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);

    std::printf("phloemd: serving %s (workers=%d, cache=%zu)\n",
                opts.socketPath.c_str(), opts.workers,
                opts.cacheCapacity);
    std::fflush(stdout);

    server.wait();

    auto s = server.cacheStats();
    std::printf("phloemd: drained after %llu requests "
                "(cache: %llu hits, %llu misses, %llu evictions)\n",
                static_cast<unsigned long long>(server.requestsServed()),
                static_cast<unsigned long long>(s.hits),
                static_cast<unsigned long long>(s.misses),
                static_cast<unsigned long long>(s.evictions));
    g_server = nullptr;
    server.stop();
    return 0;
}
