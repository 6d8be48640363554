/**
 * @file
 * The service-mix workload: an in-process phloemd Server driven by two
 * closed-loop clients over its Unix socket. Each request names a kernel
 * drawn, with Zipf-skewed popularity, from a pool larger than the
 * server's pipeline cache, so misses compile, insert and evict while
 * hits only look up. Every response's output hash is checked against a
 * serial reference computed once per kernel.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "base/rng.h"
#include "bench.h"
#include "compiler/compiler.h"
#include "driver/compile_service.h"
#include "frontend/frontend.h"
#include "inputs.h"
#include "runtime/runtime.h"
#include "service/client.h"
#include "service/server.h"
#include "stats.h"
#include "taco/taco.h"
#include "testing/progen.h"
#include "workloads/workload.h"

namespace perfbench {

namespace {

using namespace phloem;

/** Service workers and load threads (closed-loop clients). */
constexpr int kServerWorkers = 2;
constexpr int kClients = 2;
/** Pause between the serial baselines measured alongside the load. */
constexpr int kSerialPauseMs = 50;
/**
 * Seed of the generated kernels. Fixed, not the run's --seed: generated
 * kernels differ ~10x in compile and run cost, which would swamp every
 * seed-to-seed comparison. The run's seed draws the request stream.
 */
constexpr uint64_t kPoolSeed = 1;

struct PoolKernel
{
    std::string name;
    std::string source;
    int stages = 4;
    ir::FunctionPtr fn;
    std::string refHash;
    /** Dynamic instructions of the serial reference run (deterministic). */
    uint64_t instructions = 0;
};

PoolKernel
poolKernel(std::string name, std::string source, int stages = 4)
{
    PoolKernel k;
    k.name = std::move(name);
    k.source = std::move(source);
    k.stages = stages;
    return k;
}

struct Shape
{
    int64_t size;
    /** Generated kernels in the pool, and their serial cost band. */
    int progen;
    uint64_t minInstructions, maxInstructions;
    size_t cache;
};

Shape
shapeOf(const RunArgs& args)
{
    // Small requests keep hits cheap; the pool is twice the cache. The
    // band keeps the generated kernels' cost alike from seed to seed.
    if (args.tiny)
        return {64, 3, 1000, 50'000, 4};
    return {256, 8, 10'000, 100'000, 7};
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * One serial reference run of a pool kernel on its synthesized input.
 * Returns the output hash; *ns gets the run's wall time. Empty (with
 * *err) when the run fails.
 */
std::string
serialRun(const PoolKernel& k, int64_t size, SpanLog& log, double* ns,
          std::string* err)
{
    sim::Binding b;
    {
        Timed t(log, "driver.synthesizeBinding");
        driver::synthesizeBinding(*k.fn, size, b);
    }
    rt::Runtime runtime(sim::SysConfig::scaledEval(), rt::RuntimeOptions{});
    Timed t(log, "runtime.runSerial");
    rt::NativeStats st = runtime.runSerial(*k.fn, b);
    *ns = t.stop();
    if (!st.ok) {
        *err = "serial run failed " + st.error;
        return "";
    }
    return hex64(driver::hashBinding(b));
}

/**
 * Compile one pool kernel through every layer the service uses and
 * compute its reference output hash from a serial native run. False
 * when the kernel does not compile or run cleanly at this size.
 */
bool
prepare(PoolKernel& k, int64_t size, SpanLog& log, std::string* err)
{
    ir::FunctionPtr fn;
    try {
        Timed t(log, "frontend.compileKernel");
        fn = fe::compileKernel(k.source).fn;
    } catch (const std::exception& e) {
        *err = e.what();
        return false;
    }
    comp::CompileOptions opts;
    opts.numStages = k.stages;
    {
        Timed t(log, "compiler.compilePipeline");
        if (!comp::compilePipeline(*fn, opts).ok()) {
            *err = "no pipeline";
            return false;
        }
    }
    driver::CompileSpec spec;
    spec.source = k.source;
    spec.opts = opts;
    {
        Timed t(log, "driver.compileSource");
        auto cp = driver::compileSource(spec, err);
        if (cp == nullptr || !cp->ok())
            return false;
    }
    k.fn = std::move(fn);
    // The reference: the first run's hash, which the second must repeat.
    rt::Runtime runtime(sim::SysConfig::scaledEval(), rt::RuntimeOptions{});
    double ns = 0;
    k.refHash = serialRun(k, size, log, &ns, err);
    if (k.refHash.empty() || serialRun(k, size, log, &ns, err) != k.refHash) {
        *err = "serial reference is not reproducible " + *err;
        return false;
    }
    sim::Binding b;
    driver::synthesizeBinding(*k.fn, size, b);
    k.instructions = runtime.runSerial(*k.fn, b).totalInstructions();
    return true;
}

std::vector<PoolKernel>
buildPool(const RunArgs& args, SpanLog& log, Result& out)
{
    Shape shape = shapeOf(args);
    std::vector<PoolKernel> pool;
    pool.push_back(poolKernel("spmv", readFile(args.root + "/examples/spmv.c")));
    for (const auto& t : taco::paperKernels())
        if (t.name != "taco_sddmm")
            pool.push_back(poolKernel(t.name, t.source));
    // bfs, prd, spmm and taco_sddmm size their buffers from the data's
    // structure and index out of bounds on synthesized inputs, so they
    // are left out.
    for (const auto& w : wl::mainSuite())
        if (w.name == "cc" || w.name == "radii")
            pool.push_back(poolKernel(w.name, w.serialSrc, w.maxThreads));
    for (auto& k : pool) {
        std::string err;
        out.count(prepare(k, shape.size, log, &err),
                  k.name + ": reference failed: " + err);
    }
    // Generated kernels fill the cold end of the pool; only those whose
    // serial run falls in the shape's instruction band are kept.
    fuzz::GenLimits limits;
    limits.allowReplication = false;
    limits.maxTopStmts = 10;
    limits.maxBlockStmts = 5;
    limits.maxExprDepth = 4;
    size_t fixed = pool.size();
    for (uint64_t i = 0; pool.size() < fixed + static_cast<size_t>(shape.progen);
         ++i) {
        if (i > 256)
            throw std::runtime_error("no compilable generated kernels");
        fuzz::FuzzCase fc =
            fuzz::generateCase(fuzz::caseSeed(kPoolSeed, i), limits);
        PoolKernel k = poolKernel("progen_" + std::to_string(i), fc.source(),
                                  fc.knobs.numStages);
        std::string err;
        if (prepare(k, shape.size, log, &err) &&
            k.instructions >= shape.minInstructions &&
            k.instructions <= shape.maxInstructions)
            pool.push_back(std::move(k));
    }
    return pool;
}

/** Zipf(1) draws over pool ranks: rank r has weight 1 / (r + 1). */
std::vector<int>
drawRequests(uint64_t seed, size_t pool, size_t count)
{
    std::vector<double> cdf(pool);
    double total = 0;
    for (size_t r = 0; r < pool; ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        cdf[r] = total;
    }
    Rng rng(subSeed(seed, 8));
    std::vector<int> seq(count);
    for (auto& s : seq) {
        double u = rng.nextDouble() * total;
        auto r = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
        s = static_cast<int>(std::min<ptrdiff_t>(r, static_cast<ptrdiff_t>(pool) - 1));
    }
    return seq;
}

struct Sample
{
    int kernel = 0;
    bool hit = false;
    double rtNs = 0, totalNs = 0, compileNs = 0, runNs = 0;
};

struct ClientState
{
    SpanLog* log = nullptr;
    std::vector<Sample> samples;
    int64_t attempted = 0, failed = 0;
    std::string firstError;
};

/** One closed-loop client: send the next request once the last returned. */
void
clientLoop(const std::string& socket, const std::vector<PoolKernel>& pool,
           const std::vector<int>& seq, std::atomic<size_t>& next,
           int64_t deadline, int64_t size, ClientState* cs)
{
    svc::Client client;
    std::string err;
    if (!client.connect(socket, &err)) {
        ++cs->attempted;
        ++cs->failed;
        cs->firstError = "connect: " + err;
        return;
    }
    while (nowNs() < deadline) {
        size_t idx = next.fetch_add(1);
        int kernel = seq[idx % seq.size()];
        const PoolKernel& k = pool[static_cast<size_t>(kernel)];
        svc::Request req;
        req.source = k.source;
        req.stages = k.stages;
        req.size = size;
        svc::Response resp;
        Timed call(*cs->log, "service.call", static_cast<int64_t>(idx));
        bool transport = client.call(req, &resp, &err);
        double rt = call.stop();
        ++cs->attempted;
        if (!transport || !resp.ok || resp.outputHash != k.refHash) {
            ++cs->failed;
            if (cs->firstError.empty()) {
                cs->firstError =
                    k.name + ": " +
                    (!transport ? "transport: " + err
                     : !resp.ok ? resp.error
                                : "output hash " + resp.outputHash +
                                      " != reference " + k.refHash);
            }
            if (!transport)
                return;
            continue;
        }
        cs->samples.push_back({kernel, resp.cache == "hit", rt, resp.totalNs,
                               resp.compileNs, resp.runNs});
    }
}

svc::Response
serverStats(const std::string& socket)
{
    svc::Client client;
    svc::Request req;
    req.op = "stats";
    svc::Response resp;
    std::string err;
    if (!client.connect(socket, &err) || !client.call(req, &resp, &err))
        throw std::runtime_error("stats request failed: " + err);
    return resp;
}

struct PhaseSamples
{
    std::vector<Sample> samples;
    /** Per pool kernel: serial reference runs measured during the phase. */
    std::vector<std::vector<double>> serialNs;
    double seconds = 0;
    svc::Response before, after;
    /** Whole-process usage around the phase (server, clients, serial runs). */
    rusage ruBefore{}, ruAfter{};
};

double
cpuNs(const rusage& ru)
{
    auto ns = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1e9 +
               static_cast<double>(tv.tv_usec) * 1e3;
    };
    return ns(ru.ru_utime) + ns(ru.ru_stime);
}

void
absorb(const ClientState& cs, Result& out)
{
    out.attempted += cs.attempted;
    out.failed += cs.failed;
    if (!cs.firstError.empty())
        out.errors.push_back(cs.firstError);
}

} // namespace

void
runServiceMix(const RunArgs& args, Result& out, Trace& trace)
{
    SpanLog& log = trace.add(args.trace);
    Shape shape = shapeOf(args);
    std::string socket =
        args.runDir + "/phloemd-" + std::to_string(getpid()) + ".sock";

    std::vector<double> setup_s;
    std::vector<PoolKernel> pool;
    std::unique_ptr<svc::Server> server;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (server != nullptr)
            server->stop();
        int64_t t0 = nowNs();
        pool = buildPool(args, log, out);
        svc::ServerOptions so;
        so.socketPath = socket;
        so.workers = kServerWorkers;
        so.cacheCapacity = shape.cache;
        server = std::make_unique<svc::Server>(so);
        std::string err;
        {
            Timed t(log, "service.start");
            if (!server->start(&err))
                throw std::runtime_error("server start: " + err);
        }
        // Untimed warm-up request; creates the shared runtime pool.
        svc::Client client;
        svc::Request req;
        req.source = pool.front().source;
        req.size = shape.size;
        svc::Response resp;
        bool ok = client.connect(socket, &err) &&
                  client.call(req, &resp, &err) && resp.ok;
        out.count(ok, "warm-up request: " + err + resp.error);
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    std::vector<int> seq = drawRequests(args.seed, pool.size(), 1 << 16);
    std::atomic<size_t> next{0};
    {
        // Fill the cache from the stream itself before timing.
        SpanLog quiet;
        ClientState cs;
        cs.log = &quiet;
        clientLoop(socket, pool, seq, next, nowNs() + 500'000'000LL,
                   shape.size, &cs);
        absorb(cs, out);
    }

    std::vector<PhaseSamples> phases;
    for (const Phase& phase : measurePhases(args)) {
        PhaseSamples ps;
        std::vector<ClientState> clients(kClients);
        for (auto& c : clients)
            c.log = &trace.add(phase.traced);
        ps.before = serverStats(socket);
        getrusage(RUSAGE_SELF, &ps.ruBefore);
        int64_t t0 = nowNs();
        int64_t deadline = t0 + static_cast<int64_t>(phase.seconds * 1e9);
        std::vector<std::thread> threads;
        for (auto& c : clients)
            threads.emplace_back(clientLoop, std::cref(socket),
                                 std::cref(pool), std::cref(seq),
                                 std::ref(next), deadline, shape.size, &c);
        // Serial baselines, measured alongside the load so that they see
        // the same host speed phases as the requests they are compared
        // with; each run also re-checks the reference output.
        SpanLog& slog = phase.traced ? log : trace.add(false);
        ps.serialNs.resize(pool.size());
        for (size_t i = 0; nowNs() < deadline; ++i) {
            const PoolKernel& k = pool[i % pool.size()];
            double ns = 0;
            std::string err;
            bool same = serialRun(k, shape.size, slog, &ns, &err) == k.refHash;
            out.count(same, k.name + ": serial reference changed " + err);
            ps.serialNs[i % pool.size()].push_back(ns);
            std::this_thread::sleep_for(std::chrono::milliseconds(kSerialPauseMs));
        }
        for (auto& t : threads)
            t.join();
        ps.seconds = static_cast<double>(nowNs() - t0) / 1e9;
        getrusage(RUSAGE_SELF, &ps.ruAfter);
        ps.after = serverStats(socket);
        for (const auto& c : clients) {
            absorb(c, out);
            ps.samples.insert(ps.samples.end(), c.samples.begin(),
                              c.samples.end());
        }
        phases.push_back(std::move(ps));
    }
    {
        Timed t(log, "service.stop");
        server->stop();
    }
    auto& m = out.metrics;
    const PhaseSamples& base = phases.front();
    const PhaseSamples& tr = phases.back();
    m["setup_s"] = median(setup_s);
    // Per-kernel sums keep each kernel's weight fixed, whatever order
    // the seed draws the requests in.
    auto times_of = [&](const PhaseSamples& ps) {
        std::vector<KernelTimes> times(pool.size());
        for (const auto& s : ps.samples) {
            auto& t = times[static_cast<size_t>(s.kernel)];
            t.pipelineNs.push_back(s.runNs);
            t.opNs.push_back(s.rtNs);
        }
        for (size_t k = 0; k < pool.size(); ++k)
            times[k].serialNs = ps.serialNs[k];
        return times;
    };
    std::vector<KernelTimes> times = times_of(base);
    size_t hits = 0;
    for (const auto& s : base.samples)
        hits += s.hit ? 1 : 0;
    std::fprintf(stderr,
                 "service-mix: %zu kernels, cache %zu, %zu requests in %.1f s, "
                 "%zu hits\n",
                 pool.size(), shape.cache, base.samples.size(), base.seconds,
                 hits);
    addTimingMetrics(times, static_cast<double>(base.samples.size()),
                     base.seconds, out);
    for (size_t k = 0; k < pool.size(); ++k) {
        const auto& t = times[k];
        std::fprintf(stderr,
                     "  %-14s n=%5zu round trip p10 %8.3f p50 %8.3f ms  run "
                     "p10 %8.3f ms  serial p10 %8.3f ms\n",
                     pool[k].name.c_str(), t.opNs.size(),
                     percentile(t.opNs, 10) / 1e6, median(t.opNs) / 1e6,
                     percentile(t.pipelineNs, 10) / 1e6,
                     percentile(t.serialNs, 10) / 1e6);
    }

    std::vector<double> hit_ms, miss_ms, transport, compile, run_ms;
    for (const auto& s : tr.samples) {
        (s.hit ? hit_ms : miss_ms).push_back(s.rtNs / 1e6);
        transport.push_back((s.rtNs - s.totalNs) / 1e6);
        run_ms.push_back(s.runNs / 1e6);
        if (!s.hit)
            compile.push_back(s.compileNs / 1e6);
    }
    m["service.hit_ms_p50"] = median(hit_ms);
    m["service.hit_ms_p95"] = percentile(hit_ms, 95);
    m["service.miss_ms_p50"] = median(miss_ms);
    m["service.miss_ms_p95"] = percentile(miss_ms, 95);
    m["service.transport_ms"] = median(transport);
    m["service.compile_ms"] = median(compile);
    m["service.run_ms"] = median(run_ms);
    double reqs = std::max<double>(1.0, static_cast<double>(tr.samples.size()));
    m["service.hit_ratio"] = static_cast<double>(hit_ms.size()) / reqs;
    m["service.evictions"] = static_cast<double>(tr.after.cacheEvictions -
                                                 tr.before.cacheEvictions);
    // The stats verb's shared-pool counters are cumulative over the
    // server's life; report them per request of the traced phase.
    auto per_req = [&](uint64_t after, uint64_t before) {
        return static_cast<double>(after - before) / reqs;
    };
    m["runtime.parks"] = per_req(tr.after.schedParks, tr.before.schedParks);
    m["runtime.unparks"] =
        per_req(tr.after.schedUnparks, tr.before.schedUnparks);
    m["runtime.steals"] = per_req(tr.after.schedSteals, tr.before.schedSteals);
    m["runtime.yields"] = per_req(tr.after.schedYields, tr.before.schedYields);
    // The server, its workers and the clients share this process, so
    // its rusage covers the service path (and the serial baselines).
    m["runtime.ctx_switches_vol"] = per_req(
        static_cast<uint64_t>(tr.ruAfter.ru_nvcsw),
        static_cast<uint64_t>(tr.ruBefore.ru_nvcsw));
    m["runtime.ctx_switches_invol"] = per_req(
        static_cast<uint64_t>(tr.ruAfter.ru_nivcsw),
        static_cast<uint64_t>(tr.ruBefore.ru_nivcsw));
    m["runtime.cpu_per_wall"] =
        (cpuNs(tr.ruAfter) - cpuNs(tr.ruBefore)) / (tr.seconds * 1e9);
    addSpanMetrics(trace, static_cast<double>(tr.samples.size()),
                   times_of(base), times_of(tr), out);
}

} // namespace perfbench
