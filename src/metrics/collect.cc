#include "metrics/collect.h"

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "base/hash.h"
#include "base/logging.h"
#include "ir/op.h"

namespace phloem::metrics {

namespace {

/** Batch-size histogram edges matching rt::QueueStats's log2 buckets. */
const std::vector<double> kBatchEdges = {2, 4, 8, 16, 32, 64, 128};

/**
 * Run the accounting checks and enforce the policy: loud warnings in
 * debug builds, throw under PHLOEM_STRICT_STATS=1 in any build.
 */
void
enforce(const std::vector<std::string>& problems, const char* what)
{
    if (problems.empty())
        return;
#if defined(NDEBUG)
    if (!strictStats())
        return;
#endif
    for (const auto& p : problems)
        phloem_warn("stats self-consistency (", what, "): ", p);
    if (strictStats()) {
        std::string all = "PHLOEM_STRICT_STATS: inconsistent ";
        all += what;
        all += " stats:";
        for (const auto& p : problems)
            all += "\n  " + p;
        throw std::runtime_error(all);
    }
}

std::string
fmtDouble(double v)
{
    std::ostringstream oss;
    oss << v;
    return oss.str();
}

} // namespace

bool
strictStats()
{
    const char* v = std::getenv("PHLOEM_STRICT_STATS");
    if (v == nullptr)
        return false;
    return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
           std::strcmp(v, "on") == 0;
}

std::vector<std::string>
checkSimStats(const sim::RunStats& stats)
{
    std::vector<std::string> problems;
    for (const auto& t : stats.threads) {
        if (t.cycles < t.startCycle) {
            problems.push_back("thread '" + t.name + "': cycles (" +
                               std::to_string(t.cycles) +
                               ") < startCycle (" +
                               std::to_string(t.startCycle) + ")");
            continue;
        }
        double total = static_cast<double>(t.cycles - t.startCycle);
        double busy =
            t.issueCycles + t.queueStallCycles + t.frontendCycles;
        // Tolerate double-accumulation rounding, not real overruns.
        double slack = 1e-9 * total + 1e-6;
        if (busy > total + slack) {
            problems.push_back(
                "thread '" + t.name + "': issue (" +
                fmtDouble(t.issueCycles) + ") + queue-stall (" +
                fmtDouble(t.queueStallCycles) + ") + frontend (" +
                fmtDouble(t.frontendCycles) + ") = " + fmtDouble(busy) +
                " exceeds active cycles " + fmtDouble(total) +
                "; backendCycles() would clamp a negative residual");
        }
    }
    for (const auto& q : stats.queues) {
        if (q.enq != q.deq + q.residual) {
            problems.push_back(
                "queue " + std::to_string(q.id) + ": pushes (" +
                std::to_string(q.enq) + ") != pops (" +
                std::to_string(q.deq) + ") + residual (" +
                std::to_string(q.residual) + ")");
        }
    }
    return problems;
}

std::vector<std::string>
checkNativeStats(const rt::NativeStats& stats)
{
    std::vector<std::string> problems;
    for (const auto& q : stats.queues) {
        const std::string name = "queue " + std::to_string(q.id) + ": ";
        if (q.enq != q.deq + q.residual) {
            problems.push_back(name + "pushes (" + std::to_string(q.enq) +
                               ") != pops (" + std::to_string(q.deq) +
                               ") + residual (" +
                               std::to_string(q.residual) + ")");
        }
        // A ring never holds more than its capacity, at any time or at
        // the end of the run.
        const auto cap = static_cast<uint64_t>(q.capacity);
        if (q.maxOccupancy > cap) {
            problems.push_back(name + "max occupancy (" +
                               std::to_string(q.maxOccupancy) +
                               ") > capacity (" + std::to_string(cap) +
                               ")");
        }
        if (q.residual > cap) {
            problems.push_back(name + "residual (" +
                               std::to_string(q.residual) +
                               ") > capacity (" + std::to_string(cap) +
                               ")");
        }
    }
    return problems;
}

Run
simRunToMetrics(const std::string& name, const sim::RunStats& stats,
                const sim::EnergyBreakdown* energy)
{
    enforce(checkSimStats(stats), "sim");

    Run run;
    run.name = name;
    run.labels["backend"] = "sim";

    MetricSet& top = run.top;
    top.setGauge("cycles", static_cast<double>(stats.cycles));
    top.setGauge("thread_cycles", stats.totalThreadCycles());
    top.setGauge("issue_cycles", stats.totalIssueCycles());
    top.setGauge("queue_stall_cycles", stats.totalQueueStallCycles());
    top.setGauge("frontend_cycles", stats.totalFrontendCycles());
    top.setGauge("backend_cycles", stats.totalBackendCycles());
    top.addCounter("instructions", stats.totalInstructions());
    top.addCounter("uops", stats.totalUops());
    top.addCounter("queue_ops", stats.totalQueueOps());
    top.addCounter("ra_elements", stats.totalRAElements());
    top.addCounter("ra_mem_accesses", stats.totalRAMemAccesses());
    top.addCounter("l1_hits", stats.mem.l1Hits);
    top.addCounter("l2_hits", stats.mem.l2Hits);
    top.addCounter("l3_hits", stats.mem.l3Hits);
    top.addCounter("dram_accesses", stats.mem.dramAccesses);
    top.addCounter("deadlocks", stats.deadlock ? 1 : 0);
    if (energy != nullptr) {
        top.setGauge("energy_core_mj", energy->coreDynamic);
        top.setGauge("energy_cache_mj", energy->cache);
        top.setGauge("energy_dram_mj", energy->dram);
        top.setGauge("energy_static_mj", energy->staticEnergy);
        top.setGauge("energy_total_mj", energy->total());
    }

    Family& stages = run.families["stage"];
    for (const auto& t : stats.threads) {
        MetricSet& ms = stages.at(
            {{"stage", t.name}, {"core", std::to_string(t.core)}});
        ms.addCounter("uops", t.uops);
        ms.addCounter("instructions", t.instructions);
        ms.addCounter("loads", t.loads);
        ms.addCounter("stores", t.stores);
        ms.addCounter("queue_ops", t.queueOps);
        ms.addCounter("branches", t.branches);
        ms.addCounter("mispredicts", t.mispredicts);
        ms.setGauge("cycles",
                    static_cast<double>(t.cycles - t.startCycle));
        ms.setGauge("issue_cycles", t.issueCycles);
        ms.setGauge("queue_stall_cycles", t.queueStallCycles);
        ms.setGauge("frontend_cycles", t.frontendCycles);
        ms.setGauge("backend_cycles", t.backendCycles());
    }

    if (!stats.queues.empty()) {
        Family& queues = run.families["queue"];
        for (const auto& q : stats.queues) {
            MetricSet& ms = queues.at({{"queue", std::to_string(q.id)}});
            ms.addCounter("enq", q.enq);
            ms.addCounter("deq", q.deq);
            ms.addCounter("residual", q.residual);
        }
    }

    if (!stats.ras.empty()) {
        Family& ras = run.families["ra"];
        int idx = 0;
        for (const auto& r : stats.ras) {
            MetricSet& ms = ras.at({{"ra", std::to_string(idx++)}});
            ms.addCounter("elements", r.elements);
            ms.addCounter("ctrl_forwarded", r.ctrlForwarded);
            ms.addCounter("mem_accesses", r.memAccesses);
        }
    }
    return run;
}

Run
nativeRunToMetrics(const std::string& name, const rt::NativeStats& stats)
{
    enforce(checkNativeStats(stats), "native");

    Run run;
    run.name = name;
    run.labels["backend"] = "native";

    MetricSet& top = run.top;
    top.setGauge("wall_ns", stats.wallNs);
    top.addCounter("stage_threads",
                   static_cast<uint64_t>(stats.numStageThreads));
    top.addCounter("ra_workers",
                   static_cast<uint64_t>(stats.numRAWorkers));
    top.addCounter("failures", stats.ok ? 0 : 1);
    top.addCounter("instructions", stats.totalInstructions());
    top.addCounter("branches", stats.totalBranches());
    top.addCounter("enq_blocks", stats.totalEnqBlocks());
    top.addCounter("deq_blocks", stats.totalDeqBlocks());
    // Task-pool scheduling counters: only for a pipeline run (a serial
    // run never touches the pool, so its report has no sched_* keys).
    if (stats.sched.poolSize > 0) {
        top.setGauge("sched_pool_size",
                     static_cast<double>(stats.sched.poolSize));
        top.setGauge("sched_workers_used",
                     static_cast<double>(stats.sched.workersUsed));
        top.addCounter("sched_parks", stats.sched.parks);
        top.addCounter("sched_unparks", stats.sched.unparks);
        top.addCounter("sched_steals", stats.sched.steals);
        top.addCounter("sched_yields", stats.sched.yields);
    }

    // The getrusage floor: host measurements, present on every run.
    top.setGauge("ru_maxrss_kb", stats.rusage.maxRssKb);
    top.addCounter("ru_ctxsw_voluntary", stats.rusage.voluntaryCtxSw);
    top.addCounter("ru_ctxsw_involuntary",
                   stats.rusage.involuntaryCtxSw);
    top.setGauge("ru_user_ns", stats.rusage.userNs);
    top.setGauge("ru_system_ns", stats.rusage.systemNs);

    uint64_t queue_ops = 0, ra_elements = 0, ra_ctrl = 0, fused = 0;
    for (const auto& w : stats.workers) {
        queue_ops += w.queueOps;
        ra_elements += w.raElements;
        ra_ctrl += w.raCtrlForwarded;
        fused += w.fusedSites;
    }
    top.addCounter("queue_ops", queue_ops);
    top.addCounter("ra_elements", ra_elements);
    top.addCounter("ra_ctrl_forwarded", ra_ctrl);
    top.addCounter("fused_sites", fused);

    Family& workers = run.families["worker"];
    for (const auto& w : stats.workers) {
        MetricSet& ms =
            workers.at({{"worker", w.name},
                        {"kind", w.isStage ? "stage" : "ra"}});
        ms.addCounter("instructions", w.instructions);
        ms.addCounter("queue_ops", w.queueOps);
        ms.addCounter("branches", w.branches);
        ms.addCounter("fused_sites", w.fusedSites);
        if (!w.isStage) {
            ms.addCounter("elements", w.raElements);
            ms.addCounter("ctrl_forwarded", w.raCtrlForwarded);
        }
    }

    std::vector<uint64_t> op_counts = stats.totalOpCounts();
    if (!op_counts.empty()) {
        Family& ops = run.families["opcode"];
        for (size_t op = 0; op < op_counts.size(); ++op) {
            if (op_counts[op] == 0)
                continue;
            ops.at({{"op", ir::opcodeName(static_cast<ir::Opcode>(op))}})
                .addCounter("count", op_counts[op]);
        }
    }

    if (!stats.queues.empty()) {
        Family& queues = run.families["queue"];
        for (const auto& q : stats.queues) {
            MetricSet& ms = queues.at({{"queue", std::to_string(q.id)}});
            ms.addCounter("enq", q.enq);
            ms.addCounter("deq", q.deq);
            ms.addCounter("enq_blocks", q.enqBlocks);
            ms.addCounter("deq_blocks", q.deqBlocks);
            ms.addCounter("residual", q.residual);
            ms.setGauge("max_occupancy",
                        static_cast<double>(q.maxOccupancy));
            // Rebuild the distribution from the log2 histogram: bucket
            // b of QueueStats covers [2^b, 2^(b+1)), which is exactly
            // the model's lower-inclusive bucket b for edges 2,4,...,128.
            Distribution& push = ms.dist("push_batch", kBatchEdges);
            for (int b = 0; b < rt::QueueStats::kBatchHistBuckets; ++b) {
                push.counts[static_cast<size_t>(b)] += q.pushHist[b];
                push.total += q.pushHist[b];
            }
            push.sum += static_cast<double>(q.pushBatchElems);
        }
    }
    return run;
}

void
addTraceSummary(Run& run, const trace::Tracer& tracer)
{
    if (tracer.buffers().empty())
        return;
    Family& lanes = run.families["lane"];
    for (const auto& buf : tracer.buffers()) {
        MetricSet& ms =
            lanes.at({{"lane", buf->workerName()},
                      {"kind", buf->isStage() ? "stage" : "aux"}});
        buf->forEachRetained([&](const trace::Event& e) {
            uint64_t span = e.end - e.begin;
            switch (e.kind) {
            case trace::EventKind::kEnqBlock:
                ms.addCounter("enq_block_spans", 1);
                ms.addCounter("enq_block_time", span);
                break;
            case trace::EventKind::kDeqBlock:
                ms.addCounter("deq_block_spans", 1);
                ms.addCounter("deq_block_time", span);
                break;
            case trace::EventKind::kBarrierWait:
                ms.addCounter("barrier_spans", 1);
                ms.addCounter("barrier_time", span);
                break;
            case trace::EventKind::kRaService:
                ms.addCounter("ra_bursts", 1);
                ms.addCounter("ra_burst_elements", e.arg);
                break;
            case trace::EventKind::kHalt:
                ms.addCounter("halts", 1);
                break;
            case trace::EventKind::kQueueOcc:
                // Occupancy samples are a counter series, not spans;
                // keep the sample count so lanes stay comparable.
                ms.addCounter("occupancy_samples", 1);
                break;
            case trace::EventKind::kSvcQueueWait:
            case trace::EventKind::kSvcCacheLookup:
            case trace::EventKind::kSvcCompile:
            case trace::EventKind::kSvcRun:
                // Service lifecycle spans (phloemd request lane).
                ms.addCounter(std::string(trace::eventKindName(e.kind)) +
                                  "_spans",
                              1);
                ms.addCounter(std::string(trace::eventKindName(e.kind)) +
                                  "_time",
                              span);
                break;
            }
        });
        if (buf->recorded() > buf->retained()) {
            ms.addCounter("events_dropped",
                          buf->recorded() - buf->retained());
        }
    }
}

std::string
configFingerprint(const sim::SysConfig& cfg)
{
    std::ostringstream oss;
    oss << cfg.numCores << '|' << cfg.threadsPerCore << '|'
        << cfg.issueWidth << '|' << cfg.robSize << '|'
        << cfg.mispredictPenalty << '|' << cfg.freqGHz << '|'
        << cfg.mshrsPerCore << '|' << cfg.maxQueues << '|'
        << cfg.queueDepth << '|' << cfg.maxRAs << '|' << cfg.queueLatency
        << '|' << cfg.interCoreQueueLatency << '|' << cfg.raMaxInflight
        << '|' << cfg.l1.sizeBytes << ',' << cfg.l1.ways << ','
        << cfg.l1.latency << '|' << cfg.l2.sizeBytes << ',' << cfg.l2.ways
        << ',' << cfg.l2.latency << '|' << cfg.l3PerCore.sizeBytes << ','
        << cfg.l3PerCore.ways << ',' << cfg.l3PerCore.latency << '|'
        << cfg.lineBytes << '|' << cfg.memMinLatency << '|'
        << cfg.memControllers << '|' << cfg.memGBps << '|'
        << cfg.atomicExtraLatency;
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv1a(oss.str())));
    return buf;
}

} // namespace phloem::metrics
