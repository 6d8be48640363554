#include "bench.h"

#include <sys/resource.h>

#include <cstdio>

#include "stats.h"

namespace perfbench {

const std::vector<MetricDef>&
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"pipeline_p10_s", "s"},
        {"serial_p10_s", "s"},
        {"op_p10_s", "s"},
        {"speedup_gmean", "x"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

const std::vector<MetricDef>&
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"runtime.call_ms", "ms"},
        {"runtime.region_ms", "ms"},
        {"runtime.prep_ms", "ms"},
        {"runtime.serial_call_ms", "ms"},
        {"runtime.call_ms.bfs.internet", "ms"},
        {"runtime.call_ms.bfs.road", "ms"},
        {"runtime.call_ms.cc.internet", "ms"},
        {"runtime.call_ms.cc.road", "ms"},
        {"runtime.call_ms.radii.internet", "ms"},
        {"runtime.call_ms.radii.road", "ms"},
        {"runtime.call_ms.prd.internet", "ms"},
        {"runtime.call_ms.spmm.enron", "ms"},
        {"runtime.call_ms.spmm.wiki", "ms"},
        {"runtime.parks", "count"},
        {"runtime.unparks", "count"},
        {"runtime.steals", "count"},
        {"runtime.yields", "count"},
        {"runtime.ctx_switches_vol", "count"},
        {"runtime.ctx_switches_invol", "count"},
        {"runtime.enq_blocks", "count"},
        {"runtime.deq_blocks", "count"},
        {"runtime.pop_batch_mean", "values"},
        {"runtime.push_batch_mean", "values"},
        {"runtime.blocks_per_kvalue", "blocks/kvalue"},
        {"runtime.instructions", "count"},
        {"runtime.queue_ops", "count"},
        {"runtime.ra_elements", "count"},
        {"runtime.cpu_per_wall", "ratio"},
        {"sim.host_ms", "ms"},
        {"sim.host_ms.bfs.internet", "ms"},
        {"sim.host_ms.bfs.road", "ms"},
        {"sim.host_ms.cc.internet", "ms"},
        {"sim.host_ms.cc.road", "ms"},
        {"sim.host_ms.prd.internet", "ms"},
        {"sim.host_ms.prd.road", "ms"},
        {"sim.host_ms.radii.internet", "ms"},
        {"sim.host_ms.radii.road", "ms"},
        {"sim.host_ms.spmm.enron", "ms"},
        {"sim.host_ms.spmm.wiki", "ms"},
        {"sim.minst_per_s", "Minst/s"},
        {"sim.cycles", "count"},
        {"sim.instructions", "count"},
        {"sim.issue_frac", "ratio"},
        {"sim.queue_stall_frac", "ratio"},
        {"sim.backend_frac", "ratio"},
        {"sim.frontend_frac", "ratio"},
        {"sim.dram_accesses", "count"},
        {"workloads.bind_ms", "ms"},
        {"workloads.check_ms", "ms"},
        {"frontend.ms", "ms"},
        {"compiler.ms", "ms"},
        {"compiler.stages", "count"},
        {"compiler.queues", "count"},
        {"compiler.ras", "count"},
        {"driver.compile_ms", "ms"},
        {"driver.prep_ms", "ms"},
        {"service.transport_ms", "ms"},
        {"service.compile_ms", "ms"},
        {"service.run_ms", "ms"},
        {"service.hit_ratio", "ratio"},
        {"service.evictions", "count"},
        {"service.hit_ms_p50", "ms"},
        {"service.hit_ms_p95", "ms"},
        {"service.miss_ms_p50", "ms"},
        {"service.miss_ms_p95", "ms"},
        {"bench.pipeline_s", "s"},
        {"bench.pipeline_p90_s", "s"},
        {"bench.serial_s", "s"},
        {"bench.op_s", "s"},
        {"bench.ops_per_s", "1/s"},
        {"bench.samples", "count"},
        {"bench.beyond_p90", "count"},
        {"bench.error_rate", "ratio"},
        {"bench.self_ms", "ms"},
        {"workloads.self_ms", "ms"},
        {"frontend.self_ms", "ms"},
        {"compiler.self_ms", "ms"},
        {"driver.self_ms", "ms"},
        {"runtime.self_ms", "ms"},
        {"sim.self_ms", "ms"},
        {"service.self_ms", "ms"},
        {"trace.spans", "count"},
        {"trace.overhead_pct", "%"},
    };
    return defs;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<Phase>
measurePhases(const RunArgs& args)
{
    if (!args.trace)
        return {{args.seconds, false}};
    return {{args.seconds / 2, false}, {args.seconds / 2, true}};
}

void
addTimingMetrics(const std::vector<KernelTimes>& kernels, double ops,
                 double seconds, Result& out)
{
    auto sum = [&](std::vector<double> KernelTimes::*field, double p) {
        return sumOver(kernels, field, p) / 1e9;
    };
    auto& m = out.metrics;
    m["pipeline_p10_s"] = sum(&KernelTimes::pipelineNs, 10);
    m["serial_p10_s"] = sum(&KernelTimes::serialNs, 10);
    m["op_p10_s"] = sum(&KernelTimes::opNs, 10);
    std::vector<double> speedups;
    size_t samples = 0, beyond = 0;
    for (const auto& k : kernels) {
        if (k.pipelineNs.empty() || k.serialNs.empty())
            continue;
        speedups.push_back(percentile(k.serialNs, 10) /
                           percentile(k.pipelineNs, 10));
        samples += k.pipelineNs.size();
        beyond += samplesBeyond(k.pipelineNs.size(), 90);
    }
    m["speedup_gmean"] = gmean(speedups);
    m["bench.pipeline_s"] = sum(&KernelTimes::pipelineNs, 50);
    m["bench.pipeline_p90_s"] = sum(&KernelTimes::pipelineNs, 90);
    m["bench.serial_s"] = sum(&KernelTimes::serialNs, 50);
    m["bench.op_s"] = sum(&KernelTimes::opNs, 50);
    m["bench.ops_per_s"] = ops / seconds;
    m["bench.samples"] = static_cast<double>(samples);
    m["bench.beyond_p90"] = static_cast<double>(beyond);
    std::fprintf(stderr,
                 "%zu kernels, %zu pipeline samples (%zu beyond the "
                 "per-kernel p90s), %.1f ops/s\n",
                 kernels.size(), samples, beyond, ops / seconds);
}

void
addSpanMetrics(const Trace& trace, double traced_ops,
               const std::vector<KernelTimes>& untraced,
               const std::vector<KernelTimes>& traced, Result& out)
{
    auto logs = trace.view();
    auto totals = totalsByName(logs);
    auto mean_ms = [&](const char* name) {
        auto it = totals.find(name);
        if (it == totals.end() || it->second.count == 0)
            return 0.0;
        return it->second.ns / 1e6 / static_cast<double>(it->second.count);
    };
    auto& m = out.metrics;
    m["frontend.ms"] = mean_ms("frontend.compileKernel");
    m["compiler.ms"] = mean_ms("compiler.compilePipeline");
    m["driver.compile_ms"] = mean_ms("driver.compileSource");
    // compileSource = frontend + passes + flatten/decode; the remainder
    // after this run's own frontend and compiler calls is the prep.
    if (m["driver.compile_ms"] > 0)
        m["driver.prep_ms"] =
            m["driver.compile_ms"] - m["frontend.ms"] - m["compiler.ms"];
    m["workloads.bind_ms"] = mean_ms("workloads.bind");
    m["workloads.check_ms"] = mean_ms("workloads.check");

    for (const auto& [module, ns] : selfNsByModule(logs)) {
        std::string key = module + ".self_ms";
        if (traced_ops > 0)
            m[key] = ns / 1e6 / traced_ops;
    }
    double spans = 0;
    for (const auto& [name, t] : totals)
        spans += static_cast<double>(t.count);
    m["trace.spans"] = spans;
    // p10s, like the end-to-end times, so host speed phases mostly drop out.
    double untraced_ns = 0, traced_ns = 0;
    for (size_t i = 0; i < untraced.size() && i < traced.size(); ++i) {
        if (untraced[i].opNs.empty() || traced[i].opNs.empty())
            continue;
        untraced_ns += percentile(untraced[i].opNs, 10);
        traced_ns += percentile(traced[i].opNs, 10);
    }
    if (untraced_ns > 0)
        m["trace.overhead_pct"] = (traced_ns / untraced_ns - 1.0) * 100.0;
}

} // namespace perfbench

