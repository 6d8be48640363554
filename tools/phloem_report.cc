/**
 * @file
 * phloem-report: inspect, diff, and merge Phloem metrics reports.
 *
 * Usage:
 *   phloem-report REPORT.json
 *       Pretty-print the report: per-run summary plus the Fig.-10-style
 *       cycle/stall breakdown per stage (sim runs) or the per-queue
 *       backpressure table (native runs).
 *
 *   phloem-report --diff OLD.json NEW.json [options]
 *       Compare metric-by-metric with per-metric relative tolerances
 *       (see src/metrics/diff.h for the class table). Exits 1 when any
 *       regression is found, 0 otherwise.
 *         --no-fail           report regressions but exit 0 (warn-only
 *                             CI gates)
 *         --tol NAME=REL      override one metric's tolerance (suffix
 *                             match, e.g. --tol cycles=0.10)
 *         --tol-default REL   tolerance for unclassified metrics
 *         --all               include unchanged metrics in the table
 *         --max-rows N        truncate the table after N rows
 *
 *   phloem-report --merge OUT.json IN.json... [--meta KEY=VALUE]...
 *       Aggregate several reports into one (run_benches.sh uses this to
 *       build the versioned BENCH report); --meta stamps e.g. the git
 *       sha onto the aggregate.
 *
 * Exit codes: 0 ok, 1 regressions found (diff mode), 2 usage or I/O /
 * parse errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "metrics/collect.h"
#include "metrics/diff.h"
#include "metrics/metrics.h"

using namespace phloem;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: phloem-report REPORT.json\n"
        "       phloem-report --diff OLD.json NEW.json [--no-fail]\n"
        "                     [--tol NAME=REL] [--tol-default REL]\n"
        "                     [--all] [--max-rows N]\n"
        "       phloem-report --merge OUT.json IN.json...\n"
        "                     [--meta KEY=VALUE]...\n");
    return 2;
}

bool
load(const std::string& path, metrics::Report* out)
{
    std::string err;
    if (!metrics::readFile(path, out, &err)) {
        std::fprintf(stderr, "phloem-report: %s\n", err.c_str());
        return false;
    }
    return true;
}

std::string
labelsString(const std::map<std::string, std::string>& labels)
{
    std::string out;
    for (const auto& [k, v] : labels) {
        if (!out.empty())
            out += " ";
        out += k + "=" + v;
    }
    return out;
}

double
gaugeOr(const metrics::MetricSet& ms, const std::string& name,
        double fallback = 0.0)
{
    auto it = ms.gauges.find(name);
    return it != ms.gauges.end() ? it->second : fallback;
}

uint64_t
counterOr(const metrics::MetricSet& ms, const std::string& name)
{
    auto it = ms.counters.find(name);
    return it != ms.counters.end() ? it->second : 0;
}

/** Fig.-10-style per-stage cycle/stall breakdown of one sim run. */
void
printSimBreakdown(const metrics::Run& run)
{
    double total = gaugeOr(run.top, "thread_cycles");
    std::printf("  cycles %llu  (aggregate thread-cycles %.0f)\n",
                static_cast<unsigned long long>(
                    gaugeOr(run.top, "cycles")),
                total);
    std::printf("  %-24s %12s %7s %7s %7s %7s\n", "stage", "cycles",
                "issue", "backend", "queue", "other");

    auto fam = run.families.find("stage");
    if (fam == run.families.end())
        return;
    auto pct = [](double part, double whole) {
        return whole > 0 ? 100.0 * part / whole : 0.0;
    };
    for (const auto& p : fam->second.points) {
        const metrics::MetricSet& ms = p.metrics;
        double cycles = gaugeOr(ms, "cycles");
        auto stage = p.labels.find("stage");
        std::printf(
            "  %-24s %12.0f %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n",
            stage != p.labels.end() ? stage->second.c_str() : "?", cycles,
            pct(gaugeOr(ms, "issue_cycles"), cycles),
            pct(gaugeOr(ms, "backend_cycles"), cycles),
            pct(gaugeOr(ms, "queue_stall_cycles"), cycles),
            pct(gaugeOr(ms, "frontend_cycles"), cycles));
    }
    std::printf("  %-24s %12.0f %6.1f%% %6.1f%% %6.1f%% %6.1f%%\n",
                "(all stages)", total,
                pct(gaugeOr(run.top, "issue_cycles"), total),
                pct(gaugeOr(run.top, "backend_cycles"), total),
                pct(gaugeOr(run.top, "queue_stall_cycles"), total),
                pct(gaugeOr(run.top, "frontend_cycles"), total));
}

void
printNativeSummary(const metrics::Run& run)
{
    std::printf("  wall %.3f ms, %llu stage threads + %llu RAs, "
                "%llu instructions\n",
                gaugeOr(run.top, "wall_ns") / 1e6,
                static_cast<unsigned long long>(
                    counterOr(run.top, "stage_threads")),
                static_cast<unsigned long long>(
                    counterOr(run.top, "ra_workers")),
                static_cast<unsigned long long>(
                    counterOr(run.top, "instructions")));
    auto fam = run.families.find("queue");
    if (fam == run.families.end())
        return;
    std::printf("  %-8s %12s %12s %10s %10s %9s %8s\n", "queue", "enq",
                "deq", "enq-blk", "deq-blk", "max-occ", "residual");
    for (const auto& p : fam->second.points) {
        const metrics::MetricSet& ms = p.metrics;
        auto q = p.labels.find("queue");
        std::printf("  q%-7s %12llu %12llu %10llu %10llu %9.0f %8llu\n",
                    q != p.labels.end() ? q->second.c_str() : "?",
                    static_cast<unsigned long long>(counterOr(ms, "enq")),
                    static_cast<unsigned long long>(counterOr(ms, "deq")),
                    static_cast<unsigned long long>(
                        counterOr(ms, "enq_blocks")),
                    static_cast<unsigned long long>(
                        counterOr(ms, "deq_blocks")),
                    gaugeOr(ms, "max_occupancy"),
                    static_cast<unsigned long long>(
                        counterOr(ms, "residual")));
    }
}

/** Service-latency runs (phloem-loadgen): percentile table per kind. */
void
printLatencySummary(const metrics::Run& run)
{
    std::printf("  %llu requests (%llu errors), %.1f req/s, "
                "cache hit rate %.1f%%\n",
                static_cast<unsigned long long>(
                    counterOr(run.top, "requests")),
                static_cast<unsigned long long>(
                    counterOr(run.top, "errors")),
                gaugeOr(run.top, "requests_per_sec"),
                gaugeOr(run.top, "cache_hit_rate") * 100.0);
    std::printf("  %-8s %10s %12s %12s %12s %12s\n", "kind", "requests",
                "p50 ms", "p95 ms", "p99 ms", "mean ms");
    auto fam = run.families.find("latency");
    if (fam == run.families.end())
        return;
    for (const auto& p : fam->second.points) {
        auto kind = p.labels.find("kind");
        std::printf("  %-8s %10llu %12.3f %12.3f %12.3f %12.3f\n",
                    kind != p.labels.end() ? kind->second.c_str() : "?",
                    static_cast<unsigned long long>(
                        counterOr(p.metrics, "requests")),
                    gaugeOr(p.metrics, "p50_ns") / 1e6,
                    gaugeOr(p.metrics, "p95_ns") / 1e6,
                    gaugeOr(p.metrics, "p99_ns") / 1e6,
                    gaugeOr(p.metrics, "mean_ns") / 1e6);
    }
    std::printf("  cold/hit p50 speedup %.1fx, same-kernel median "
                "%.1fx\n",
                gaugeOr(run.top, "cold_over_hit_p50"),
                gaugeOr(run.top, "same_kernel_speedup"));
}

/** Everything else: dump the top-level metrics generically. */
void
printGeneric(const metrics::Run& run)
{
    for (const auto& [k, v] : run.top.counters)
        std::printf("  %-32s %llu\n", k.c_str(),
                    static_cast<unsigned long long>(v));
    for (const auto& [k, v] : run.top.gauges)
        std::printf("  %-32s %g\n", k.c_str(), v);
    for (const auto& [fname, fam] : run.families) {
        std::printf("  family %s: %zu point(s)\n", fname.c_str(),
                    fam.points.size());
    }
}

int
cmdPrint(const std::string& path)
{
    metrics::Report rep;
    if (!load(path, &rep))
        return 2;
    std::printf("report: %s\n", path.c_str());
    for (const auto& [k, v] : rep.meta)
        std::printf("  meta %-24s %s\n", k.c_str(), v.c_str());
    for (const auto& run : rep.runs) {
        std::printf("\n%s  [%s]\n", run.name.c_str(),
                    labelsString(run.labels).c_str());
        auto backend = run.labels.find("backend");
        if (run.families.count("latency") > 0)
            printLatencySummary(run);
        else if (backend != run.labels.end() && backend->second == "sim")
            printSimBreakdown(run);
        else if (backend != run.labels.end() &&
                 backend->second == "native")
            printNativeSummary(run);
        else
            printGeneric(run);
    }
    return 0;
}

int
cmdDiff(const std::vector<std::string>& files, bool no_fail,
        const metrics::DiffOptions& opts, size_t max_rows)
{
    metrics::Report oldRep, newRep;
    if (!load(files[0], &oldRep) || !load(files[1], &newRep))
        return 2;
    metrics::DiffResult result =
        metrics::diffReports(oldRep, newRep, opts);
    std::printf("diff: %s -> %s\n%s", files[0].c_str(), files[1].c_str(),
                metrics::formatDiff(result, max_rows).c_str());
    if (result.regressions > 0) {
        if (no_fail) {
            std::printf("(--no-fail: exiting 0 despite %d "
                        "regression(s))\n",
                        result.regressions);
            return 0;
        }
        return 1;
    }
    return 0;
}

int
cmdMerge(const std::string& out_path,
         const std::vector<std::string>& files,
         const std::map<std::string, std::string>& meta)
{
    metrics::Report merged;
    merged.meta = meta;
    for (const auto& f : files) {
        metrics::Report rep;
        if (!load(f, &rep))
            return 2;
        merged.merge(rep);
    }
    std::string err;
    if (!metrics::writeFile(merged, out_path, &err)) {
        std::fprintf(stderr, "phloem-report: %s\n", err.c_str());
        return 2;
    }
    std::printf("merged %zu report(s) into %s (%zu runs)\n", files.size(),
                out_path.c_str(), merged.runs.size());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    enum class Mode { kPrint, kDiff, kMerge } mode = Mode::kPrint;
    bool no_fail = false;
    size_t max_rows = 0;
    metrics::DiffOptions opts;
    std::map<std::string, std::string> meta;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto operand = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "phloem-report: %s requires an operand\n",
                             flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--diff") {
            mode = Mode::kDiff;
        } else if (arg == "--merge") {
            mode = Mode::kMerge;
        } else if (arg == "--no-fail") {
            no_fail = true;
        } else if (arg == "--all") {
            opts.keepUnchanged = true;
        } else if (arg == "--max-rows") {
            const char* v = operand("--max-rows");
            if (v == nullptr)
                return usage();
            max_rows = static_cast<size_t>(std::atoll(v));
        } else if (arg == "--tol-default") {
            const char* v = operand("--tol-default");
            if (v == nullptr)
                return usage();
            opts.defaultTol = std::atof(v);
        } else if (arg == "--tol") {
            const char* v = operand("--tol");
            if (v == nullptr)
                return usage();
            const char* eq = std::strchr(v, '=');
            if (eq == nullptr) {
                std::fprintf(stderr,
                             "phloem-report: --tol needs NAME=REL, got "
                             "'%s'\n",
                             v);
                return usage();
            }
            opts.tolOverrides[std::string(v, eq)] = std::atof(eq + 1);
        } else if (arg == "--meta") {
            const char* v = operand("--meta");
            if (v == nullptr)
                return usage();
            const char* eq = std::strchr(v, '=');
            if (eq == nullptr) {
                std::fprintf(stderr,
                             "phloem-report: --meta needs KEY=VALUE, got "
                             "'%s'\n",
                             v);
                return usage();
            }
            meta[std::string(v, eq)] = eq + 1;
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "phloem-report: unknown option '%s'\n",
                         arg.c_str());
            return usage();
        } else {
            files.push_back(arg);
        }
    }

    switch (mode) {
    case Mode::kPrint:
        if (files.size() != 1)
            return usage();
        return cmdPrint(files[0]);
    case Mode::kDiff:
        if (files.size() != 2)
            return usage();
        return cmdDiff(files, no_fail, opts, max_rows);
    case Mode::kMerge:
        if (files.size() < 2)
            return usage();
        return cmdMerge(files[0],
                        {files.begin() + 1, files.end()}, meta);
    }
    return usage();
}
