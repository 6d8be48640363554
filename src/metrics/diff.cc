#include "metrics/diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace phloem::metrics {

namespace {

bool
contains(const std::string& s, const char* needle)
{
    return s.find(needle) != std::string::npos;
}

bool
endsWith(const std::string& s, const std::string& suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** Leaf metric name of a path ("run/queue[queue=3]/enq" -> "enq"). */
std::string
leafOf(const std::string& path)
{
    size_t slash = path.rfind('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

} // namespace

Tolerance
classifyMetric(const std::string& path, bool isCounter)
{
    std::string leaf = leafOf(path);

    // Resource usage is a host measurement, not a model output: rss,
    // CPU time and context switches vary with the machine and its load,
    // so they inform but never gate. So does the pool size, which is
    // the running host's core count. Must precede the wall-clock rule
    // below (ru_user_ns, ru_system_ns).
    if (leaf.rfind("ru_", 0) == 0 || leaf == "sched_pool_size")
        return {Direction::kInfo, 0.0};
    // Scheduling noise: meaningful to read, meaningless to gate. Block
    // counts, occupancy high-water marks, batch shapes, and trace-lane
    // timings all vary run-to-run on a loaded host.
    if (contains(path, "lane[") || contains(leaf, "block") ||
        contains(leaf, "occupancy") || contains(leaf, "residual") ||
        contains(leaf, "batch") || contains(leaf, "halts") ||
        contains(leaf, "events_dropped")) {
        return {Direction::kInfo, 0.0};
    }
    // Wall-clock: lower is better, host-noisy.
    if (leaf == "wall_ns" || endsWith(leaf, "_ms") ||
        endsWith(leaf, "_ns")) {
        return {Direction::kLowerBetter, 1.0};
    }
    // Simulated cycles (and derived stall buckets) are deterministic;
    // small drift is a real model change.
    if (contains(leaf, "cycles"))
        return {Direction::kLowerBetter, 0.05};
    if (leaf.rfind("energy_", 0) == 0)
        return {Direction::kLowerBetter, 0.05};
    if (contains(leaf, "speedup"))
        return {Direction::kHigherBetter, 0.10};
    // Functional counters (instructions, queue ops, pushes/pops, ...):
    // exact — any drift means the program executed differently.
    if (isCounter)
        return {Direction::kExact, 0.0};
    return {Direction::kExact, -1.0};  // -1 = "use opts.defaultTol"
}

namespace {

struct FlatMetric
{
    std::string path;
    double value = 0.0;
    bool isCounter = false;
};

void
flattenSet(const std::string& prefix, const MetricSet& ms,
           std::vector<FlatMetric>* out)
{
    for (const auto& [k, v] : ms.counters)
        out->push_back({prefix + k, static_cast<double>(v), true});
    for (const auto& [k, v] : ms.gauges)
        out->push_back({prefix + k, v, false});
    // Distributions gate through their total/mean; bucket shapes are
    // classified as noise by name ("batch") or the default class.
    for (const auto& [k, v] : ms.dists) {
        out->push_back(
            {prefix + k + ".total", static_cast<double>(v.total), true});
        out->push_back({prefix + k + ".mean", v.mean(), false});
    }
}

std::string
labelsKey(const std::map<std::string, std::string>& labels)
{
    std::string out;
    for (const auto& [k, v] : labels) {
        if (!out.empty())
            out += ",";
        out += k + "=" + v;
    }
    return out;
}

std::vector<FlatMetric>
flattenRun(const Run& r)
{
    std::vector<FlatMetric> out;
    std::string base = r.name;
    std::string lk = labelsKey(r.labels);
    if (!lk.empty())
        base += "{" + lk + "}";
    flattenSet(base + "/", r.top, &out);
    for (const auto& [fname, fam] : r.families) {
        for (const auto& p : fam.points) {
            flattenSet(base + "/" + fname + "[" + labelsKey(p.labels) +
                           "]/",
                       p.metrics, &out);
        }
    }
    return out;
}

int
verdictRank(Verdict v)
{
    switch (v) {
    case Verdict::kRegression: return 0;
    case Verdict::kMissing: return 1;
    case Verdict::kImproved: return 2;
    case Verdict::kInfo: return 3;
    case Verdict::kNew: return 4;
    case Verdict::kOk: return 5;
    }
    return 6;
}

const char*
verdictName(Verdict v)
{
    switch (v) {
    case Verdict::kRegression: return "REGRESSION";
    case Verdict::kMissing: return "missing";
    case Verdict::kImproved: return "improved";
    case Verdict::kInfo: return "info";
    case Verdict::kNew: return "new";
    case Verdict::kOk: return "ok";
    }
    return "?";
}

} // namespace

DiffResult
diffReports(const Report& oldRep, const Report& newRep,
            const DiffOptions& opts)
{
    DiffResult result;

    auto fp_old = oldRep.meta.find("config_fingerprint");
    auto fp_new = newRep.meta.find("config_fingerprint");
    if (fp_old != oldRep.meta.end() && fp_new != newRep.meta.end() &&
        fp_old->second != fp_new->second) {
        result.configMismatch = true;
    }

    // Flatten both sides into path -> value maps.
    std::map<std::string, FlatMetric> oldFlat, newFlat;
    for (const auto& r : oldRep.runs)
        for (auto& m : flattenRun(r))
            oldFlat[m.path] = m;
    for (const auto& r : newRep.runs)
        for (auto& m : flattenRun(r))
            newFlat[m.path] = m;

    auto resolveTol = [&](const std::string& path,
                          bool is_counter) -> Tolerance {
        Tolerance tol = classifyMetric(path, is_counter);
        if (tol.rel < 0.0)
            tol.rel = opts.defaultTol;
        for (const auto& [suffix, rel] : opts.tolOverrides) {
            if (endsWith(path, suffix) || leafOf(path) == suffix) {
                tol.rel = rel;
                // An explicit override on a noise-class metric means
                // the caller wants it gated after all.
                if (tol.direction == Direction::kInfo)
                    tol.direction = Direction::kExact;
                break;
            }
        }
        return tol;
    };

    for (const auto& [path, oldM] : oldFlat) {
        DiffEntry e;
        e.path = path;
        e.oldValue = oldM.value;
        e.isCounter = oldM.isCounter;
        e.tol = resolveTol(path, oldM.isCounter);

        auto it = newFlat.find(path);
        if (it == newFlat.end()) {
            e.verdict = e.tol.direction == Direction::kInfo
                            ? Verdict::kInfo
                            : Verdict::kMissing;
            if (e.verdict == Verdict::kMissing)
                result.regressions++;
            result.entries.push_back(std::move(e));
            continue;
        }
        e.newValue = it->second.value;
        double denom = std::max(std::abs(e.oldValue), 1e-9);
        e.relDelta = (e.newValue - e.oldValue) / denom;

        bool within = std::abs(e.relDelta) <= e.tol.rel + 1e-12;
        switch (e.tol.direction) {
        case Direction::kInfo:
            e.verdict = within ? Verdict::kOk : Verdict::kInfo;
            if (!within)
                result.infoChanges++;
            break;
        case Direction::kExact:
            e.verdict = within ? Verdict::kOk : Verdict::kRegression;
            break;
        case Direction::kLowerBetter:
            e.verdict = e.relDelta > e.tol.rel
                            ? Verdict::kRegression
                            : (e.relDelta < -e.tol.rel ? Verdict::kImproved
                                                       : Verdict::kOk);
            break;
        case Direction::kHigherBetter:
            e.verdict = e.relDelta < -e.tol.rel
                            ? Verdict::kRegression
                            : (e.relDelta > e.tol.rel ? Verdict::kImproved
                                                      : Verdict::kOk);
            break;
        }
        if (e.verdict == Verdict::kRegression)
            result.regressions++;
        if (e.verdict == Verdict::kImproved)
            result.improvements++;
        if (e.verdict != Verdict::kOk || opts.keepUnchanged)
            result.entries.push_back(std::move(e));
    }

    for (const auto& [path, newM] : newFlat) {
        if (oldFlat.count(path) > 0)
            continue;
        DiffEntry e;
        e.path = path;
        e.newValue = newM.value;
        e.isCounter = newM.isCounter;
        e.tol = resolveTol(path, newM.isCounter);
        e.verdict = Verdict::kNew;
        result.entries.push_back(std::move(e));
    }

    std::stable_sort(result.entries.begin(), result.entries.end(),
                     [](const DiffEntry& a, const DiffEntry& b) {
                         if (verdictRank(a.verdict) !=
                             verdictRank(b.verdict))
                             return verdictRank(a.verdict) <
                                    verdictRank(b.verdict);
                         return std::abs(a.relDelta) > std::abs(b.relDelta);
                     });
    return result;
}

std::string
formatDiff(const DiffResult& result, size_t maxRows)
{
    std::ostringstream oss;
    if (result.configMismatch) {
        oss << "WARNING: config fingerprints differ between the reports; "
               "the runs measured different machines\n";
    }
    if (result.entries.empty()) {
        oss << "no metric changes\n";
        return oss.str();
    }
    size_t width = 24;
    size_t rows = maxRows > 0 ? std::min(maxRows, result.entries.size())
                              : result.entries.size();
    for (size_t i = 0; i < rows; ++i)
        width = std::max(width, result.entries[i].path.size());

    char buf[256];
    std::snprintf(buf, sizeof(buf), "%-*s %14s %14s %9s %7s  %s\n",
                  static_cast<int>(width), "metric", "old", "new",
                  "delta", "tol", "verdict");
    oss << buf;
    auto cell = [](double v, bool is_counter) {
        char out[32];
        if (is_counter)
            std::snprintf(out, sizeof(out), "%lld",
                          static_cast<long long>(v));
        else
            std::snprintf(out, sizeof(out), "%.6g", v);
        return std::string(out);
    };
    for (size_t i = 0; i < rows; ++i) {
        const DiffEntry& e = result.entries[i];
        std::snprintf(buf, sizeof(buf),
                      "%-*s %14s %14s %+8.1f%% %6.0f%%  %s\n",
                      static_cast<int>(width), e.path.c_str(),
                      cell(e.oldValue, e.isCounter).c_str(),
                      cell(e.newValue, e.isCounter).c_str(),
                      100.0 * e.relDelta, 100.0 * e.tol.rel,
                      verdictName(e.verdict));
        oss << buf;
    }
    if (rows < result.entries.size()) {
        oss << "  ... " << (result.entries.size() - rows)
            << " more rows\n";
    }
    std::snprintf(buf, sizeof(buf),
                  "%d regression(s), %d improvement(s), %d informational "
                  "change(s)\n",
                  result.regressions, result.improvements,
                  result.infoChanges);
    oss << buf;
    return oss.str();
}

} // namespace phloem::metrics
