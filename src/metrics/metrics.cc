#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "base/logging.h"
#include "metrics/json.h"

namespace phloem::metrics {

// ---------------------------------------------------------------------
// Model
// ---------------------------------------------------------------------

Distribution::Distribution(std::vector<double> bucket_edges)
    : edges(std::move(bucket_edges))
{
    phloem_assert(std::is_sorted(edges.begin(), edges.end()),
                  "distribution edges must be sorted");
    counts.assign(edges.size() + 1, 0);
}

size_t
Distribution::bucketOf(double v) const
{
    // First edge strictly greater than v; a value exactly on an edge
    // belongs to the higher (lower-inclusive) bucket.
    size_t i = 0;
    while (i < edges.size() && v >= edges[i])
        i++;
    return i;
}

void
Distribution::observe(double v, uint64_t times)
{
    if (counts.size() != edges.size() + 1)
        counts.assign(edges.size() + 1, 0);
    counts[bucketOf(v)] += times;
    total += times;
    sum += v * static_cast<double>(times);
}

double
Distribution::quantile(double q) const
{
    if (total == 0 || counts.empty())
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    // Rank of the wanted observation, 1-based and clamped into
    // [1, total] so q=0 and q=1 hit the first/last observation.
    double rank = q * static_cast<double>(total);
    if (rank < 1.0)
        rank = 1.0;
    uint64_t cum = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        double before = static_cast<double>(cum);
        cum += counts[i];
        if (rank > static_cast<double>(cum))
            continue;
        // Bucket i spans [lo, hi): underflow starts at 0 (nonnegative
        // data), overflow saturates at the last edge.
        if (i == counts.size() - 1 && !edges.empty())
            return edges.back();
        double lo = i == 0 ? 0.0 : edges[i - 1];
        double hi = edges.empty() ? lo : edges[i];
        double frac =
            (rank - before) / static_cast<double>(counts[i]);
        return lo + (hi - lo) * frac;
    }
    return edges.empty() ? 0.0 : edges.back();
}

std::vector<double>
logSpacedEdges(double lo, double hi, int per_decade)
{
    phloem_assert(lo > 0.0 && hi > lo && per_decade >= 1,
                  "logSpacedEdges needs 0 < lo < hi, per_decade >= 1");
    // Each edge from its integer step index (not repeated
    // multiplication) so decade boundaries stay exact and the range is
    // guaranteed to be covered.
    std::vector<double> edges;
    for (int i = 0;; ++i) {
        double e = lo * std::pow(10.0, static_cast<double>(i) /
                                           static_cast<double>(per_decade));
        edges.push_back(e);
        if (e >= hi)
            break;
    }
    // Floating-point drift must never produce equal adjacent edges.
    phloem_assert(std::adjacent_find(edges.begin(), edges.end(),
                                     [](double a, double b) {
                                         return a >= b;
                                     }) == edges.end(),
                  "log edges not strictly increasing");
    return edges;
}

void
Distribution::merge(const Distribution& other)
{
    if (edges.empty() && total == 0) {
        *this = other;
        return;
    }
    phloem_assert(edges == other.edges,
                  "cannot merge distributions with different edges");
    if (counts.size() != edges.size() + 1)
        counts.assign(edges.size() + 1, 0);
    for (size_t i = 0; i < other.counts.size() && i < counts.size(); ++i)
        counts[i] += other.counts[i];
    total += other.total;
    sum += other.sum;
}

Distribution&
MetricSet::dist(const std::string& name, const std::vector<double>& edges)
{
    auto it = dists.find(name);
    if (it == dists.end())
        it = dists.emplace(name, Distribution{edges}).first;
    return it->second;
}

void
MetricSet::merge(const MetricSet& other)
{
    for (const auto& [k, v] : other.counters)
        counters[k] += v;
    for (const auto& [k, v] : other.gauges)
        gauges[k] = v;
    for (const auto& [k, v] : other.dists)
        dists[k].merge(v);
}

MetricSet&
Family::at(const std::map<std::string, std::string>& labels)
{
    for (auto& p : points)
        if (p.labels == labels)
            return p.metrics;
    points.push_back(FamilyPoint{labels, {}});
    return points.back().metrics;
}

const FamilyPoint*
Family::find(const std::map<std::string, std::string>& labels) const
{
    for (const auto& p : points)
        if (p.labels == labels)
            return &p;
    return nullptr;
}

void
Family::merge(const Family& other)
{
    for (const auto& p : other.points)
        at(p.labels).merge(p.metrics);
}

Run&
Report::run(const std::string& name,
            const std::map<std::string, std::string>& labels)
{
    for (auto& r : runs)
        if (r.name == name && r.labels == labels)
            return r;
    runs.push_back(Run{name, labels, {}, {}});
    return runs.back();
}

const Run*
Report::findRun(const std::string& name,
                const std::map<std::string, std::string>& labels) const
{
    for (const auto& r : runs)
        if (r.name == name && r.labels == labels)
            return &r;
    return nullptr;
}

void
Report::merge(const Report& other)
{
    for (const auto& [k, v] : other.meta)
        meta.emplace(k, v);  // existing keys win: the aggregate's meta
    for (const auto& r : other.runs) {
        Run& mine = run(r.name, r.labels);
        mine.top.merge(r.top);
        for (const auto& [fname, fam] : r.families)
            mine.families[fname].merge(fam);
    }
}

// ---------------------------------------------------------------------
// JSON serialization
// ---------------------------------------------------------------------

namespace {

Json
stringMapToJson(const std::map<std::string, std::string>& m)
{
    Json obj = Json::object();
    for (const auto& [k, v] : m)
        obj.set(k, Json::str(v));
    return obj;
}

Json
metricSetToJson(const MetricSet& ms)
{
    Json obj = Json::object();
    if (!ms.counters.empty()) {
        Json c = Json::object();
        for (const auto& [k, v] : ms.counters)
            c.set(k, Json::integer(static_cast<int64_t>(v)));
        obj.set("counters", std::move(c));
    }
    if (!ms.gauges.empty()) {
        Json g = Json::object();
        for (const auto& [k, v] : ms.gauges)
            g.set(k, Json::number(v));
        obj.set("gauges", std::move(g));
    }
    if (!ms.dists.empty()) {
        Json d = Json::object();
        for (const auto& [k, v] : ms.dists) {
            Json h = Json::object();
            Json edges = Json::array();
            for (double e : v.edges)
                edges.push(Json::number(e));
            Json counts = Json::array();
            for (uint64_t c : v.counts)
                counts.push(Json::integer(static_cast<int64_t>(c)));
            h.set("edges", std::move(edges));
            h.set("counts", std::move(counts));
            h.set("total", Json::integer(static_cast<int64_t>(v.total)));
            h.set("sum", Json::number(v.sum));
            d.set(k, std::move(h));
        }
        obj.set("dists", std::move(d));
    }
    return obj;
}

Json
runToJson(const Run& r)
{
    Json obj = Json::object();
    obj.set("name", Json::str(r.name));
    if (!r.labels.empty())
        obj.set("labels", stringMapToJson(r.labels));
    obj.set("metrics", metricSetToJson(r.top));
    if (!r.families.empty()) {
        Json fams = Json::object();
        for (const auto& [fname, fam] : r.families) {
            Json pts = Json::array();
            for (const auto& p : fam.points) {
                Json pj = Json::object();
                pj.set("labels", stringMapToJson(p.labels));
                pj.set("metrics", metricSetToJson(p.metrics));
                pts.push(std::move(pj));
            }
            fams.set(fname, std::move(pts));
        }
        obj.set("families", std::move(fams));
    }
    return obj;
}

bool
stringMapFromJson(const Json& j, std::map<std::string, std::string>* out,
                  std::string* err)
{
    if (j.isNull())
        return true;
    if (j.kind() != Json::Kind::kObject) {
        *err = "expected object of strings";
        return false;
    }
    for (const auto& [k, v] : j.fields()) {
        if (v.kind() != Json::Kind::kString) {
            *err = "expected string value for key '" + k + "'";
            return false;
        }
        out->emplace(k, v.asString());
    }
    return true;
}

bool
metricSetFromJson(const Json& j, MetricSet* out, std::string* err)
{
    for (const auto& [k, v] : j.at("counters").fields()) {
        if (!v.isNumber()) {
            *err = "counter '" + k + "' is not a number";
            return false;
        }
        out->counters[k] = static_cast<uint64_t>(v.asInt());
    }
    for (const auto& [k, v] : j.at("gauges").fields()) {
        // NaN/Inf serialize as null (JSON has no spelling for them).
        if (!v.isNumber() && !v.isNull()) {
            *err = "gauge '" + k + "' is not a number";
            return false;
        }
        out->gauges[k] = v.asDouble();
    }
    for (const auto& [k, v] : j.at("dists").fields()) {
        Distribution d;
        for (const auto& e : v.at("edges").items())
            d.edges.push_back(e.asDouble());
        for (const auto& c : v.at("counts").items())
            d.counts.push_back(static_cast<uint64_t>(c.asInt()));
        if (d.counts.size() != d.edges.size() + 1) {
            *err = "distribution '" + k + "' has " +
                   std::to_string(d.counts.size()) + " counts for " +
                   std::to_string(d.edges.size()) + " edges";
            return false;
        }
        d.total = static_cast<uint64_t>(v.at("total").asInt());
        d.sum = v.at("sum").asDouble();
        out->dists[k] = std::move(d);
    }
    return true;
}

/** An object of families, each an array of point objects (or absent). */
bool
familiesFromJson(const Json& j, std::map<std::string, Family>* out,
                 std::string* err)
{
    if (j.isNull())
        return true;
    if (j.kind() != Json::Kind::kObject) {
        *err = "'families' is not an object";
        return false;
    }
    for (const auto& [fname, pts] : j.fields()) {
        if (pts.kind() != Json::Kind::kArray) {
            *err = "family '" + fname + "' is not an array of points";
            return false;
        }
        Family fam;
        for (const auto& pj : pts.items()) {
            if (pj.kind() != Json::Kind::kObject) {
                *err = "family '" + fname + "' has a point that is not " +
                       "an object";
                return false;
            }
            FamilyPoint p;
            if (!stringMapFromJson(pj.at("labels"), &p.labels, err))
                return false;
            if (!metricSetFromJson(pj.at("metrics"), &p.metrics, err))
                return false;
            fam.points.push_back(std::move(p));
        }
        (*out)[fname] = std::move(fam);
    }
    return true;
}

} // namespace

std::string
toJson(const Report& report)
{
    Json root = Json::object();
    root.set("schema", Json::str(Report::kSchemaName));
    root.set("version", Json::integer(Report::kSchemaVersion));
    root.set("meta", stringMapToJson(report.meta));
    Json runs = Json::array();
    for (const auto& r : report.runs)
        runs.push(runToJson(r));
    root.set("runs", std::move(runs));
    return root.dump(0) + "\n";
}

bool
parseReport(const std::string& text, Report* out, std::string* err)
{
    std::string dummy;
    if (err == nullptr)
        err = &dummy;
    Json root;
    if (!Json::parse(text, &root, err)) {
        *err = "malformed JSON: " + *err;
        return false;
    }
    if (root.at("schema").asString() != Report::kSchemaName) {
        *err = "not a " + std::string(Report::kSchemaName) +
               " document (schema = '" + root.at("schema").asString() +
               "')";
        return false;
    }
    int64_t version = root.at("version").asInt();
    if (version != Report::kSchemaVersion) {
        *err = "unsupported report schema version " +
               std::to_string(version) + " (this reader supports version " +
               std::to_string(Report::kSchemaVersion) +
               "; regenerate the report or upgrade phloem-report)";
        return false;
    }

    Report rep;
    if (!stringMapFromJson(root.at("meta"), &rep.meta, err))
        return false;
    for (const auto& rj : root.at("runs").items()) {
        Run r;
        r.name = rj.at("name").asString();
        if (!stringMapFromJson(rj.at("labels"), &r.labels, err))
            return false;
        if (!metricSetFromJson(rj.at("metrics"), &r.top, err))
            return false;
        if (!familiesFromJson(rj.at("families"), &r.families, err))
            return false;
        rep.runs.push_back(std::move(r));
    }
    *out = std::move(rep);
    return true;
}

bool
writeFile(const Report& report, const std::string& path, std::string* err)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        if (err != nullptr)
            *err = "cannot open " + path + " for writing";
        return false;
    }
    out << toJson(report);
    out.flush();
    if (!out) {
        if (err != nullptr)
            *err = "write failed for " + path;
        return false;
    }
    return true;
}

bool
readFile(const std::string& path, Report* out, std::string* err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (err != nullptr)
            *err = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!parseReport(buf.str(), out, err)) {
        if (err != nullptr)
            *err = path + ": " + *err;
        return false;
    }
    return true;
}

} // namespace phloem::metrics
