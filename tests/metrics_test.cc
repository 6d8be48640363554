/**
 * @file
 * Unified metrics model tests: histogram bucket-edge semantics, labeled
 * family merging, JSON round-tripping (including hostile strings),
 * schema versioning, the diff tool's tolerance classes, and the stats
 * self-consistency checkers (including PHLOEM_STRICT_STATS enforcement).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "ir/builder.h"
#include "metrics/collect.h"
#include "metrics/diff.h"
#include "metrics/json.h"
#include "metrics/metrics.h"
#include "sim/machine.h"

namespace phloem {
namespace {

using metrics::Distribution;
using metrics::Report;

// ---------------------------------------------------------------------
// Distributions: bucket edges are lower-inclusive half-open.
// ---------------------------------------------------------------------

TEST(Metrics, DistributionBucketBoundaries)
{
    Distribution d({2, 4, 8});
    ASSERT_EQ(d.counts.size(), 4u);

    // Below the first edge.
    EXPECT_EQ(d.bucketOf(0.0), 0u);
    EXPECT_EQ(d.bucketOf(1.999), 0u);
    // A value exactly on an edge lands in the *higher* bucket.
    EXPECT_EQ(d.bucketOf(2.0), 1u);
    EXPECT_EQ(d.bucketOf(3.999), 1u);
    EXPECT_EQ(d.bucketOf(4.0), 2u);
    // On the last edge: the overflow bucket.
    EXPECT_EQ(d.bucketOf(8.0), 3u);
    EXPECT_EQ(d.bucketOf(1e18), 3u);

    d.observe(2.0);
    d.observe(2.0);
    d.observe(8.0, 3);
    EXPECT_EQ(d.counts[1], 2u);
    EXPECT_EQ(d.counts[3], 3u);
    EXPECT_EQ(d.total, 5u);
    EXPECT_DOUBLE_EQ(d.sum, 2.0 + 2.0 + 3 * 8.0);
    EXPECT_DOUBLE_EQ(d.mean(), 28.0 / 5.0);
}

TEST(Metrics, DistributionMergeRequiresMatchingEdges)
{
    Distribution a({2, 4});
    Distribution b({2, 4});
    a.observe(1.0);
    b.observe(3.0);
    b.observe(100.0);
    a.merge(b);
    EXPECT_EQ(a.total, 3u);
    EXPECT_EQ(a.counts[0], 1u);
    EXPECT_EQ(a.counts[1], 1u);
    EXPECT_EQ(a.counts[2], 1u);
}

// ---------------------------------------------------------------------
// Percentile-capable latency distributions (the service families).
// ---------------------------------------------------------------------

TEST(Metrics, LogSpacedEdgesCoverRangeStrictlyIncreasing)
{
    auto edges = metrics::logSpacedEdges(1e3, 1e6, 4);
    ASSERT_FALSE(edges.empty());
    EXPECT_DOUBLE_EQ(edges.front(), 1e3);
    EXPECT_GE(edges.back(), 1e6);
    for (size_t i = 1; i < edges.size(); ++i)
        EXPECT_LT(edges[i - 1], edges[i]);
    // 4 edges per decade over 3 decades, inclusive of both endpoints.
    EXPECT_EQ(edges.size(), 13u);
}

TEST(Metrics, QuantileInterpolatesWithinBuckets)
{
    // 100 observations of value 15 in bucket [10, 20): every quantile
    // lands inside that bucket's span.
    Distribution d({10, 20, 40});
    d.observe(15.0, 100);
    EXPECT_GE(d.quantile(0.5), 10.0);
    EXPECT_LE(d.quantile(0.5), 20.0);

    // Uniform spread across three buckets: p50 falls in the middle one
    // and the ordering p50 <= p95 <= p99 holds.
    Distribution u({10, 20, 40});
    u.observe(5.0, 10);   // [0, 10)
    u.observe(15.0, 10);  // [10, 20)
    u.observe(30.0, 10);  // [20, 40)
    double p50 = u.quantile(0.5);
    EXPECT_GE(p50, 10.0);
    EXPECT_LE(p50, 20.0);
    EXPECT_LE(p50, u.quantile(0.95));
    EXPECT_LE(u.quantile(0.95), u.quantile(0.99));

    // Overflow saturates at the last edge; empty distribution is 0.
    Distribution o({10, 20});
    o.observe(1e9, 4);
    EXPECT_DOUBLE_EQ(o.quantile(0.5), 20.0);
    EXPECT_DOUBLE_EQ(Distribution({10, 20}).quantile(0.5), 0.0);
}

TEST(Metrics, QuantileSurvivesMerge)
{
    // A warm shard (fast requests) merged with a cold shard (slow
    // requests): the merged p50 sits between the two modes and the
    // high percentiles move to the slow mode's bucket.
    auto edges = metrics::logSpacedEdges(1e3, 1e8, 4);
    Distribution warm(edges), cold(edges), merged(edges);
    warm.observe(5e3, 900);
    cold.observe(5e6, 100);
    merged.merge(warm);
    merged.merge(cold);
    EXPECT_EQ(merged.total, 1000u);
    double p50 = merged.quantile(0.5);
    EXPECT_GE(p50, 1e3);
    EXPECT_LE(p50, 1e4);  // still in the fast mode
    double p99 = merged.quantile(0.99);
    EXPECT_GE(p99, 1e6);  // dominated by the slow mode
}

TEST(Metrics, LatencyDistributionRoundTripsThroughJson)
{
    Report rep;
    metrics::Run& r = rep.run("loadgen");
    auto& d = r.families["latency"]
                  .at({{"kind", "hit"}})
                  .dist("latency_ns", metrics::logSpacedEdges(1e3, 1e9, 4));
    d.observe(4.2e4, 17);
    d.observe(9e6, 3);
    double p50 = d.quantile(0.5), p99 = d.quantile(0.99);

    std::string text = metrics::toJson(rep);
    Report back;
    std::string err;
    ASSERT_TRUE(metrics::parseReport(text, &back, &err)) << err;
    const auto* p = back.runs[0].families.at("latency").find(
        {{"kind", "hit"}});
    ASSERT_NE(p, nullptr);
    const Distribution& dd = p->metrics.dists.at("latency_ns");
    EXPECT_EQ(dd.total, 20u);
    // Quantiles are derived state: they must survive the round trip
    // bit-for-bit because edges/counts/total do.
    EXPECT_DOUBLE_EQ(dd.quantile(0.5), p50);
    EXPECT_DOUBLE_EQ(dd.quantile(0.99), p99);
}

TEST(Metrics, ReaderRejectsMalformedDistribution)
{
    // Structurally invalid runs must be rejected, not misread, with an
    // error naming the offending distribution or family.
    struct Case
    {
        const char* run;    // the run object's members after "name"
        const char* expect; // substring the error must contain
    };
    const Case cases[] = {
        // A distribution whose counts length does not match edges + 1.
        {"\"metrics\": {\"dists\": {\"latency_ns\": {\"edges\": [1, 2],"
         " \"counts\": [1, 2], \"total\": 3, \"sum\": 4.0}}}",
         "latency_ns"},
        // A family is an array of points, not an object holding one.
        {"\"families\": {\"hw\": {\"points\": []}}", "'hw'"},
        // Families are keyed by name, not listed.
        {"\"families\": [1]", "'families'"},
        // Every point is an object of labels and metrics.
        {"\"families\": {\"hw\": [1]}", "'hw'"},
    };
    for (const Case& c : cases) {
        std::string text =
            "{\"schema\": \"phloem-report\", \"version\": 1, \"meta\": {},"
            " \"runs\": [{\"name\": \"x\", " +
            std::string(c.run) + "}]}";
        Report out;
        std::string err;
        EXPECT_FALSE(metrics::parseReport(text, &out, &err)) << c.run;
        EXPECT_NE(err.find(c.expect), std::string::npos) << err;
    }
}

// ---------------------------------------------------------------------
// Labeled families.
// ---------------------------------------------------------------------

TEST(Metrics, FamilyMergeByLabels)
{
    metrics::Family fam;
    fam.at({{"queue", "0"}}).addCounter("enq", 10);
    fam.at({{"queue", "1"}}).addCounter("enq", 20);

    metrics::Family other;
    other.at({{"queue", "1"}}).addCounter("enq", 5);   // same labels: add
    other.at({{"queue", "2"}}).addCounter("enq", 7);   // new point
    fam.merge(other);

    ASSERT_EQ(fam.points.size(), 3u);
    EXPECT_EQ(fam.find({{"queue", "0"}})->metrics.counters.at("enq"), 10u);
    EXPECT_EQ(fam.find({{"queue", "1"}})->metrics.counters.at("enq"), 25u);
    EXPECT_EQ(fam.find({{"queue", "2"}})->metrics.counters.at("enq"), 7u);
    EXPECT_EQ(fam.find({{"queue", "9"}}), nullptr);
}

TEST(Metrics, MetricSetMergeSemantics)
{
    metrics::MetricSet a, b;
    a.addCounter("n", 1);
    a.setGauge("g", 1.0);
    b.addCounter("n", 2);
    b.setGauge("g", 2.0);
    a.merge(b);
    EXPECT_EQ(a.counters.at("n"), 3u);       // counters add
    EXPECT_DOUBLE_EQ(a.gauges.at("g"), 2.0); // gauges: last writer wins
}

// ---------------------------------------------------------------------
// JSON round-trip.
// ---------------------------------------------------------------------

TEST(Metrics, ReportRoundTripsHostileNames)
{
    Report rep;
    rep.meta["note"] = "quotes \" backslash \\ newline \n tab \t";
    // Names with quotes, backslashes, and non-ASCII (UTF-8) must survive
    // serialize -> parse unchanged — this is what the hand-rolled
    // bench_native serializer got wrong for backslashes.
    std::string hostile = "sp\"m\\v-\xC3\xA9\xE2\x82\xAC";  // é €
    metrics::Run& r = rep.run(hostile, {{"backend", "native"}});
    r.top.addCounter("instructions", 12345678901234ull);
    r.top.setGauge("wall_ns", 1.25e9);
    r.families["queue"].at({{"queue", "0"}}).addCounter("enq", 7);
    auto& d = r.families["queue"]
                  .at({{"queue", "0"}})
                  .dist("push_batch", {2, 4});
    d.observe(3.0, 2);

    std::string text = metrics::toJson(rep);
    Report back;
    std::string err;
    ASSERT_TRUE(metrics::parseReport(text, &back, &err)) << err;
    EXPECT_EQ(back.meta.at("note"), rep.meta.at("note"));
    const metrics::Run* rr =
        back.findRun(hostile, {{"backend", "native"}});
    ASSERT_NE(rr, nullptr);
    // Counters must round-trip exactly (not through double).
    EXPECT_EQ(rr->top.counters.at("instructions"), 12345678901234ull);
    EXPECT_DOUBLE_EQ(rr->top.gauges.at("wall_ns"), 1.25e9);
    const auto* qp = rr->families.at("queue").find({{"queue", "0"}});
    ASSERT_NE(qp, nullptr);
    EXPECT_EQ(qp->metrics.counters.at("enq"), 7u);
    const Distribution& dd = qp->metrics.dists.at("push_batch");
    EXPECT_EQ(dd.total, 2u);
    EXPECT_EQ(dd.counts[1], 2u);
    EXPECT_DOUBLE_EQ(dd.sum, 6.0);

    // Serialization is deterministic: same report, same bytes.
    EXPECT_EQ(metrics::toJson(back), text);
}

TEST(Metrics, ReaderRejectsUnknownSchemaVersion)
{
    Report rep;
    rep.run("x");
    std::string text = metrics::toJson(rep);
    std::string bumped = text;
    size_t at = bumped.find("\"version\": 1");
    ASSERT_NE(at, std::string::npos);
    bumped.replace(at, 12, "\"version\": 99");

    Report out;
    std::string err;
    EXPECT_FALSE(metrics::parseReport(bumped, &out, &err));
    // The error must name both the found and the supported version.
    EXPECT_NE(err.find("99"), std::string::npos) << err;
    EXPECT_NE(err.find("1"), std::string::npos) << err;

    std::string wrong_schema = text;
    at = wrong_schema.find("phloem-report");
    ASSERT_NE(at, std::string::npos);
    wrong_schema.replace(at, 13, "something-else");
    EXPECT_FALSE(metrics::parseReport(wrong_schema, &out, &err));

    EXPECT_FALSE(metrics::parseReport("{not json", &out, &err));

    // Hostile nesting is a parse error, not a stack overflow: 1 MB of
    // '[' used to crash phloem-report (and phloemd, which parses every
    // frame with the same parser).
    EXPECT_FALSE(metrics::parseReport(std::string(1 << 20, '['), &out, &err));
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;
    std::string deep = std::string(metrics::Json::kMaxDepth, '[') +
                       std::string(metrics::Json::kMaxDepth, ']');
    metrics::Json j;
    EXPECT_TRUE(metrics::Json::parse(deep, &j, &err)) << err;
    EXPECT_FALSE(metrics::Json::parse("[" + deep + "]", &j, &err));
}

// ---------------------------------------------------------------------
// Diff tolerance classes.
// ---------------------------------------------------------------------

TEST(Metrics, DiffFlagsExactCounterDrift)
{
    Report oldRep, newRep;
    oldRep.run("k").top.addCounter("instructions", 1000);
    newRep.run("k").top.addCounter("instructions", 1001);
    auto result = metrics::diffReports(oldRep, newRep, {});
    EXPECT_EQ(result.regressions, 1);
}

TEST(Metrics, DiffToleratesWallClockNoise)
{
    Report oldRep, newRep;
    oldRep.run("k").top.setGauge("wall_ns", 1e9);
    newRep.run("k").top.setGauge("wall_ns", 1.8e9);  // +80% < 100% tol
    auto result = metrics::diffReports(oldRep, newRep, {});
    EXPECT_EQ(result.regressions, 0);

    newRep.runs[0].top.setGauge("wall_ns", 2.5e9);  // +150% > tol
    result = metrics::diffReports(oldRep, newRep, {});
    EXPECT_EQ(result.regressions, 1);

    // Lower-is-better: a large drop in deterministic cycles counts as
    // an improvement, not a regression (wall_ns's 100% tolerance is too
    // loose for any drop to clear it).
    oldRep.runs[0].top.setGauge("cycles", 1000.0);
    newRep.runs[0].top.setGauge("wall_ns", 1e9);
    newRep.runs[0].top.setGauge("cycles", 100.0);
    result = metrics::diffReports(oldRep, newRep, {});
    EXPECT_EQ(result.regressions, 0);
    EXPECT_EQ(result.improvements, 1);
}

TEST(Metrics, DiffNeverGatesSchedulingNoise)
{
    Report oldRep, newRep;
    oldRep.run("k").top.addCounter("enq_blocks", 100);
    newRep.run("k").top.addCounter("enq_blocks", 100000);
    // The pool size is the core count of the host that ran the report.
    oldRep.runs[0].top.setGauge("sched_pool_size", 1.0);
    newRep.runs[0].top.setGauge("sched_pool_size", 4.0);
    // Context switches are a host measurement; as a plain counter it
    // would otherwise gate exactly.
    oldRep.runs[0].top.addCounter("ru_ctxsw_voluntary", 10);
    newRep.runs[0].top.addCounter("ru_ctxsw_voluntary", 10000);
    auto result = metrics::diffReports(oldRep, newRep, {});
    EXPECT_EQ(result.regressions, 0);
    EXPECT_EQ(result.infoChanges, 3);

    // ...unless an explicit override asks for it.
    metrics::DiffOptions opts;
    opts.tolOverrides["enq_blocks"] = 0.5;
    result = metrics::diffReports(oldRep, newRep, opts);
    EXPECT_EQ(result.regressions, 1);
}

TEST(Metrics, DiffDetectsMissingMetric)
{
    Report oldRep, newRep;
    oldRep.run("k").top.addCounter("instructions", 10);
    newRep.run("k");
    auto result = metrics::diffReports(oldRep, newRep, {});
    EXPECT_EQ(result.regressions, 1);
    ASSERT_FALSE(result.entries.empty());
    EXPECT_EQ(result.entries[0].verdict, metrics::Verdict::kMissing);
}

// ---------------------------------------------------------------------
// Consistency checkers.
// ---------------------------------------------------------------------

sim::RunStats
violatingSimStats()
{
    sim::RunStats stats;
    sim::ThreadStats t;
    t.name = "broken";
    t.startCycle = 0;
    t.cycles = 100;
    // Accounted busy-cycles exceed active cycles: backendCycles() would
    // silently clamp the negative residual.
    t.issueCycles = 80;
    t.queueStallCycles = 40;
    t.frontendCycles = 0;
    stats.threads.push_back(t);
    return stats;
}

TEST(Metrics, CheckerCatchesOverAccountedThread)
{
    auto problems = metrics::checkSimStats(violatingSimStats());
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("broken"), std::string::npos);

    // A consistent run passes.
    sim::RunStats ok = violatingSimStats();
    ok.threads[0].queueStallCycles = 10;
    EXPECT_TRUE(metrics::checkSimStats(ok).empty());
}

TEST(Metrics, CheckerCatchesQueueImbalance)
{
    sim::RunStats stats;
    sim::QueueSimStats q;
    q.id = 3;
    q.enq = 100;
    q.deq = 90;
    q.residual = 5;  // 90 + 5 != 100
    stats.queues.push_back(q);
    auto problems = metrics::checkSimStats(stats);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("queue 3"), std::string::npos);

    rt::NativeStats nstats;
    rt::QueueStats nq;
    nq.id = 1;
    nq.capacity = 4;
    nq.enq = 7;
    nq.deq = 7;
    nq.residual = 1;
    nstats.queues.push_back(nq);
    EXPECT_EQ(metrics::checkNativeStats(nstats).size(), 1u);
    nstats.queues[0].residual = 0;
    EXPECT_TRUE(metrics::checkNativeStats(nstats).empty());
}

/** A balanced native ring of capacity 4 that once held all 4 slots. */
rt::NativeStats
fullRingStats()
{
    rt::NativeStats stats;
    rt::QueueStats q;
    q.id = 2;
    q.capacity = 4;
    q.enq = 10;
    q.deq = 6;
    q.residual = 4;
    q.maxOccupancy = 4;
    stats.queues.push_back(q);
    return stats;
}

TEST(Metrics, CheckerCatchesOccupancyPastCapacity)
{
    EXPECT_TRUE(metrics::checkNativeStats(fullRingStats()).empty());
    rt::NativeStats stats = fullRingStats();
    stats.queues[0].maxOccupancy = 5;
    auto problems = metrics::checkNativeStats(stats);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("queue 2: max occupancy (5) > capacity (4)"),
              std::string::npos)
        << problems[0];
}

TEST(Metrics, CheckerCatchesResidualPastCapacity)
{
    // Books balance (10 = 5 + 5), but a capacity-4 ring cannot end the
    // run holding 5 values.
    rt::NativeStats stats = fullRingStats();
    stats.queues[0].deq = 5;
    stats.queues[0].residual = 5;
    auto problems = metrics::checkNativeStats(stats);
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("queue 2: residual (5) > capacity (4)"),
              std::string::npos)
        << problems[0];
}

TEST(Metrics, RealPipelinedSimRunBalancesBooks)
{
    // Regression: stall windows used to re-charge the pending partial
    // issue cycle that chargeUops had already booked to issueCycles, so
    // a queue-throttled run over-attributed by a fraction of a cycle
    // per stall and this check failed. A producer racing a consumer
    // through one bounded queue stalls thousands of times.
    ir::Pipeline p;
    {
        ir::FunctionBuilder b("prod");
        b.arrayParam("out", ir::ElemType::kI64, true);
        ir::RegId count = b.scalarParam("n");
        b.forRange(b.constI(0), count,
                   [&](ir::RegId i) { b.enq(0, i); });
        b.enqCtrl(0, ir::kCtrlLast);
        p.stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("cons");
        ir::ArrayId out = b.arrayParam("out", ir::ElemType::kI64, true);
        b.scalarParam("n");
        b.loop([&] {
            ir::RegId v = b.deq(0);
            b.if_(b.isControl(v), [&] { b.break_(); });
            b.store(out, v, v);
        });
        p.stages.push_back(b.finish());
    }
    const int64_t n = 5000;
    sim::Binding binding;
    binding.makeArray("out", ir::ElemType::kI64, n);
    binding.setScalarInt("n", n);
    sim::Machine m{sim::SysConfig{}};
    sim::RunStats stats = m.runPipeline(p, binding);
    ASSERT_FALSE(stats.deadlock);
    EXPECT_TRUE(metrics::checkSimStats(stats).empty());
}

TEST(Metrics, StrictStatsThrowsOnViolation)
{
    // With PHLOEM_STRICT_STATS=1, finalizing inconsistent stats into a
    // metrics run throws in any build type.
    ::setenv("PHLOEM_STRICT_STATS", "1", 1);
    EXPECT_TRUE(metrics::strictStats());
    EXPECT_THROW(metrics::simRunToMetrics("x", violatingSimStats()),
                 std::runtime_error);
    ::unsetenv("PHLOEM_STRICT_STATS");
    EXPECT_FALSE(metrics::strictStats());
    EXPECT_NO_THROW(metrics::simRunToMetrics("x", violatingSimStats()));
}

// ---------------------------------------------------------------------
// Config fingerprint.
// ---------------------------------------------------------------------

TEST(Metrics, ConfigFingerprintTracksParameters)
{
    sim::SysConfig a, b;
    EXPECT_EQ(metrics::configFingerprint(a),
              metrics::configFingerprint(b));
    b.queueDepth += 1;
    EXPECT_NE(metrics::configFingerprint(a),
              metrics::configFingerprint(b));
}

} // namespace
} // namespace phloem
