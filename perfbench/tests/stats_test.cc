// Unit tests of the benchmark's summary statistics and span self times.

#include <gtest/gtest.h>

#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Stats, MedianOddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, NearestRankPercentile)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(101 - i);  // unsorted input
    EXPECT_DOUBLE_EQ(percentile(v, 90), 90.0);
    EXPECT_DOUBLE_EQ(percentile(v, 95), 95.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 100.0);
    EXPECT_DOUBLE_EQ(percentile({7}, 90), 7.0);
    EXPECT_DOUBLE_EQ(percentile({}, 90), 0.0);
    EXPECT_DOUBLE_EQ(percentile({1, 2, 3}, 50), 2.0);
}

TEST(Stats, SamplesBeyondPercentile)
{
    // p90 over 100 samples rests on 10 samples above it; over 99, on 9.
    EXPECT_EQ(samplesBeyond(100, 90), 10u);
    EXPECT_EQ(samplesBeyond(99, 90), 9u);
    EXPECT_EQ(samplesBeyond(200, 95), 10u);
    EXPECT_EQ(samplesBeyond(1, 90), 0u);
    EXPECT_EQ(samplesBeyond(0, 90), 0u);
}

TEST(Stats, Gmean)
{
    EXPECT_NEAR(gmean({1, 4}), 2.0, 1e-12);
    EXPECT_NEAR(gmean({2, 2, 2}), 2.0, 1e-12);
    EXPECT_NEAR(gmean({0.5, 2}), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(gmean({}), 0.0);
}

Span
span(const char* name, int64_t start, int64_t end, int parent)
{
    Span s;
    s.name = name;
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    s.rep = 0;
    return s;
}

TEST(Spans, SelfTimeSubtractsChildren)
{
    std::vector<Span> spans = {
        span("bench.op", 0, 100, -1),
        span("runtime.runPipeline", 10, 40, 0),
        span("workloads.check", 50, 60, 0),
        span("runtime.inner", 15, 25, 1),
    };
    auto self = selfTimesNs(spans);
    EXPECT_DOUBLE_EQ(self[0], 60.0);  // 100 - 30 - 10
    EXPECT_DOUBLE_EQ(self[1], 20.0);  // 30 - 10
    EXPECT_DOUBLE_EQ(self[2], 10.0);
    EXPECT_DOUBLE_EQ(self[3], 10.0);
}

TEST(Spans, SelfTimeMergesOverlapsAndClips)
{
    std::vector<Span> spans = {
        span("service.call", 0, 100, -1),
        span("a.x", 10, 50, 0),
        span("a.y", 30, 70, 0),    // overlaps a.x: covered 10..70
        span("a.z", 90, 130, 0),   // clipped to the parent: 90..100
    };
    auto self = selfTimesNs(spans);
    EXPECT_DOUBLE_EQ(self[0], 100.0 - 60.0 - 10.0);
}

TEST(Spans, TimedRecordsNestingOnlyWhenEnabled)
{
    SpanLog on(true), off(false);
    for (SpanLog* log : {&on, &off}) {
        Timed outer(*log, "bench.op", 3);
        {
            Timed inner(*log, "runtime.runPipeline", 3);
            EXPECT_GE(inner.stop(), 0.0);
        }
        outer.stop();
    }
    ASSERT_EQ(on.spans().size(), 2u);
    EXPECT_EQ(on.spans()[1].parent, 0);
    EXPECT_EQ(on.spans()[0].parent, -1);
    EXPECT_EQ(on.spans()[1].rep, 3);
    EXPECT_TRUE(off.spans().empty());

    auto by_module = selfNsByModule({&on});
    EXPECT_EQ(by_module.count("bench"), 1u);
    EXPECT_EQ(by_module.count("runtime"), 1u);
}

} // namespace
} // namespace perfbench
