/**
 * @file
 * Unit and property tests for the Phloem compiler: the cost model, the
 * decoupler's invariants (any legal cut set preserves semantics), the
 * aliasing discipline (Fig. 4's race must be prevented), the individual
 * passes, the autotuner, and the replication transform.
 */

#include "tests/test_util.h"

#include "base/rng.h"
#include "compiler/autotune.h"
#include "compiler/cost_model.h"
#include "compiler/passes.h"
#include "ir/walk.h"
#include "workloads/kernels.h"

namespace phloem {
namespace {

using test::expectPipelineMatchesSerial;

// ---------------------------------------------------------------------
// Cost model.
// ---------------------------------------------------------------------

TEST(CostModel, RanksIndirectDeepLoadsFirst)
{
    auto kernel = fe::compileKernel(wl::kBfsSerial);
    auto ranked = comp::rankCutPoints(*kernel.fn);
    ASSERT_GE(ranked.size(), 3u);
    // The deepest indirect access (distances) outranks everything; the
    // sequential fringe load comes last.
    EXPECT_TRUE(ranked.front().indirect);
    EXPECT_NE(ranked.front().desc.find("dist"), std::string::npos);
    EXPECT_NE(ranked.back().desc.find("cur_fringe"), std::string::npos);
    for (size_t i = 1; i < ranked.size(); ++i)
        EXPECT_LE(ranked[i].score, ranked[i - 1].score);
}

TEST(CostModel, GroupsAdjacentAccesses)
{
    // nodes[v] and nodes[v+1] must form one candidate group (paper
    // Sec. V: nearby accesses are biased to stay together).
    auto kernel = fe::compileKernel(wl::kBfsSerial);
    auto ranked = comp::rankCutPoints(*kernel.fn);
    int nodes_candidates = 0;
    for (const auto& c : ranked) {
        if (c.desc.find("nodes") != std::string::npos) {
            nodes_candidates++;
            EXPECT_EQ(c.groupLoads.size(), 2u);
        }
    }
    EXPECT_EQ(nodes_candidates, 1);
}

TEST(CostModel, ConstPlusInductionIsSequential)
{
    // Regression: `val[2 + i]` (constant on the left of the +) was
    // classified as an indirect access because only the `i + 2` operand
    // order was recognized — a 5x score inflation that promoted a plain
    // streaming load above the kernel's real indirection. kAdd is
    // commutative.
    const char* src = R"(
void k(const int* restrict col, const float* restrict x,
       const float* restrict val, float* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        float a = val[2 + i];
        float b = x[col[i]];
        out[i] = a + b;
    }
})";
    auto kernel = fe::compileKernel(src);
    auto ranked = comp::rankCutPoints(*kernel.fn);
    const comp::CutCandidate* val = nullptr;
    const comp::CutCandidate* ind = nullptr;
    for (const auto& c : ranked) {
        if (c.desc.find("of val") != std::string::npos)
            val = &c;
        if (c.desc.find("of x") != std::string::npos)
            ind = &c;
    }
    ASSERT_NE(val, nullptr);
    ASSERT_NE(ind, nullptr);
    EXPECT_FALSE(val->indirect) << val->desc;
    EXPECT_TRUE(ind->indirect) << ind->desc;
    EXPECT_GT(ind->score, val->score)
        << "the real indirection must outrank the streaming load";
}

TEST(CostModel, GroupsCommutativeOffsetForms)
{
    // row[i] and row[1 + i] are one access group no matter which side
    // of the + the constant is written on (same adjacency bias as the
    // row[i], row[i + 1] pair GroupsAdjacentAccesses covers).
    const char* src = R"(
void k(const int* restrict row, int* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        int a = row[i];
        int b = row[1 + i];
        out[i] = a + b;
    }
})";
    auto kernel = fe::compileKernel(src);
    auto ranked = comp::rankCutPoints(*kernel.fn);
    int row_candidates = 0;
    for (const auto& c : ranked) {
        if (c.desc.find("of row") != std::string::npos) {
            row_candidates++;
            EXPECT_EQ(c.groupLoads.size(), 2u);
        }
    }
    EXPECT_EQ(row_candidates, 1);
}

// ---------------------------------------------------------------------
// Aliasing discipline (paper Fig. 4).
// ---------------------------------------------------------------------

TEST(AliasRules, ReadWriteSameArrayCollapses)
{
    // dist is read and written in the same loop: after any decoupling,
    // exactly one stage may access it (plus prefetches).
    auto kernel = fe::compileKernel(wl::kBfsSerial);
    auto res = comp::compilePipeline(*kernel.fn);
    ASSERT_TRUE(res.ok());
    int stages_accessing = 0;
    for (const auto& stage : res.pipeline->stages) {
        bool touches = false;
        ir::forEachOp(stage->body, [&](const ir::Op& op) {
            if (!ir::usesArray(op.opcode) ||
                op.opcode == ir::Opcode::kPrefetch) {
                return;
            }
            if (op.arr >= 0 &&
                stage->arrays[static_cast<size_t>(op.arr)].name ==
                    "dist") {
                touches = true;
            }
        });
        if (touches)
            stages_accessing++;
    }
    EXPECT_EQ(stages_accessing, 1)
        << "Fig. 4 race: dist reads and writes split across stages";
}

TEST(AliasRules, MayAliasPointersCollapse)
{
    // Without restrict, b and c may alias: writes through them must not
    // split across stages; outputs must match serial for every cut.
    const char* src = R"(
void k(const int* restrict a, int* b, int* c, int n) {
    for (int i = 0; i < n; i++) {
        int x = a[i];
        b[x] = i;
        int y = c[x];
        b[i] = y + 1;
    }
})";
    auto kernel = fe::compileKernel(src);
    for (int cut = 1; cut < kernel.fn->nextOpId; ++cut) {
        auto res = comp::decouple(*kernel.fn, {cut});
        if (res.pipeline->stages.size() < 2)
            continue;
        expectPipelineMatchesSerial(
            *kernel.fn, *res.pipeline,
            [](sim::Binding& b) {
                Rng rng(5);
                const int n = 200;
                auto* a = b.makeArray("a", ir::ElemType::kI32, n);
                for (int i = 0; i < n; ++i)
                    a->setInt(i, static_cast<int64_t>(
                                     rng.nextBounded(n)));
                b.makeArray("b", ir::ElemType::kI32, n);
                b.makeArray("c", ir::ElemType::kI32, n);
                b.setScalarInt("n", n);
            },
            {"b", "c"});
    }
}

// ---------------------------------------------------------------------
// Decoupler property tests: every cut-set of BFS must be correct.
// ---------------------------------------------------------------------

void
setupSmallBfs(sim::Binding& b)
{
    Rng rng(17);
    const int n = 400;
    std::vector<std::vector<int32_t>> adj(n);
    for (int v = 0; v < n; ++v) {
        int d = static_cast<int>(rng.nextBounded(5));
        for (int k = 0; k < d; ++k)
            adj[static_cast<size_t>(v)].push_back(
                static_cast<int32_t>(rng.nextBounded(n)));
    }
    int64_t m = 0;
    for (const auto& l : adj)
        m += static_cast<int64_t>(l.size());
    auto* nodes = b.makeArray("nodes", ir::ElemType::kI32, n + 1);
    auto* edges =
        b.makeArray("edges", ir::ElemType::kI32,
                    static_cast<size_t>(std::max<int64_t>(1, m)));
    int64_t p = 0;
    for (int v = 0; v < n; ++v) {
        nodes->setInt(v, static_cast<int64_t>(p));
        for (int32_t u : adj[static_cast<size_t>(v)])
            edges->setInt(p++, u);
    }
    nodes->setInt(n, static_cast<int64_t>(p));
    auto* dist = b.makeArray("dist", ir::ElemType::kI32, n);
    dist->fillInt(2147483647);
    b.makeArray("cur_fringe", ir::ElemType::kI32,
                static_cast<size_t>(m) + 1);
    b.makeArray("next_fringe", ir::ElemType::kI32,
                static_cast<size_t>(m) + 1);
    b.setScalarInt("n", n);
    b.setScalarInt("root", 0);
}

class BfsCutSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(BfsCutSweep, SingleCutPreservesSemantics)
{
    auto kernel = fe::compileKernel(wl::kBfsSerial);
    int cut = GetParam();
    if (cut >= kernel.fn->nextOpId)
        GTEST_SKIP();
    auto res = comp::decouple(*kernel.fn, {cut});
    if (res.pipeline->stages.size() < 2)
        GTEST_SKIP();
    expectPipelineMatchesSerial(*kernel.fn, *res.pipeline, setupSmallBfs,
                                {"dist"});
}

INSTANTIATE_TEST_SUITE_P(AllOps, BfsCutSweep, ::testing::Range(1, 40));

TEST(Decoupler, RandomCutPairsPreserveSemantics)
{
    auto kernel = fe::compileKernel(wl::kBfsSerial);
    Rng rng(23);
    int tested = 0;
    for (int trial = 0; trial < 12; ++trial) {
        int c1 = 1 + static_cast<int>(rng.nextBounded(
                         static_cast<uint64_t>(kernel.fn->nextOpId - 1)));
        int c2 = 1 + static_cast<int>(rng.nextBounded(
                         static_cast<uint64_t>(kernel.fn->nextOpId - 1)));
        if (c1 == c2)
            continue;
        auto res = comp::decouple(*kernel.fn, {c1, c2});
        if (res.pipeline->stages.size() < 2)
            continue;
        expectPipelineMatchesSerial(*kernel.fn, *res.pipeline,
                                    setupSmallBfs, {"dist"});
        tested++;
    }
    EXPECT_GE(tested, 5);
}

TEST(Decoupler, FullPassStackOnRandomCuts)
{
    // The full pass stack (forward/RA/CV/DCE/CH) must also preserve
    // semantics regardless of which cut points were chosen.
    auto kernel = fe::compileKernel(wl::kBfsSerial);
    Rng rng(31);
    int tested = 0;
    for (int trial = 0; trial < 8 && tested < 4; ++trial) {
        int c1 = 1 + static_cast<int>(rng.nextBounded(
                         static_cast<uint64_t>(kernel.fn->nextOpId - 1)));
        comp::CompileOptions opts;
        opts.explicitCuts = {c1};
        opts.maxQueues = 64;
        auto res = comp::compilePipeline(*kernel.fn, opts);
        if (res.pipeline == nullptr || res.pipeline->stages.size() < 2)
            continue;
        expectPipelineMatchesSerial(*kernel.fn, *res.pipeline,
                                    setupSmallBfs, {"dist"});
        tested++;
    }
    EXPECT_GE(tested, 2);
}

// ---------------------------------------------------------------------
// Pass-level checks.
// ---------------------------------------------------------------------

TEST(Passes, FullBfsPipelineUsesChainedRAs)
{
    auto kernel = fe::compileKernel(wl::kBfsSerial);
    auto res = comp::compilePipeline(*kernel.fn);
    ASSERT_TRUE(res.ok());
    // Paper shape: nodes INDIRECT chained into edges SCAN, middle stage
    // elided, handlers installed.
    EXPECT_EQ(res.pipeline->ras.size(), 2u);
    bool chained = false;
    for (const auto& ra : res.pipeline->ras) {
        for (const auto& other : res.pipeline->ras) {
            if (&ra != &other && ra.outQueue == other.inQueue)
                chained = true;
        }
    }
    EXPECT_TRUE(chained);
    int handlers = 0;
    for (const auto& stage : res.pipeline->stages)
        handlers += static_cast<int>(stage->handlers.size());
    EXPECT_GE(handlers, 1);
}

TEST(Passes, DisablingRAsKeepsLoadsInStages)
{
    auto kernel = fe::compileKernel(wl::kBfsSerial);
    comp::CompileOptions opts;
    opts.referenceAccelerators = false;
    auto res = comp::compilePipeline(*kernel.fn, opts);
    ASSERT_TRUE(res.pipeline != nullptr);
    EXPECT_TRUE(res.pipeline->ras.empty());
}

TEST(Passes, QueueIdsStayWithinArchitecturalBudget)
{
    for (const char* src :
         {wl::kBfsSerial, wl::kCcSerial, wl::kRadiiSerial}) {
        auto kernel = fe::compileKernel(src);
        auto res = comp::compilePipeline(*kernel.fn);
        ASSERT_TRUE(res.ok()) << (res.problems.empty()
                                      ? "?"
                                      : res.problems.front());
        EXPECT_LE(res.pipeline->numQueues(), 16);
        EXPECT_LE(res.pipeline->ras.size(), 4u);
    }
}

// ---------------------------------------------------------------------
// Autotuner.
// ---------------------------------------------------------------------

TEST(Autotune, PicksBestCandidateBySyntheticScore)
{
    auto kernel = fe::compileKernel(wl::kBfsSerial);
    comp::AutotuneOptions opts;
    opts.topK = 4;
    // Synthetic evaluator: prefer exactly 3-stage pipelines.
    auto result = comp::autotuneMeasured(
        *kernel.fn, opts,
        [](const ir::Pipeline& p, const comp::SearchPoint&) {
            comp::CandidateProfile prof;
            prof.speedup = p.stages.size() == 3 ? 2.0 : 1.0;
            return prof;
        });
    ASSERT_TRUE(result.best.pipeline != nullptr);
    EXPECT_EQ(result.best.pipeline->stages.size(), 3u);
    EXPECT_DOUBLE_EQ(result.bestTrainingSpeedup, 2.0);
    // The paper generates "no fewer than fifty" candidates at full K;
    // with topK=4 we expect C(4,1)+C(4,2)+C(4,3) compiled candidates
    // minus any that failed verification.
    EXPECT_GE(result.entries.size(), 8u);
}

TEST(Autotune, RejectsFailingPipelines)
{
    auto kernel = fe::compileKernel(wl::kBfsSerial);
    comp::AutotuneOptions opts;
    opts.topK = 3;
    auto result = comp::autotuneMeasured(
        *kernel.fn, opts, [](const ir::Pipeline&, const comp::SearchPoint&) {
            return comp::CandidateProfile{};  // speedup 0 rejects
        });
    EXPECT_EQ(result.best.pipeline, nullptr);
    EXPECT_DOUBLE_EQ(result.bestTrainingSpeedup, 0.0);
    // Regression: rejected candidates used to be pushed into `entries`
    // with speedup 0, polluting the Fig. 13 distribution. They are
    // tallied separately now, each with a reason.
    EXPECT_TRUE(result.entries.empty());
    EXPECT_EQ(result.rejects.size(),
              static_cast<size_t>(result.profiled));
    for (const auto& r : result.rejects)
        EXPECT_FALSE(r.reason.empty());
}

TEST(Autotune, TruncationKeepsAllCutSetSizes)
{
    // Regression: a budget smaller than the enumeration used to
    // resize() the combo list, silently dropping every cut set of the
    // larger sizes. The truncation must be round-robin across sizes
    // (and announced in the notes).
    auto kernel = fe::compileKernel(wl::kBfsSerial);
    comp::AutotuneOptions opts;
    opts.topK = 6;
    opts.maxCandidates = 6;
    opts.refineRounds = 0;
    auto result = comp::autotuneMeasured(
        *kernel.fn, opts, [](const ir::Pipeline&, const comp::SearchPoint&) {
            comp::CandidateProfile prof;
            prof.speedup = 1.0;
            return prof;
        });
    bool noted = false;
    for (const auto& n : result.notes)
        noted = noted || n.find("truncated") != std::string::npos;
    EXPECT_TRUE(noted);
    std::set<size_t> sizes;
    for (const auto& e : result.entries)
        sizes.insert(e.point.cutOps.size());
    for (const auto& r : result.rejects)
        sizes.insert(r.point.cutOps.size());
    EXPECT_EQ(sizes.count(1), 1u);
    EXPECT_EQ(sizes.count(2), 1u);
    EXPECT_EQ(sizes.count(3), 1u);
}

TEST(Autotune, CalibrationRanksSeedCandidates)
{
    // Every accepted seed candidate gets a predicted and a measured
    // rank; the model's favorite ranks first on a measurement that
    // agrees with the prediction order.
    auto kernel = fe::compileKernel(wl::kBfsSerial);
    comp::AutotuneOptions opts;
    opts.topK = 4;
    opts.refineRounds = 0;
    // Measured speedup proportional to predicted score: a perfectly
    // calibrated model.
    auto result = comp::autotuneMeasured(
        *kernel.fn, opts,
        [&](const ir::Pipeline&, const comp::SearchPoint& p) {
            comp::CandidateProfile prof;
            auto ranked = comp::rankCutPoints(*kernel.fn);
            for (int cut : p.cutOps) {
                double best = 0;
                for (const auto& c : ranked)
                    if (c.cutOp == cut)
                        best = std::max(best, c.score);
                prof.speedup += best;
            }
            return prof;
        });
    ASSERT_FALSE(result.entries.empty());
    EXPECT_EQ(result.calibration.seedCandidates,
              static_cast<int>(result.entries.size()));
    for (const auto& e : result.entries) {
        EXPECT_GE(e.predictedRank, 0);
        EXPECT_GE(e.measuredRank, 0);
    }
    EXPECT_EQ(result.calibration.predictedTop1MeasuredRank, 0);
    EXPECT_DOUBLE_EQ(result.calibration.meanRankDisplacement, 0.0);
}

// ---------------------------------------------------------------------
// Replication.
// ---------------------------------------------------------------------

TEST(Replication, DistributeRewritesProducerAndConsumer)
{
    auto kernel = fe::compileKernel(wl::kBfsReplicated);
    ASSERT_FALSE(kernel.ann.distributeOps.empty());
    comp::CompileOptions opts;
    opts.numStages = 4;
    opts.replicas = 4;
    opts.distributeBoundaryOp = kernel.ann.distributeOps.front();
    auto res = comp::compilePipeline(*kernel.fn, opts);
    ASSERT_TRUE(res.pipeline != nullptr);
    EXPECT_EQ(res.pipeline->replicas, 4);
    int dist_enqs = 0;
    for (const auto& stage : res.pipeline->stages) {
        ir::forEachOp(stage->body, [&](const ir::Op& op) {
            if (op.opcode == ir::Opcode::kEnqDist)
                dist_enqs++;
        });
    }
    EXPECT_GE(dist_enqs, 1) << "no distributed stream generated";
}

} // namespace
} // namespace phloem
