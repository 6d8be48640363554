/**
 * @file
 * Native-runtime tests: SPSC ring semantics under one and two threads,
 * handcrafted pipelines with in-band control values, differential
 * native-vs-simulator execution, replicated (multi-producer) streams,
 * and the scheduler's deadlock detection.
 */

#include "tests/test_util.h"

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "base/rng.h"
#include "ir/builder.h"
#include "metrics/collect.h"
#include "runtime/queue.h"
#include "runtime/runtime.h"
#include "runtime/sched.h"
#include "runtime/trace.h"
#include "workloads/graph.h"
#include "workloads/kernels.h"
#include "workloads/workload.h"

namespace phloem {
namespace {

// ---------------------------------------------------------------------
// SPSC ring.
// ---------------------------------------------------------------------

TEST(SpscQueue, FifoOrder)
{
    rt::SpscQueue q(16);
    for (int64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(i)));
    ir::Value v;
    for (int64_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(q.tryPop(v));
        EXPECT_EQ(v.asInt(), i);
    }
    EXPECT_FALSE(q.tryPop(v));
}

TEST(SpscQueue, CapacityIsExact)
{
    rt::SpscQueue q(4);
    ir::Value v;
    EXPECT_FALSE(q.tryPop(v)) << "fresh ring must be empty";
    for (int64_t i = 0; i < 4; ++i)
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(i)));
    EXPECT_FALSE(q.tryPush(ir::Value::fromInt(99)))
        << "depth-4 ring must reject a fifth element";
    ASSERT_TRUE(q.tryPop(v));
    EXPECT_EQ(v.asInt(), 0);
    EXPECT_TRUE(q.tryPush(ir::Value::fromInt(4)))
        << "space freed by a pop must be reusable";
    EXPECT_EQ(q.maxOccupancy(), 4u);
}

TEST(SpscQueue, WraparoundPreservesValues)
{
    rt::SpscQueue q(3);
    ir::Value v;
    for (int64_t i = 0; i < 1000; ++i) {
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(i)));
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(i + 1000000)));
        ASSERT_TRUE(q.tryPop(v));
        ASSERT_EQ(v.asInt(), i);
        ASSERT_TRUE(q.tryPop(v));
        ASSERT_EQ(v.asInt(), i + 1000000);
    }
    EXPECT_FALSE(q.tryPop(v));
    EXPECT_EQ(q.enqCount(), 2000u);
    EXPECT_EQ(q.deqCount(), 2000u);
}

TEST(SpscQueue, PeekDoesNotConsume)
{
    rt::SpscQueue q(4);
    ASSERT_TRUE(q.tryPush(ir::Value::fromInt(7)));
    ir::Value v;
    ASSERT_TRUE(q.tryPeek(v));
    EXPECT_EQ(v.asInt(), 7);
    ASSERT_TRUE(q.tryPeek(v));
    EXPECT_EQ(v.asInt(), 7);
    ASSERT_TRUE(q.tryPop(v));
    EXPECT_EQ(v.asInt(), 7);
    EXPECT_FALSE(q.tryPeek(v));
}

TEST(SpscQueue, PushBatchRespectsCapacityAndOrder)
{
    rt::SpscQueue q(8);
    auto gen = [](size_t k) {
        return ir::Value::fromInt(100 + static_cast<int64_t>(k));
    };
    EXPECT_EQ(q.pushBatch(20, gen), 8u) << "batch clips to free space";
    EXPECT_EQ(q.pushBatch(4, gen), 0u) << "full ring takes nothing";
    ir::Value v;
    for (int64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(q.tryPop(v));
        EXPECT_EQ(v.asInt(), 100 + i);
    }
    EXPECT_EQ(q.pushBatch(10, gen), 3u);
    for (int64_t i = 3; i < 8; ++i) {
        ASSERT_TRUE(q.tryPop(v));
        EXPECT_EQ(v.asInt(), 100 + i);
    }
    for (int64_t i = 0; i < 3; ++i) {
        ASSERT_TRUE(q.tryPop(v));
        EXPECT_EQ(v.asInt(), 100 + i);
    }
    EXPECT_FALSE(q.tryPop(v));
}

TEST(SpscQueue, PushBatchWrapsAroundRingSeam)
{
    // Walk the write index through every alignment of the ring so some
    // batch always straddles the physical end of the buffer, then check
    // values and order survive the seam.
    rt::SpscQueue q(5);
    ir::Value v;
    int64_t produced = 0;
    int64_t consumed = 0;
    for (int round = 0; round < 50; ++round) {
        size_t n = q.pushBatch(4, [&](size_t k) {
            return ir::Value::fromInt(produced + static_cast<int64_t>(k));
        });
        ASSERT_GE(n, 1u);
        produced += static_cast<int64_t>(n);
        // Drain all but one element so the indices creep forward by a
        // non-divisor step each round.
        while (consumed + 1 < produced) {
            ASSERT_TRUE(q.tryPop(v));
            ASSERT_EQ(v.asInt(), consumed);
            ++consumed;
        }
    }
    while (consumed < produced) {
        ASSERT_TRUE(q.tryPop(v));
        ASSERT_EQ(v.asInt(), consumed);
        ++consumed;
    }
    EXPECT_FALSE(q.tryPop(v));
    EXPECT_EQ(q.enqCount(), static_cast<uint64_t>(produced));
    EXPECT_EQ(q.deqCount(), static_cast<uint64_t>(produced));
}

TEST(SpscQueue, BatchStatsAccounting)
{
    rt::SpscQueue q(200);
    auto gen = [](size_t k) {
        return ir::Value::fromInt(static_cast<int64_t>(k));
    };
    // One push batch of 1 (bucket 0), one of 6 (bucket 2: 4-7), one of
    // 150 (bucket 7: >= 128).
    ASSERT_EQ(q.pushBatch(1, gen), 1u);
    ASSERT_EQ(q.pushBatch(6, gen), 6u);
    ASSERT_EQ(q.pushBatch(150, gen), 150u);
    EXPECT_EQ(q.pushBatches(), 3u);
    EXPECT_EQ(q.pushBatchElems(), 157u);
    EXPECT_EQ(q.pushHist(0), 1u);
    EXPECT_EQ(q.pushHist(2), 1u);
    EXPECT_EQ(q.pushHist(7), 1u);
    EXPECT_EQ(q.enqCount(), 157u);
    // Single-element ops do not touch batch counters.
    ASSERT_TRUE(q.tryPush(ir::Value::fromInt(1)));
    EXPECT_EQ(q.pushBatches(), 3u);
}

TEST(SpscQueue, MultiProducerCountsEveryElementOnce)
{
    // An enq_dist target ring has one producer per replica. Under
    // contention every pushed value must arrive exactly once and the
    // producer-side counters must not lose increments.
    rt::SpscQueue q(32);
    q.setMultiProducer();
    constexpr int kProducers = 4;
    constexpr int64_t kPerProducer = 20'000;

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            int spins = 0;
            for (int64_t i = 0; i < kPerProducer; ++i) {
                ir::Value v =
                    ir::Value::fromInt(p * kPerProducer + i);
                while (!q.tryPush(v)) {
                    if (++spins >= 64) {
                        std::this_thread::yield();
                        spins = 0;
                    } else {
                        rt::cpuRelax();
                    }
                }
            }
        });
    }

    constexpr int64_t kTotal = kProducers * kPerProducer;
    std::vector<int> seen(static_cast<size_t>(kTotal), 0);
    std::vector<int64_t> last(kProducers, -1);
    ir::Value v;
    int spins = 0;
    for (int64_t i = 0; i < kTotal; ++i) {
        while (!q.tryPop(v)) {
            if (++spins >= 64) {
                std::this_thread::yield();
                spins = 0;
            } else {
                rt::cpuRelax();
            }
        }
        int64_t x = v.asInt();
        ASSERT_GE(x, 0);
        ASSERT_LT(x, kTotal);
        seen[static_cast<size_t>(x)]++;
        // Per-producer order must still be FIFO.
        int p = static_cast<int>(x / kPerProducer);
        ASSERT_GT(x % kPerProducer,
                  last[p] < 0 ? -1 : last[p] % kPerProducer);
        last[p] = x;
    }
    for (auto& t : producers)
        t.join();

    for (int64_t i = 0; i < kTotal; ++i)
        ASSERT_EQ(seen[static_cast<size_t>(i)], 1)
            << "value " << i << " delivered " << seen[i] << " times";
    EXPECT_EQ(q.enqCount(), static_cast<uint64_t>(kTotal));
    EXPECT_EQ(q.deqCount(), static_cast<uint64_t>(kTotal));
    EXPECT_FALSE(q.tryPop(v));
    EXPECT_LE(q.maxOccupancy(), 32u);
}

TEST(SpscQueue, SizeApproxTracksOccupancy)
{
    // From a quiesced ring, sizeApprox is exact; drive it across a full
    // fill/drain cycle including the wraparound region.
    rt::SpscQueue q(4);
    ir::Value v;
    EXPECT_EQ(q.sizeApprox(), 0u);
    for (int64_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(i)));
        EXPECT_EQ(q.sizeApprox(), static_cast<size_t>(i) + 1);
    }
    ASSERT_TRUE(q.tryPop(v));
    EXPECT_EQ(q.sizeApprox(), 3u);
    ASSERT_TRUE(q.tryPush(ir::Value::fromInt(4)));  // wraps
    EXPECT_EQ(q.sizeApprox(), 4u);
    while (q.tryPop(v))
        EXPECT_LT(q.sizeApprox(), 4u);
    EXPECT_EQ(q.sizeApprox(), 0u);
}

TEST(SpscQueue, TwoThreadStress)
{
    rt::SpscQueue q(64);
    constexpr int64_t kN = 500'000;
    // Spin briefly, then yield: on a single-core host a pure spin burns
    // a whole scheduling quantum every time one side fills/empties the
    // ring.
    auto backoff = [](int& spins) {
        if (++spins < 64) {
            rt::cpuRelax();
        } else {
            std::this_thread::yield();
            spins = 0;
        }
    };
    std::thread producer([&q, &backoff] {
        int spins = 0;
        for (int64_t i = 0; i < kN; ++i)
            while (!q.tryPush(ir::Value::fromInt(i)))
                backoff(spins);
    });
    ir::Value v;
    int spins = 0;
    for (int64_t expect = 0; expect < kN;) {
        if (q.tryPop(v)) {
            ASSERT_EQ(v.asInt(), expect);
            expect++;
        } else {
            backoff(spins);
        }
    }
    producer.join();
    EXPECT_FALSE(q.tryPop(v));
    EXPECT_EQ(q.enqCount(), static_cast<uint64_t>(kN));
    // The high-water mark can never exceed what the ring can hold.
    EXPECT_LE(q.maxOccupancy(), 64u);
    EXPECT_GE(q.maxOccupancy(), 1u);
}

// ---------------------------------------------------------------------
// maxOccupancy must be exact, not computed against the producer's stale
// cache of the consumer index.
// ---------------------------------------------------------------------

TEST(SpscQueue, MaxOccupancyNotInflatedByStaleHeadCache)
{
    // Deterministic regression: push 6, pop 5, push 1. The true
    // high-water mark is 6 — the seventh element enters a ring holding
    // one. A producer that measures against its cached head (still 0:
    // nothing refreshed it, the ring never looked full) would record 7.
    rt::SpscQueue q(8);
    ir::Value v;
    for (int64_t i = 0; i < 6; ++i)
        ASSERT_TRUE(q.tryPush(ir::Value::fromInt(i)));
    for (int64_t i = 0; i < 5; ++i)
        ASSERT_TRUE(q.tryPop(v));
    ASSERT_TRUE(q.tryPush(ir::Value::fromInt(6)));
    EXPECT_EQ(q.maxOccupancy(), 6u)
        << "high-water mark inflated by a stale head cache";
}

TEST(SpscQueue, MaxOccupancyMatchesOracleUnderRandomOps)
{
    // Randomized single-thread mix of every producer/consumer entry
    // point, against an exactly tracked occupancy oracle. Interleaved
    // pops keep the producer's head cache stale for most pushes, which
    // is the state the deterministic test above distills.
    rt::SpscQueue q(32);
    Rng rng(99);
    size_t occ = 0, oracle_max = 0;
    ir::Value v;
    auto gen = [](size_t k) {
        return ir::Value::fromInt(static_cast<int64_t>(k));
    };
    for (int step = 0; step < 200'000; ++step) {
        switch (rng.nextBounded(4)) {
        case 0:
            if (q.tryPush(ir::Value::fromInt(step)))
                occ++;
            break;
        case 1: {
            size_t want = 1 + rng.nextBounded(12);
            occ += q.pushBatch(want, gen);
            break;
        }
        case 2:
            // A run of pops as long, on average, as one push of either
            // kind, so the occupancy keeps wandering over the ring.
            for (size_t k = 1 + rng.nextBounded(14); k > 0 && q.tryPop(v);
                 --k)
                occ--;
            break;
        default:
            // The RA's slot check refreshes the producer's head cache.
            ASSERT_EQ(q.hasFreeSlot(), occ < 32) << "step " << step;
            break;
        }
        oracle_max = std::max(oracle_max, occ);
        ASSERT_EQ(q.sizeApprox(), occ) << "step " << step;
    }
    EXPECT_EQ(q.maxOccupancy(), oracle_max);
}

// ---------------------------------------------------------------------
// Handcrafted pipeline: in-band control value ends the consumer loop
// through a dequeue handler, exactly like compiled pipelines do.
// ---------------------------------------------------------------------

ir::PipelinePtr
buildDoublerPipeline()
{
    constexpr ir::QueueId kQ = 0;
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "doubler";

    {
        ir::FunctionBuilder b("produce");
        ir::ArrayId a = b.arrayParam("a", ir::ElemType::kI64, false);
        b.arrayParam("out", ir::ElemType::kI64, true);
        ir::RegId n = b.scalarParam("n");
        b.forRange(b.constI(0), n, [&](ir::RegId i) {
            b.enq(kQ, b.load(a, i, "v"));
        });
        b.enqCtrl(kQ, ir::kCtrlNext);
        pipeline->stages.push_back(b.finish());
    }

    {
        ir::FunctionBuilder b("consume");
        b.arrayParam("a", ir::ElemType::kI64, false);
        ir::ArrayId out = b.arrayParam("out", ir::ElemType::kI64, true);
        b.scalarParam("n");
        ir::RegId idx = b.newReg("idx");
        ir::RegId v = b.newReg("v");
        ir::RegId one = b.constI(1);
        b.movTo(idx, b.constI(0));
        b.loop([&] {
            b.deqTo(kQ, v);
            b.store(out, idx, b.add(v, v));
            ir::Op bump;
            bump.opcode = ir::Opcode::kAdd;
            bump.dst = idx;
            bump.src[0] = idx;
            bump.src[1] = one;
            b.emit(bump);
        });
        ir::FunctionPtr fn = b.finish();
        ir::HandlerSpec h;
        h.queue = kQ;
        auto brk = std::make_unique<ir::BreakStmt>(1);
        brk->id = fn->nextStmtId++;
        h.body.push_back(std::move(brk));
        fn->handlers.push_back(std::move(h));
        pipeline->stages.push_back(std::move(fn));
    }
    return pipeline;
}

void
bindDoubler(sim::Binding& b, int n)
{
    Rng rng(7);
    auto* a = b.makeArray("a", ir::ElemType::kI64,
                          static_cast<size_t>(n));
    auto* out = b.makeArray("out", ir::ElemType::kI64,
                            static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        a->setInt(i, static_cast<int64_t>(rng.nextBounded(100000)) - 50000);
        out->setInt(i, -1);
    }
    b.setScalarInt("n", n);
}

TEST(NativeRuntime, HandcraftedControlValueProtocol)
{
    const int n = 5000;  // >> default queue depth: exercises backpressure
    auto pipeline = buildDoublerPipeline();

    rt::Runtime runtime;
    sim::Binding nb;
    bindDoubler(nb, n);
    rt::NativeStats stats = runtime.runPipeline(*pipeline, nb);
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.numStageThreads, 2);

    auto* a = nb.array("a");
    auto* out = nb.array("out");
    for (int i = 0; i < n; ++i)
        ASSERT_EQ(out->atInt(i), 2 * a->atInt(i)) << "index " << i;

    // Differential: the simulator must agree bit-for-bit.
    sim::Binding sb;
    bindDoubler(sb, n);
    sim::Machine machine(test::testConfig());
    auto sim_stats = machine.runPipeline(*pipeline, sb);
    ASSERT_FALSE(sim_stats.deadlock);
    EXPECT_TRUE(sb.array("out")->contentEquals(*out));
}

// ---------------------------------------------------------------------
// Differential: compiled pipelines, native vs simulator.
// ---------------------------------------------------------------------

const char* kFilterKernel = R"(
#pragma phloem
void filter_work(const int* restrict a, const int* restrict b,
                 long* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        int x = a[i];
        if (x > 0) {
            int y = b[x];
            out[i] = phloem_work(y, 10);
        }
    }
}
)";

void
setupFilter(sim::Binding& binding)
{
    Rng rng(42);
    const int n = 2000;
    auto* a = binding.makeArray("a", ir::ElemType::kI32, n);
    auto* b = binding.makeArray("b", ir::ElemType::kI32, n);
    auto* out = binding.makeArray("out", ir::ElemType::kI64, n);
    for (int i = 0; i < n; ++i) {
        a->setInt(i, static_cast<int64_t>(rng.nextBounded(n)) - n / 3);
        b->setInt(i, static_cast<int64_t>(rng.nextBounded(1000)));
        out->setInt(i, -1);
    }
    binding.setScalarInt("n", n);
}

TEST(NativeRuntime, SerialMatchesSimulatorSerial)
{
    auto kernel = fe::compileKernel(kFilterKernel);

    sim::Binding nb;
    setupFilter(nb);
    rt::Runtime runtime;
    rt::NativeStats nstats = runtime.runSerial(*kernel.fn, nb);
    ASSERT_TRUE(nstats.ok) << nstats.error;

    sim::Binding sb;
    setupFilter(sb);
    sim::Machine machine(test::testConfig());
    auto sstats = machine.runSerial(*kernel.fn, sb);
    ASSERT_FALSE(sstats.deadlock);

    EXPECT_TRUE(sb.array("out")->contentEquals(*nb.array("out")));
    // Both backends interpret the same flat program, so dynamic
    // instruction counts must agree exactly.
    EXPECT_EQ(nstats.totalInstructions(), sstats.totalInstructions());

    // A serial run never touches the pool: no sched_* key in its report.
    EXPECT_EQ(nstats.sched.poolSize, 0);
    metrics::Run run = metrics::nativeRunToMetrics("serial", nstats);
    for (const auto& [name, v] : run.top.counters)
        EXPECT_NE(name.rfind("sched_", 0), 0u) << name;
    for (const auto& [name, v] : run.top.gauges)
        EXPECT_NE(name.rfind("sched_", 0), 0u) << name;
    // The getrusage floor is unconditional.
    EXPECT_GT(run.top.gauges.at("ru_maxrss_kb"), 0.0);
}

TEST(NativeRuntime, SerialRejectsQueueOps)
{
    // runSerial provides no queues; handing it a pipeline stage must be
    // a clean diagnostic, not an out-of-bounds queue index.
    ir::FunctionBuilder b("stagey");
    ir::ArrayId a = b.arrayParam("a", ir::ElemType::kI64, false);
    ir::RegId n = b.scalarParam("n");
    b.forRange(b.constI(0), n, [&](ir::RegId i) {
        b.enq(0, b.load(a, i, "v"));
    });
    ir::FunctionPtr fn = b.finish();

    sim::Binding nb;
    nb.makeArray("a", ir::ElemType::kI64, 4);
    nb.setScalarInt("n", 4);
    rt::Runtime runtime;
    rt::NativeStats st = runtime.runSerial(*fn, nb);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("queue"), std::string::npos) << st.error;
}

TEST(NativeRuntime, CompiledPipelineMatchesSimulator)
{
    auto kernel = fe::compileKernel(kFilterKernel);
    comp::CompileOptions opts;
    opts.numStages = 4;
    auto res = comp::compilePipeline(*kernel.fn, opts);
    ASSERT_TRUE(res.ok());

    sim::Binding nb;
    setupFilter(nb);
    rt::Runtime runtime;
    rt::NativeStats nstats = runtime.runPipeline(*res.pipeline, nb);
    ASSERT_TRUE(nstats.ok) << nstats.error;
    // Every pipeline run reports the pool it ran on and the getrusage
    // floor.
    metrics::Run run = metrics::nativeRunToMetrics("pipeline", nstats);
    ASSERT_EQ(run.top.gauges.count("sched_pool_size"), 1u);
    EXPECT_GT(run.top.gauges.at("sched_pool_size"), 0.0);
    EXPECT_GT(run.top.gauges.at("ru_maxrss_kb"), 0.0);

    sim::Binding sb;
    setupFilter(sb);
    sim::Machine machine(test::testConfig());
    auto sstats = machine.runPipeline(*res.pipeline, sb);
    ASSERT_FALSE(sstats.deadlock);

    EXPECT_TRUE(sb.array("out")->contentEquals(*nb.array("out")));
}

// ---------------------------------------------------------------------
// Pre-decoded stages vs simulator.
// ---------------------------------------------------------------------

TEST(NativeRuntime, EngineMatchesSimulatorOnCompiledPipeline)
{
    auto kernel = fe::compileKernel(kFilterKernel);
    comp::CompileOptions copts;
    copts.numStages = 4;
    auto res = comp::compilePipeline(*kernel.fn, copts);
    ASSERT_TRUE(res.ok());

    sim::Binding eb;
    setupFilter(eb);
    rt::Runtime engine_rt;
    rt::NativeStats es = engine_rt.runPipeline(*res.pipeline, eb);
    ASSERT_TRUE(es.ok) << es.error;

    sim::Binding sb;
    setupFilter(sb);
    sim::Machine machine(test::testConfig());
    sim::RunStats ss = machine.runPipeline(*res.pipeline, sb);
    ASSERT_FALSE(ss.deadlock) << ss.deadlockInfo;

    // Bit-identical memory and the same dynamic profile: the stages may
    // fuse, but they must retire exactly the instruction stream the
    // simulator executes. Loads and stores come from the opcode
    // profile, classified the way the simulator counts them (prefetch
    // as a load, atomics as both).
    EXPECT_TRUE(sb.array("out")->contentEquals(*eb.array("out")));
    uint64_t loads = 0, stores = 0, queue_ops = 0;
    std::vector<uint64_t> ops = es.totalOpCounts();
    for (size_t op = 0; op < ops.size(); ++op) {
        auto opcode = static_cast<ir::Opcode>(op);
        if (ir::isMemRead(opcode) || opcode == ir::Opcode::kPrefetch)
            loads += ops[op];
        if (ir::isMemWrite(opcode))
            stores += ops[op];
    }
    for (const auto& w : es.workers)
        queue_ops += w.queueOps;
    uint64_t sim_branches = 0, sim_loads = 0, sim_stores = 0;
    for (const auto& t : ss.threads) {
        sim_branches += t.branches;
        sim_loads += t.loads;
        sim_stores += t.stores;
    }
    EXPECT_EQ(es.totalInstructions(), ss.totalInstructions());
    EXPECT_EQ(es.totalBranches(), sim_branches);
    EXPECT_EQ(loads, sim_loads);
    EXPECT_EQ(stores, sim_stores);
    EXPECT_EQ(queue_ops, ss.totalQueueOps());

    // The decoder must have found superinstruction sites (every lowered
    // for-loop has a fusable cmp+brIfNot header).
    uint64_t fused = 0;
    for (const auto& w : es.workers)
        fused += w.fusedSites;
    EXPECT_GT(fused, 0u);

    // Per-worker profile invariant: every retired instruction is either
    // an opcode execution or a branch.
    for (const auto& w : es.workers) {
        if (!w.isStage)
            continue;
        uint64_t sum = w.branches;
        for (uint64_t c : w.opCounts)
            sum += c;
        EXPECT_EQ(sum, w.instructions) << w.name;
    }
}

TEST(NativeRuntime, BlockedFusedEnqsCountLikeTheSimulator)
{
    // "produce" streams i + 7 through q0 (scalar;enq, fused into
    // kScalarEnq), then a[i] through q1 (load;enq, fused into
    // kLoadEnq), into depth-1 queues' 64-slot rings; "consume" drains
    // them in turn. Each loop outruns its ring, so each fused op blocks
    // again and again. A blocked fused op has done its scalar or load
    // half: its retries complete only the enq half, at pc+1. So the
    // dynamic counts must still equal the simulator's, which a retry
    // that counted again, or re-ran the first half, would break.
    const int n = 500;
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "fused-block";
    {
        ir::FunctionBuilder b("produce");
        ir::ArrayId a = b.arrayParam("a", ir::ElemType::kI64, false);
        ir::RegId count = b.scalarParam("n");
        ir::RegId seven = b.constI(7);
        b.forRange(b.constI(0), count,
                   [&](ir::RegId i) { b.enq(0, b.add(i, seven)); });
        b.forRange(b.constI(0), count,
                   [&](ir::RegId i) { b.enq(1, b.load(a, i, "v")); });
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("consume");
        ir::ArrayId out = b.arrayParam("out", ir::ElemType::kI64, true);
        ir::RegId count = b.scalarParam("n");
        ir::RegId v = b.newReg("v");
        b.forRange(b.constI(0), count, [&](ir::RegId i) {
            b.deqTo(0, v);
            b.store(out, i, v);
        });
        b.forRange(b.constI(0), count, [&](ir::RegId i) {
            b.deqTo(1, v);
            b.store(out, b.add(i, count), v);
        });
        pipeline->stages.push_back(b.finish());
    }
    for (int q : {0, 1}) {
        ir::QueueConfig qc;
        qc.id = q;
        qc.depth = 1;
        pipeline->queues.push_back(qc);
    }
    auto bind = [](sim::Binding& b) {
        auto* a = b.makeArray("a", ir::ElemType::kI64, n);
        for (int i = 0; i < n; ++i)
            a->setInt(i, 3 * i - 1000);
        b.makeArray("out", ir::ElemType::kI64, 2 * n)->fillInt(-1);
        b.setScalarInt("n", n);
    };

    rt::Scheduler::Options sopt;
    sopt.workers = 1;
    rt::Scheduler pool(sopt);
    rt::RuntimeOptions opt;
    opt.schedulerOverride = &pool;
    rt::Runtime runtime(sim::SysConfig{}, opt);
    sim::Binding nb;
    bind(nb);
    rt::NativeStats es = runtime.runPipeline(*pipeline, nb);
    ASSERT_TRUE(es.ok) << es.error;

    sim::Binding sb;
    bind(sb);
    sim::Machine machine(test::testConfig());
    sim::RunStats ss = machine.runPipeline(*pipeline, sb);
    ASSERT_FALSE(ss.deadlock) << ss.deadlockInfo;
    EXPECT_TRUE(sb.array("out")->contentEquals(*nb.array("out")));

    // Both fused ops were found and both blocked: q0's and q1's only
    // producers are the kScalarEnq and the kLoadEnq.
    const rt::WorkerStats& prod = es.workers[0];
    ASSERT_EQ(prod.name, "produce");
    EXPECT_GE(prod.fusedSites, 2u);
    ASSERT_EQ(es.queues.size(), 2u);
    for (const auto& q : es.queues)
        EXPECT_GT(q.enqBlocks, 0u) << "q" << q.id;

    // Per stage: the simulator's instruction, branch, load, store and
    // queue-op counts, and the opcode profile the program implies.
    ASSERT_EQ(ss.threads.size(), 2u);
    for (size_t k = 0; k < 2; ++k) {
        const rt::WorkerStats& w = es.workers[k];
        const sim::ThreadStats& t = ss.threads[k];
        SCOPED_TRACE(w.name);
        EXPECT_EQ(w.instructions, t.instructions);
        EXPECT_EQ(w.branches, t.branches);
        EXPECT_EQ(w.queueOps, t.queueOps);
        auto ops = [&](ir::Opcode op) {
            return w.opCounts[static_cast<size_t>(op)];
        };
        EXPECT_EQ(ops(ir::Opcode::kLoad), t.loads);
        EXPECT_EQ(ops(ir::Opcode::kStore), t.stores);
        uint64_t sum = w.branches;
        for (uint64_t c : w.opCounts)
            sum += c;
        EXPECT_EQ(sum, w.instructions);
    }
    auto prod_ops = [&](ir::Opcode op) {
        return prod.opCounts[static_cast<size_t>(op)];
    };
    EXPECT_EQ(prod.queueOps, 2u * n);
    EXPECT_EQ(prod_ops(ir::Opcode::kEnq), 2u * n);
    EXPECT_EQ(prod_ops(ir::Opcode::kLoad), static_cast<uint64_t>(n));
}

// ---------------------------------------------------------------------
// Manual SpMM pipeline: SCAN RAs with range control values.
// ---------------------------------------------------------------------

TEST(NativeRuntime, ManualSpmmPipelinePasses)
{
    wl::Workload w = wl::spmmWorkload();
    ASSERT_TRUE(w.manual != nullptr);
    auto kernel = fe::compileKernel(w.serialSrc);
    ir::PipelinePtr manual = w.manual(*kernel.fn);
    ASSERT_TRUE(manual != nullptr);

    const wl::Case* c = nullptr;
    for (const auto& cs : w.cases)
        if (cs.training) {
            c = &cs;
            break;
        }
    ASSERT_NE(c, nullptr);

    sim::Binding b;
    c->bind(b, 1);
    rt::Runtime runtime;
    rt::NativeStats stats = runtime.runPipeline(*manual, b);
    ASSERT_TRUE(stats.ok) << stats.error;

    std::string err;
    EXPECT_TRUE(c->check(b, wl::Variant::kPipeline, &err)) << err;
    // The RA workers must actually have streamed elements.
    uint64_t ra_elements = 0;
    for (const auto& ws : stats.workers)
        if (!ws.isStage)
            ra_elements += ws.raElements;
    EXPECT_GT(ra_elements, 0u);
}

// ---------------------------------------------------------------------
// Replicated pipeline: kEnqDist crosses replicas, so the distributed
// queues become multi-producer rings.
// ---------------------------------------------------------------------

TEST(NativeRuntime, ReplicatedBfsMatchesGolden)
{
    const int replicas = 3;
    wl::CSRGraph g = wl::makeRoadNetwork(800, 0.65, 101);
    int32_t root = 0;
    for (int32_t v = 0; v < g.n; ++v)
        if (g.degree(v) > g.degree(root))
            root = v;
    std::vector<int32_t> golden = wl::bfsGolden(g, root);
    int diameter = 0;
    for (int32_t d : golden)
        if (d != INT32_MAX)
            diameter = std::max(diameter, d);

    auto kernel = fe::compileKernel(wl::kBfsReplicated);
    ASSERT_FALSE(kernel.ann.distributeOps.empty());
    comp::CompileOptions opts;
    opts.numStages = 4;
    opts.replicas = replicas;
    opts.distributeBoundaryOp = kernel.ann.distributeOps.front();
    auto compiled = comp::compilePipeline(*kernel.fn, opts);
    ASSERT_TRUE(compiled.pipeline != nullptr);

    sim::Binding b;
    auto* nodes = b.makeArray("nodes", ir::ElemType::kI32,
                              static_cast<size_t>(g.n) + 1);
    for (int32_t v = 0; v <= g.n; ++v)
        nodes->setInt(v, g.nodes[static_cast<size_t>(v)]);
    auto* edges = b.makeArray(
        "edges", ir::ElemType::kI32,
        std::max<size_t>(1, static_cast<size_t>(g.m())));
    for (int64_t e = 0; e < g.m(); ++e)
        edges->setInt(e, g.edges[static_cast<size_t>(e)]);
    auto* dist = b.makeArray("dist", ir::ElemType::kI32,
                             static_cast<size_t>(g.n));
    dist->fillInt(2147483647);
    for (int r = 0; r < replicas; ++r) {
        size_t cap = static_cast<size_t>(g.n) + 1;
        b.bindReplica(r, "cur_fringe",
                      b.makeArray("cf@" + std::to_string(r),
                                  ir::ElemType::kI32, cap));
        b.bindReplica(r, "next_fringe",
                      b.makeArray("nf@" + std::to_string(r),
                                  ir::ElemType::kI32, cap));
        b.setScalarReplica(r, "init_size",
                           ir::Value::fromInt(root % replicas == r ? 1
                                                                   : 0));
    }
    b.setScalarInt("n", g.n);
    b.setScalarInt("root", root);
    b.setScalarInt("max_rounds", diameter + 1);

    // A private 4-worker pool, whatever the host's size: each replica
    // gets its own home, so the distribute rings always cross workers.
    rt::Scheduler::Options sopt;
    sopt.workers = 4;
    rt::Scheduler pool(sopt);
    rt::RuntimeOptions opt;
    opt.schedulerOverride = &pool;
    rt::Runtime runtime(sim::SysConfig{}, opt);
    rt::NativeStats stats = runtime.runPipeline(*compiled.pipeline, b);
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.numStageThreads,
              replicas * static_cast<int>(compiled.pipeline->stages.size()));
    ASSERT_EQ(stats.sched.homes.size(), static_cast<size_t>(replicas));
    EXPECT_EQ(std::set<int>(stats.sched.homes.begin(),
                            stats.sched.homes.end())
                  .size(),
              static_cast<size_t>(replicas));

    for (int32_t v = 0; v < g.n; ++v)
        ASSERT_EQ(dist->atInt(v), golden[static_cast<size_t>(v)])
            << "vertex " << v;
}

TEST(NativeRuntime, DistributeRingsFillAcrossWorkers)
{
    // Four replicas, on private pools of 1, 2 and 4 workers. Every
    // replica's producer deals 0..n-1 over the replicas in four runs of
    // m = n / 4 (enqDist with selector i / m), so all four producers
    // push into one consumer's ring at a time; that consumer burns
    // `work` per value, so the producers fill the multi-producer ring
    // and park on its shared waiter list, which takes the lock and the
    // notifier's fence, while the other consumers park on their empty
    // rings. So replicas park and wake each other on every pool, on one
    // worker too. A live run must never look deadlocked: every run of
    // every pool ends ok with the exact sums.
    constexpr int kReplicas = 4;
    constexpr int kRuns = 20;
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "deal";
    pipeline->replicas = kReplicas;
    {
        ir::FunctionBuilder b("deal");
        ir::RegId n = b.scalarParam("n");
        ir::RegId m = b.div(n, b.constI(kReplicas));
        b.forRange(b.constI(0), n,
                   [&](ir::RegId i) { b.enqDist(0, i, b.div(i, m)); });
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("sum");
        ir::ArrayId out = b.arrayParam("out", ir::ElemType::kI64, true);
        ir::RegId n = b.scalarParam("n");
        ir::RegId v = b.newReg("v");
        ir::RegId acc = b.newReg("acc");
        b.constTo(acc, 0);
        b.forRange(b.constI(0), n, [&](ir::RegId) {
            b.deqTo(0, v);
            b.work(v, 200);
            b.movTo(acc, b.add(acc, v));
        });
        b.store(out, b.constI(0), acc);
        pipeline->stages.push_back(b.finish());
    }
    const int cap = rt::ringCapacities(*pipeline, sim::SysConfig{})[0];
    // Each consumer gets n / 4 values from each of the four producers.
    const int64_t n = 4 * static_cast<int64_t>(cap);
    const int64_t m = n / kReplicas;

    for (int workers : {1, 2, 4}) {
        rt::Scheduler::Options sopt;
        sopt.workers = workers;
        rt::Scheduler pool(sopt);
        rt::RuntimeOptions opt;
        opt.schedulerOverride = &pool;
        rt::Runtime runtime(sim::SysConfig{}, opt);
        uint64_t parks = 0;
        for (int run = 0; run < kRuns; ++run) {
            sim::Binding b;
            b.setScalarInt("n", n);
            std::vector<sim::ArrayBuffer*> outs;
            for (int r = 0; r < kReplicas; ++r) {
                outs.push_back(b.makeArray("out@" + std::to_string(r),
                                           ir::ElemType::kI64, 1));
                b.bindReplica(r, "out", outs.back());
            }
            rt::NativeStats stats = runtime.runPipeline(*pipeline, b);
            ASSERT_TRUE(stats.ok)
                << workers << " workers, run " << run << ": " << stats.error;

            // Consumer r sums 4 x (r m, r m + 1, ..., r m + m - 1).
            for (int r = 0; r < kReplicas; ++r)
                ASSERT_EQ(outs[static_cast<size_t>(r)]->atInt(0),
                          kReplicas * (r * m * m + m * (m - 1) / 2))
                    << workers << " workers, run " << run << ", replica "
                    << r;

            uint64_t enq_blocks = 0;
            for (const auto& q : stats.queues) {
                EXPECT_EQ(q.capacity, cap) << "q" << q.id;
                EXPECT_LE(q.maxOccupancy, static_cast<uint64_t>(cap))
                    << "q" << q.id;
                enq_blocks += q.enqBlocks;
            }
            EXPECT_GT(enq_blocks, 0u) << "no producer ever found a ring full";
            EXPECT_EQ(std::set<int>(stats.sched.homes.begin(),
                                    stats.sched.homes.end())
                          .size(),
                      static_cast<size_t>(workers));
            EXPECT_EQ(stats.sched.unparks, stats.sched.parks);
            parks += stats.sched.parks;
        }
        EXPECT_GT(parks, 0u) << workers << " workers";
    }
}

// ---------------------------------------------------------------------
// Deadlock detection.
// ---------------------------------------------------------------------

/**
 * One stage, "jam", that enqueues n values into a depth-4 queue's ring
 * that nothing ever drains.
 */
ir::PipelinePtr
buildJamPipeline()
{
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "jam";
    {
        ir::FunctionBuilder b("jam");
        ir::RegId n = b.scalarParam("n");
        b.forRange(b.constI(0), n, [&](ir::RegId i) { b.enq(0, i); });
        pipeline->stages.push_back(b.finish());
    }
    ir::QueueConfig qc;
    qc.id = 0;
    qc.depth = 4;
    pipeline->queues.push_back(qc);
    return pipeline;
}

TEST(NativeRuntime, WatchdogAbortsStuckPipeline)
{
    // The jam stage enqueues past its ring: it blocks for good, and the
    // run must abort, naming the blocked stage and its ring, instead of
    // hanging the process.
    auto pipeline = buildJamPipeline();
    const int cap = rt::ringCapacities(*pipeline, sim::SysConfig{})[0];

    sim::Binding b;
    b.setScalarInt("n", 4 * cap + 3);

    rt::Runtime runtime;
    rt::NativeStats stats = runtime.runPipeline(*pipeline, b);
    EXPECT_FALSE(stats.ok);
    EXPECT_NE(stats.error.find("deadlock"), std::string::npos)
        << stats.error;
    EXPECT_NE(stats.error.find("jam parked on enq q0"), std::string::npos)
        << stats.error;
}

TEST(NativeRuntime, WatchdogReportsAReplicaDeadlockAtOnce)
{
    // The jam's one replica waits only on itself, so it reports the
    // deadlock as soon as a round of its stages moves nothing, without
    // parking.
    auto pipeline = buildJamPipeline();
    const int cap = rt::ringCapacities(*pipeline, sim::SysConfig{})[0];

    sim::Binding b;
    b.setScalarInt("n", 4 * cap + 3);
    rt::Runtime runtime;
    const auto t0 = std::chrono::steady_clock::now();
    rt::NativeStats stats = runtime.runPipeline(*pipeline, b);
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_FALSE(stats.ok);
    EXPECT_LT(elapsed, std::chrono::seconds(1));
    EXPECT_NE(stats.error.find("deadlock"), std::string::npos)
        << stats.error;
    EXPECT_NE(stats.error.find("jam parked on enq q0"), std::string::npos)
        << stats.error;
    EXPECT_EQ(stats.sched.parks, 0u);
}

TEST(NativeRuntime, WatchdogNamesABarrierStall)
{
    // Stage "waits" reaches a barrier that its peer halts without
    // reaching, so it parks there for good. Both stages take a scalar:
    // the engine needs at least one register per stage.
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "stall";
    {
        ir::FunctionBuilder b("waits");
        b.scalarParam("n");
        b.barrier();
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("halts");
        b.scalarParam("n");
        pipeline->stages.push_back(b.finish());
    }

    sim::Binding b;
    b.setScalarInt("n", 1);

    rt::Runtime runtime;
    rt::NativeStats stats = runtime.runPipeline(*pipeline, b);
    EXPECT_FALSE(stats.ok);
    EXPECT_NE(stats.error.find("deadlock"), std::string::npos)
        << stats.error;
    EXPECT_NE(stats.error.find("\n  waits parked on barrier"),
              std::string::npos)
        << stats.error;
}

TEST(NativeRuntime, WatchdogNamesACrossReplicaBarrierStall)
{
    // The barrier stall above, replicated twice: the barrier's parties
    // span both replicas, so each replica, its "waits" stage blocked and
    // its "halts" stage done, parks on the barrier. That is a wait
    // across replicas, which only the scheduler can call a deadlock: the
    // second park leaves every live task parked, and fails the run at
    // once. Its report names every blocked stage of every parked
    // replica.
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "stall";
    pipeline->replicas = 2;
    {
        ir::FunctionBuilder b("waits");
        b.scalarParam("n");
        b.barrier();
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("halts");
        b.scalarParam("n");
        pipeline->stages.push_back(b.finish());
    }

    sim::Binding b;
    b.setScalarInt("n", 1);

    rt::Scheduler::Options sopt;
    sopt.workers = 2;
    rt::Scheduler pool(sopt);
    rt::RuntimeOptions opt;
    opt.schedulerOverride = &pool;
    rt::Runtime runtime(sim::SysConfig{}, opt);
    const auto t0 = std::chrono::steady_clock::now();
    rt::NativeStats stats = runtime.runPipeline(*pipeline, b);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
    EXPECT_FALSE(stats.ok);
    EXPECT_NE(stats.error.find("deadlock: all 2 live tasks parked"),
              std::string::npos)
        << stats.error;
    for (const char* line :
         {"\n  waits@0 parked on barrier", "\n  waits@1 parked on barrier"})
        EXPECT_NE(stats.error.find(line), std::string::npos) << stats.error;
    EXPECT_EQ(stats.error.find("halts"), std::string::npos) << stats.error;
    // Each replica parked, and the abort woke every park.
    EXPECT_GE(stats.sched.parks, 2u);
    EXPECT_EQ(stats.sched.unparks, stats.sched.parks);
}

TEST(NativeRuntime, WatchdogNamesABarrierStallLeftByAFinishedReplica)
{
    // One stage that meets the barrier n times, replicated twice, with
    // replica 1 bound n = 0: it halts at once, and replica 0 parks on
    // the barrier for good. Whichever comes last, the park or the
    // finish, leaves the one live task parked and fails the run at once.
    // On one worker replica 0 runs first, so the finish comes last.
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "stall";
    pipeline->replicas = 2;
    {
        ir::FunctionBuilder b("waits");
        ir::RegId n = b.scalarParam("n");
        b.forRange(b.constI(0), n, [&](ir::RegId) { b.barrier(); });
        pipeline->stages.push_back(b.finish());
    }

    for (int workers : {1, 2}) {
        sim::Binding b;
        b.setScalarInt("n", 3);
        b.setScalarReplica(1, "n", ir::Value::fromInt(0));

        rt::Scheduler::Options sopt;
        sopt.workers = workers;
        rt::Scheduler pool(sopt);
        rt::RuntimeOptions opt;
        opt.schedulerOverride = &pool;
        rt::Runtime runtime(sim::SysConfig{}, opt);
        const auto t0 = std::chrono::steady_clock::now();
        rt::NativeStats stats = runtime.runPipeline(*pipeline, b);
        EXPECT_LT(std::chrono::steady_clock::now() - t0,
                  std::chrono::seconds(1))
            << workers << " workers";
        EXPECT_FALSE(stats.ok) << workers << " workers";
        EXPECT_NE(stats.error.find("deadlock: all 1 live tasks parked"),
                  std::string::npos)
            << workers << " workers: " << stats.error;
        EXPECT_NE(stats.error.find("\n  waits@0 parked on barrier"),
                  std::string::npos)
            << workers << " workers: " << stats.error;
        EXPECT_EQ(stats.error.find("waits@1"), std::string::npos)
            << workers << " workers: " << stats.error;
        EXPECT_EQ(stats.sched.parks, 1u) << workers << " workers";
        EXPECT_EQ(stats.sched.unparks, stats.sched.parks)
            << workers << " workers";
    }
}

TEST(NativeRuntime, WatchdogPostMortemAttributesTheStall)
{
    // Mispaired streams: the producer enqueues 2n values, the consumer
    // dequeues n and halts, so the producer eventually jams on a full
    // ring with the consumer gone. The deadlock report must name the
    // blocked queue, quantify the residual occupancy, and — when a
    // tracer is attached — append each worker's trailing trace events.
    // n is not a multiple of the ring's capacity, so a consumer that
    // drained the ring ahead of its deqs would strand values past it.
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "mispair";
    {
        ir::FunctionBuilder b("produce2n");
        ir::RegId n = b.scalarParam("n");
        b.forRange(b.constI(0), b.add(n, n), [&](ir::RegId i) {
            b.enq(0, i);
        });
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("consume1n");
        ir::RegId n = b.scalarParam("n");
        ir::RegId v = b.newReg("v");
        b.forRange(b.constI(0), n, [&](ir::RegId) { b.deqTo(0, v); });
        pipeline->stages.push_back(b.finish());
    }
    ir::QueueConfig qc;
    qc.id = 0;
    qc.depth = 4;
    pipeline->queues.push_back(qc);
    const int cap = rt::ringCapacities(*pipeline, sim::SysConfig{})[0];

    sim::Binding b;
    b.setScalarInt("n", 4 * cap + 3);

    trace::Tracer tracer{trace::Timebase::kWallNs};
    rt::RuntimeOptions opt;
    opt.tracer = &tracer;
    rt::Runtime runtime(sim::SysConfig{}, opt);
    rt::NativeStats stats = runtime.runPipeline(*pipeline, b);

    ASSERT_FALSE(stats.ok);
    EXPECT_NE(stats.error.find("q0"), std::string::npos)
        << "report must name the blocked queue:\n"
        << stats.error;
    EXPECT_NE(stats.error.find("residual occupancy"), std::string::npos)
        << stats.error;
    EXPECT_NE(stats.error.find("trace post-mortem"), std::string::npos)
        << stats.error;
    EXPECT_NE(stats.error.find("enq_block"), std::string::npos)
        << "the jammed producer's blocking span must appear in the "
           "trailing events:\n"
        << stats.error;

    // The stuck ring was exactly full when the run was torn down: the
    // consumer pops the ring directly, so no value sits anywhere else.
    bool found = false;
    for (const auto& q : stats.queues)
        if (q.id == 0) {
            found = true;
            EXPECT_EQ(q.capacity, cap);
            EXPECT_EQ(q.residual, static_cast<uint64_t>(cap));
        }
    EXPECT_TRUE(found);
    const std::string full = std::to_string(cap) + "/" + std::to_string(cap);
    EXPECT_NE(stats.error.find("q0: ring " + full + "\n"), std::string::npos)
        << stats.error;

    // The report's queue family carries the same residual.
    metrics::Run run = metrics::nativeRunToMetrics("mispair", stats);
    const metrics::FamilyPoint* q0 =
        run.families["queue"].find({{"queue", "0"}});
    ASSERT_NE(q0, nullptr);
    EXPECT_EQ(q0->metrics.counters.at("residual"),
              static_cast<uint64_t>(cap));
}

TEST(NativeRuntime, IndirectRaStrandsNothing)
{
    // The mispaired streams above with an indirect RA in the middle:
    // the producer enqueues 2n indices, the RA translates them, and the
    // consumer dequeues n values and halts. Like the simulator's RA, the
    // native one pops an index only once its output ring has a free
    // slot, so when the run jams both rings are exactly full and no
    // index is held anywhere else. n exceeds both rings together and is
    // not a multiple of their capacity.
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "ra-mispair";
    {
        ir::FunctionBuilder b("produce2n");
        ir::RegId n = b.scalarParam("n");
        b.forRange(b.constI(0), b.add(n, n), [&](ir::RegId i) {
            b.enq(0, i);
        });
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("consume1n");
        ir::RegId n = b.scalarParam("n");
        ir::RegId v = b.newReg("v");
        b.forRange(b.constI(0), n, [&](ir::RegId) { b.deqTo(1, v); });
        pipeline->stages.push_back(b.finish());
    }
    ir::RAConfig ra;
    ra.mode = ir::RAMode::kIndirect;
    ra.arrayName = "table";
    ra.inQueue = 0;
    ra.outQueue = 1;
    pipeline->ras.push_back(ra);
    for (int id = 0; id < 2; ++id) {
        ir::QueueConfig qc;
        qc.id = id;
        qc.depth = 4;
        pipeline->queues.push_back(qc);
    }
    const int cap = rt::ringCapacities(*pipeline, sim::SysConfig{})[0];
    const int64_t n = 4 * cap + 3;

    sim::Binding b;
    b.makeArray("table", ir::ElemType::kI64, static_cast<size_t>(2 * n));
    b.setScalarInt("n", n);

    rt::Runtime runtime;
    rt::NativeStats stats = runtime.runPipeline(*pipeline, b);

    ASSERT_FALSE(stats.ok);
    ASSERT_EQ(stats.queues.size(), 2u);
    for (const auto& q : stats.queues) {
        EXPECT_EQ(q.capacity, cap) << "q" << q.id;
        EXPECT_EQ(q.residual, static_cast<uint64_t>(cap)) << "q" << q.id;
        EXPECT_EQ(q.enq, q.deq + q.residual) << "q" << q.id;
    }
    const std::string full = std::to_string(cap) + "/" + std::to_string(cap);
    EXPECT_NE(stats.error.find("q0: ring " + full + "\n"), std::string::npos)
        << stats.error;
}

// ---------------------------------------------------------------------
// Reference accelerators run inside their replica's stages.
// ---------------------------------------------------------------------

TEST(NativeRuntime, RaInputDrainedByItsProducer)
{
    // The producer pushes cap(in) + cap(out)/2 indices into an indirect
    // RA while its consumer waits on a separate "go" ring, so no
    // consumer pumps the RA yet. The producer's blocked enq must pump
    // the RA itself, moving indices on into the output ring, or the
    // run deadlocks with the input ring full.
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "ra-producer-pump";
    {
        ir::FunctionBuilder b("produce");
        ir::RegId count = b.scalarParam("n");
        b.forRange(b.constI(0), count, [&](ir::RegId i) { b.enq(0, i); });
        b.enq(2, b.constI(1));
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("consume");
        ir::ArrayId out = b.arrayParam("out", ir::ElemType::kI64, true);
        ir::RegId count = b.scalarParam("n");
        ir::RegId v = b.newReg("v");
        b.deqTo(2, v);
        b.forRange(b.constI(0), count, [&](ir::RegId i) {
            b.deqTo(1, v);
            b.store(out, i, v);
        });
        pipeline->stages.push_back(b.finish());
    }
    ir::RAConfig ra;
    ra.mode = ir::RAMode::kIndirect;
    ra.arrayName = "table";
    ra.inQueue = 0;
    ra.outQueue = 1;
    pipeline->ras.push_back(ra);
    for (int id = 0; id < 3; ++id) {
        ir::QueueConfig qc;
        qc.id = id;
        qc.depth = 4;
        pipeline->queues.push_back(qc);
    }
    const std::vector<int> caps =
        rt::ringCapacities(*pipeline, sim::SysConfig{});
    ASSERT_EQ(caps, (std::vector<int>{256, 256, 256}));
    const int64_t n = caps[0] + caps[1] / 2;

    sim::Binding b;
    auto* table =
        b.makeArray("table", ir::ElemType::kI64, static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i)
        table->setInt(i, 3 * i + 1);
    b.makeArray("out", ir::ElemType::kI64, static_cast<size_t>(n));
    b.setScalarInt("n", n);

    rt::Scheduler::Options sopt;
    sopt.workers = 1;
    rt::Scheduler pool(sopt);
    rt::RuntimeOptions opt;
    opt.schedulerOverride = &pool;
    rt::Runtime runtime(sim::SysConfig{}, opt);
    rt::NativeStats stats = runtime.runPipeline(*pipeline, b);
    ASSERT_TRUE(stats.ok) << stats.error;
    for (int64_t i = 0; i < n; ++i)
        ASSERT_EQ(b.array("out")->atInt(i), 3 * i + 1) << "index " << i;
}

TEST(NativeRuntime, ChainedRasPumpAtDepthOne)
{
    // stage -> indirect RA -> scan RA -> stage, every queue at depth 1
    // (64-slot rings): "produce" sends index pairs (i, i+1), the
    // indirect RA turns them into offs[i], offs[i+1], and the scan RA
    // streams vals over each range, so "consume" reads vals[offs[0]..]
    // in order. A consumer that finds the scan RA's input dry must pull
    // the indirect RA upstream, and wait on the chain's first ring.
    // "consume" is stage 0, so on one worker it runs, finds the chain
    // dry and parks first; with n = 10 the producer never fills a ring,
    // so only its pushes into that first ring can wake the consumer.
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "ra-chain";
    {
        ir::FunctionBuilder b("consume");
        ir::ArrayId out = b.arrayParam("out", ir::ElemType::kI64, true);
        ir::RegId total = b.scalarParam("total");
        ir::RegId v = b.newReg("v");
        b.forRange(b.constI(0), total, [&](ir::RegId k) {
            b.deqTo(2, v);
            b.store(out, k, v);
        });
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("produce");
        ir::RegId count = b.scalarParam("n");
        ir::RegId one = b.constI(1);
        b.forRange(b.constI(0), count, [&](ir::RegId i) {
            b.enq(0, i);
            b.enq(0, b.add(i, one));
        });
        pipeline->stages.push_back(b.finish());
    }
    ir::RAConfig offs;
    offs.mode = ir::RAMode::kIndirect;
    offs.arrayName = "offs";
    offs.inQueue = 0;
    offs.outQueue = 1;
    pipeline->ras.push_back(offs);
    ir::RAConfig scan;
    scan.mode = ir::RAMode::kScan;
    scan.arrayName = "vals";
    scan.inQueue = 1;
    scan.outQueue = 2;
    pipeline->ras.push_back(scan);
    for (int id = 0; id < 3; ++id) {
        ir::QueueConfig qc;
        qc.id = id;
        qc.depth = 1;
        pipeline->queues.push_back(qc);
    }
    EXPECT_EQ(rt::ringCapacities(*pipeline, sim::SysConfig{}),
              (std::vector<int>{64, 64, 64}));

    auto bind = [](sim::Binding& b, int n) {
        Rng rng(11);
        auto* o = b.makeArray("offs", ir::ElemType::kI64,
                              static_cast<size_t>(n) + 1);
        int64_t at = 5;
        for (int i = 0; i <= n; ++i) {
            o->setInt(i, at);
            at += static_cast<int64_t>(rng.nextBounded(8));
        }
        auto* vals = b.makeArray("vals", ir::ElemType::kI64,
                                 static_cast<size_t>(at));
        for (int64_t k = 0; k < at; ++k)
            vals->setInt(k, 1000 + 7 * k);
        const int64_t total = o->atInt(n) - o->atInt(0);
        b.makeArray("out", ir::ElemType::kI64, static_cast<size_t>(total));
        b.setScalarInt("n", n);
        b.setScalarInt("total", total);
        return total;
    };

    rt::Scheduler::Options sopt;
    sopt.workers = 1;
    rt::Scheduler pool(sopt);
    rt::RuntimeOptions opt;
    opt.schedulerOverride = &pool;
    rt::Runtime runtime(sim::SysConfig{}, opt);
    for (int n : {10, 777}) {
        sim::Binding nb;
        const int64_t total = bind(nb, n);
        rt::NativeStats stats = runtime.runPipeline(*pipeline, nb);
        ASSERT_TRUE(stats.ok) << "n=" << n << ": " << stats.error;
        for (int64_t k = 0; k < total; ++k)
            ASSERT_EQ(nb.array("out")->atInt(k), 1000 + 7 * (5 + k))
                << "n=" << n << ", index " << k;

        sim::Binding sb;
        bind(sb, n);
        sim::Machine machine(test::testConfig());
        auto sstats = machine.runPipeline(*pipeline, sb);
        ASSERT_FALSE(sstats.deadlock) << sstats.deadlockInfo;
        EXPECT_TRUE(sb.array("out")->contentEquals(*nb.array("out")))
            << "n=" << n;
    }
}

TEST(NativeRuntime, RunSchedulesOneTaskPerReplica)
{
    // Neither a stage nor a reference accelerator is a task: a run
    // starts one task per replica, a loop over its stages, however many
    // stages and RAs it has. Each replica runs the whole filter into its
    // own "out".
    auto kernel = fe::compileKernel(kFilterKernel);
    comp::CompileOptions copts;
    copts.numStages = 4;
    copts.replicas = 2;
    auto res = comp::compilePipeline(*kernel.fn, copts);
    ASSERT_TRUE(res.ok());
    const ir::Pipeline& p = *res.pipeline;
    ASSERT_EQ(p.replicas, 2);
    ASSERT_FALSE(p.ras.empty());

    rt::Scheduler::Options sopt;
    sopt.workers = 2;
    rt::Scheduler pool(sopt);
    rt::RuntimeOptions opt;
    opt.schedulerOverride = &pool;
    rt::Runtime runtime(sim::SysConfig{}, opt);
    sim::Binding b;
    setupFilter(b);
    const size_t n = b.array("out")->size();
    for (int r = 0; r < p.replicas; ++r)
        b.bindReplica(r, "out",
                      b.makeArray("out@" + std::to_string(r),
                                  ir::ElemType::kI64, n));
    const uint64_t before = pool.counters().tasksStarted;
    rt::NativeStats stats = runtime.runPipeline(p, b);
    ASSERT_TRUE(stats.ok) << stats.error;
    ASSERT_GT(p.stages.size(), 1u);
    EXPECT_EQ(pool.counters().tasksStarted - before,
              static_cast<uint64_t>(p.replicas));
    EXPECT_EQ(stats.numRAWorkers,
              static_cast<int>(p.ras.size()) * p.replicas);
    EXPECT_TRUE(b.array("out@0")->contentEquals(*b.array("out@1")));
}

TEST(NativeRuntime, RingCapacityScalesDepthWithinBudget)
{
    // A host ring holds kRingDepthScale (64) x its queue's architectural
    // depth: a depth-1 queue gets 64 slots, a depth-4 one 256.
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "two-depths";
    {
        ir::FunctionBuilder b("produce");
        ir::RegId n = b.scalarParam("n");
        b.forRange(b.constI(0), n, [&](ir::RegId i) {
            b.enq(0, i);
            b.enq(1, i);
        });
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("consume");
        ir::RegId n = b.scalarParam("n");
        ir::RegId v = b.newReg("v");
        b.forRange(b.constI(0), n, [&](ir::RegId) {
            b.deqTo(0, v);
            b.deqTo(1, v);
        });
        pipeline->stages.push_back(b.finish());
    }
    for (int id = 0; id < 2; ++id) {
        ir::QueueConfig qc;
        qc.id = id;
        qc.depth = id == 0 ? 1 : 4;
        pipeline->queues.push_back(qc);
    }
    EXPECT_EQ(rt::ringCapacities(*pipeline, sim::SysConfig{}),
              (std::vector<int>{64, 256}));

    sim::Binding b;
    b.setScalarInt("n", 1000);
    rt::Runtime runtime;
    rt::NativeStats stats = runtime.runPipeline(*pipeline, b);
    ASSERT_TRUE(stats.ok) << stats.error;
    ASSERT_EQ(stats.queues.size(), 2u);
    EXPECT_EQ(stats.queues[0].capacity, 64);
    EXPECT_EQ(stats.queues[1].capacity, 256);
    for (const auto& q : stats.queues)
        EXPECT_LE(q.maxOccupancy, static_cast<uint64_t>(q.capacity));

    // 256 replicas of a compiled pipeline would take 64x their depths
    // in far more than kRingSlotBudget slots; the factor shrinks to the
    // largest that fits, the same for every ring.
    auto kernel = fe::compileKernel(kFilterKernel);
    comp::CompileOptions copts;
    copts.numStages = 4;
    copts.replicas = 256;
    auto res = comp::compilePipeline(*kernel.fn, copts);
    ASSERT_TRUE(res.pipeline != nullptr);
    ASSERT_EQ(res.pipeline->replicas, 256);
    const sim::SysConfig cfg;
    std::vector<int> caps = rt::ringCapacities(*res.pipeline, cfg);
    ASSERT_FALSE(caps.empty());
    EXPECT_EQ(caps.size() % 256, 0u);
    const int scale = caps[0] / cfg.queueDepth;
    EXPECT_GE(scale, 1);
    EXPECT_LT(scale, rt::kRingDepthScale);
    int64_t slots = 0;
    for (int c : caps) {
        EXPECT_EQ(c, scale * cfg.queueDepth);
        slots += c;
    }
    EXPECT_LE(slots, rt::kRingSlotBudget);
    EXPECT_GT(slots / scale * (scale + 1), rt::kRingSlotBudget)
        << "a larger factor would still have fit";
}

// ---------------------------------------------------------------------
// Shared task-pool scheduler.
// ---------------------------------------------------------------------

/**
 * Heavier cousin of kFilterKernel: enough phloem_work per element that
 * its stages reach many heartbeats, where replicas that share a worker
 * take turns.
 */
const char* kHeavyFilterKernel = R"(
#pragma phloem
void heavy_filter(const int* restrict a, const int* restrict b,
                  long* restrict out, int n) {
    for (int i = 0; i < n; i++) {
        int x = a[i];
        if (x > 0) {
            int y = b[x];
            out[i] = phloem_work(y, 20000);
        }
    }
}
)";

/** Total enq plus deq blocks of a run: its stage switches. */
uint64_t
queueBlocks(const rt::NativeStats& stats)
{
    return stats.totalEnqBlocks() + stats.totalDeqBlocks();
}

TEST(NativeRuntime, SchedulerOversubscribedLivePipelineIsNotKilled)
{
    // The regression the scheduler exists for: more live tasks than
    // pool workers must look like a busy machine, not a deadlock. Two
    // independent replicas of a multi-stage pipeline share a one-worker
    // pool, so one task is always descheduled, queued behind the other.
    // A queued task is not parked, so the all-parked check cannot fire
    // however long it waits: "not killed" holds by construction, where
    // the wall-time heuristic this replaced would have killed the run.
    // Depth-1 queues (64-slot rings) make the stages fill their rings
    // and switch.
    auto kernel = fe::compileKernel(kHeavyFilterKernel);
    comp::CompileOptions copts;
    copts.numStages = 8;
    copts.replicas = 2;
    auto res = comp::compilePipeline(*kernel.fn, copts);
    ASSERT_TRUE(res.ok());
    ASSERT_FALSE(res.pipeline->queues.empty());
    for (auto& qc : res.pipeline->queues)
        qc.depth = 1;

    rt::Scheduler::Options sopt;
    sopt.workers = 1;
    rt::Scheduler pool(sopt);

    rt::RuntimeOptions opt;
    opt.schedulerOverride = &pool;

    auto bind = [](sim::Binding& b) {
        setupFilter(b);
        const size_t n = b.array("out")->size();
        for (int r = 0; r < 2; ++r)
            b.bindReplica(r, "out",
                          b.makeArray("out@" + std::to_string(r),
                                      ir::ElemType::kI64, n));
    };
    sim::Binding nb;
    bind(nb);
    rt::Runtime runtime(sim::SysConfig{}, opt);
    rt::NativeStats stats = runtime.runPipeline(*res.pipeline, nb);
    ASSERT_TRUE(stats.ok) << stats.error;

    // Two tasks, both homed on the one worker.
    EXPECT_EQ(stats.sched.poolSize, 1);
    EXPECT_EQ(stats.sched.homes, (std::vector<int>{0, 0}));
    EXPECT_EQ(stats.numStageThreads,
              2 * static_cast<int>(res.pipeline->stages.size()));
    // Blocked stages switched inside their replica, nothing parked,
    // and the tasks took turns at their heartbeats.
    EXPECT_GT(queueBlocks(stats), 0u);
    EXPECT_EQ(stats.sched.parks, 0u);
    EXPECT_EQ(stats.sched.unparks, 0u);
    EXPECT_GT(stats.sched.yields, 0u);

    // And the answer is still the answer.
    sim::Binding sb;
    bind(sb);
    sim::Machine machine(test::testConfig(/*cores=*/2));
    auto sstats = machine.runPipeline(*res.pipeline, sb);
    ASSERT_FALSE(sstats.deadlock);
    for (const char* out : {"out@0", "out@1"})
        EXPECT_TRUE(sb.array(out)->contentEquals(*nb.array(out))) << out;
}

TEST(NativeRuntime, SchedulerTwoConcurrentPipelinesShareOnePool)
{
    // The daemon's shape: N requests arrive at once and must multiplex
    // onto one fixed-size pool instead of spawning N x stages threads.
    // Two full pipelines run concurrently on two workers; both must
    // finish, agree with the simulator, and report the shared pool.
    auto kernel = fe::compileKernel(kFilterKernel);
    comp::CompileOptions copts;
    copts.numStages = 4;
    auto res = comp::compilePipeline(*kernel.fn, copts);
    ASSERT_TRUE(res.ok());

    rt::Scheduler::Options sopt;
    sopt.workers = 2;
    rt::Scheduler pool(sopt);

    constexpr int kRuns = 2;
    sim::Binding bindings[kRuns];
    rt::NativeStats stats[kRuns];
    {
        std::vector<std::thread> threads;
        for (int i = 0; i < kRuns; ++i) {
            threads.emplace_back([&, i] {
                rt::RuntimeOptions opt;
                opt.schedulerOverride = &pool;
                setupFilter(bindings[i]);
                rt::Runtime runtime(sim::SysConfig{}, opt);
                stats[i] = runtime.runPipeline(*res.pipeline,
                                               bindings[i]);
            });
        }
        for (auto& t : threads) t.join();
    }

    sim::Binding sb;
    setupFilter(sb);
    sim::Machine machine(test::testConfig());
    auto sstats = machine.runPipeline(*res.pipeline, sb);
    ASSERT_FALSE(sstats.deadlock);

    for (int i = 0; i < kRuns; ++i) {
        ASSERT_TRUE(stats[i].ok) << "run " << i << ": "
                                 << stats[i].error;
        EXPECT_EQ(stats[i].sched.poolSize, 2);
        // One replica, one home: every task of a run stays on it.
        EXPECT_EQ(stats[i].sched.workersUsed, 1) << "run " << i;
        ASSERT_EQ(stats[i].sched.homes.size(), 1u) << "run " << i;
        EXPECT_TRUE(
            sb.array("out")->contentEquals(*bindings[i].array("out")))
            << "run " << i;
    }
    // Placement spreads runs over the pool rather than stacking them.
    EXPECT_NE(stats[0].sched.homes[0], stats[1].sched.homes[0]);
}

TEST(NativeRuntime, SchedulerHomesEachReplicaOnOneWorker)
{
    // The paper's mapping: a replica's stages (and its RAs) share one
    // core, replicas go to different cores. On a private 4-worker pool
    // a run dispatches on exactly one worker per replica.
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "handoff";
    {
        ir::FunctionBuilder b("produce");
        ir::RegId n = b.scalarParam("n");
        b.forRange(b.constI(0), n, [&](ir::RegId i) { b.enq(0, i); });
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("consume");
        ir::RegId n = b.scalarParam("n");
        ir::RegId v = b.newReg("v");
        b.forRange(b.constI(0), n, [&](ir::RegId) { b.deqTo(0, v); });
        pipeline->stages.push_back(b.finish());
    }
    ir::QueueConfig qc;
    qc.id = 0;
    qc.depth = 2;
    pipeline->queues.push_back(qc);

    rt::Scheduler::Options sopt;
    sopt.workers = 4;
    rt::Scheduler pool(sopt);
    rt::RuntimeOptions opt;
    opt.schedulerOverride = &pool;
    rt::Runtime runtime(sim::SysConfig{}, opt);

    for (int replicas : {1, 2}) {
        SCOPED_TRACE(replicas);
        pipeline->replicas = replicas;
        sim::Binding b;
        b.setScalarInt("n", 5000);
        rt::NativeStats stats = runtime.runPipeline(*pipeline, b);
        ASSERT_TRUE(stats.ok) << stats.error;
        EXPECT_EQ(stats.sched.poolSize, 4);
        EXPECT_EQ(stats.sched.workersUsed, replicas);
        ASSERT_EQ(stats.sched.homes.size(), static_cast<size_t>(replicas));
        if (replicas == 2) {
            EXPECT_NE(stats.sched.homes[0], stats.sched.homes[1]);
        }
        // Co-located endpoints hand off by a stage switch inside their
        // replica's task: a queue block, never a park or a steal.
        EXPECT_GT(queueBlocks(stats), 0u);
        EXPECT_EQ(stats.sched.parks, 0u);
        EXPECT_EQ(stats.sched.steals, 0u);
        // The switches follow from each replica's program and input
        // alone, so identical replicas block identically.
        ASSERT_EQ(stats.queues.size(), static_cast<size_t>(replicas));
        for (const auto& q : stats.queues) {
            EXPECT_EQ(q.enqBlocks, stats.queues[0].enqBlocks) << "q" << q.id;
            EXPECT_EQ(q.deqBlocks, stats.queues[0].deqBlocks) << "q" << q.id;
        }
        metrics::Run run = metrics::nativeRunToMetrics("handoff", stats);
        EXPECT_EQ(run.top.gauges.at("sched_workers_used"),
                  static_cast<double>(replicas));
    }
}

/**
 * A two-stage ping-pong through depth-1 rings: "pong" echoes each value
 * it dequeues from q0 back on q1 and stores it in out[i]; "ping"
 * enqueues i on q0 and waits for the echo. A round trip blocks both
 * sides: pong, stage 0, blocks on its empty q0 before ping's first
 * enqueue, and ping blocks on q1 until the echo arrives.
 */
ir::PipelinePtr
buildPingPongPipeline()
{
    auto pipeline = std::make_unique<ir::Pipeline>();
    pipeline->name = "pingpong";
    {
        ir::FunctionBuilder b("pong");
        ir::ArrayId out = b.arrayParam("out", ir::ElemType::kI64, true);
        ir::RegId n = b.scalarParam("n");
        ir::RegId v = b.newReg("v");
        b.forRange(b.constI(0), n, [&](ir::RegId i) {
            b.deqTo(0, v);
            b.store(out, i, v);
            b.enq(1, v);
        });
        pipeline->stages.push_back(b.finish());
    }
    {
        ir::FunctionBuilder b("ping");
        ir::RegId n = b.scalarParam("n");
        ir::RegId echo = b.newReg("echo");
        b.forRange(b.constI(0), n, [&](ir::RegId i) {
            b.enq(0, i);
            b.deqTo(1, echo);
        });
        pipeline->stages.push_back(b.finish());
    }
    for (int q : {0, 1}) {
        ir::QueueConfig qc;
        qc.id = q;
        qc.depth = 1;
        pipeline->queues.push_back(qc);
    }
    return pipeline;
}

void
bindPingPong(sim::Binding& b, int n)
{
    b.makeArray("out", ir::ElemType::kI64, static_cast<size_t>(n))
        ->fillInt(-1);
    b.setScalarInt("n", n);
}

TEST(NativeRuntime, SchedulerPingPongHandoffs)
{
    // Two ping-pong runs at once on a one-worker pool: their replica
    // tasks take turns on one thread, and inside each a blocked stage
    // hands over to the other. Neither the answers nor the handoffs may
    // depend on how the two runs interleave.
    const int n = 5000;
    auto pipeline = buildPingPongPipeline();

    rt::Scheduler::Options sopt;
    sopt.workers = 1;
    rt::Scheduler pool(sopt);

    constexpr int kRuns = 2;
    sim::Binding bindings[kRuns];
    rt::NativeStats stats[kRuns];
    {
        std::vector<std::thread> threads;
        for (int i = 0; i < kRuns; ++i) {
            threads.emplace_back([&, i] {
                rt::RuntimeOptions opt;
                opt.schedulerOverride = &pool;
                bindPingPong(bindings[i], n);
                rt::Runtime runtime(sim::SysConfig{}, opt);
                stats[i] = runtime.runPipeline(*pipeline, bindings[i]);
            });
        }
        for (auto& t : threads) t.join();
    }

    sim::Binding sb;
    bindPingPong(sb, n);
    sim::Machine machine(test::testConfig());
    auto sstats = machine.runPipeline(*pipeline, sb);
    ASSERT_FALSE(sstats.deadlock);

    for (int i = 0; i < kRuns; ++i) {
        SCOPED_TRACE(i);
        ASSERT_TRUE(stats[i].ok) << stats[i].error;
        auto* out = bindings[i].array("out");
        for (int k = 0; k < n; ++k)
            ASSERT_EQ(out->atInt(k), k) << "index " << k;
        EXPECT_TRUE(sb.array("out")->contentEquals(*out));
        // A one-replica run never parks: each handoff is a stage switch,
        // one deq block per side per round trip, except where a stage's
        // heartbeat handed over first, which can stand in for at most
        // one block.
        EXPECT_EQ(stats[i].sched.parks, 0u);
        EXPECT_EQ(stats[i].sched.unparks, 0u);
        uint64_t heartbeats = 0;
        for (const auto& w : stats[i].workers)
            heartbeats += w.instructions / rt::kHeartbeatInterval;
        EXPECT_EQ(stats[i].totalEnqBlocks(), 0u);
        EXPECT_LE(stats[i].totalDeqBlocks(), 2u * n);
        EXPECT_GE(stats[i].totalDeqBlocks() + heartbeats, 2u * n);
    }
    // The switch order is fixed by each run's own stages, so both runs
    // block on the same ops the same number of times.
    ASSERT_EQ(stats[0].queues.size(), stats[1].queues.size());
    for (size_t q = 0; q < stats[0].queues.size(); ++q) {
        EXPECT_EQ(stats[0].queues[q].enqBlocks, stats[1].queues[q].enqBlocks);
        EXPECT_EQ(stats[0].queues[q].deqBlocks, stats[1].queues[q].deqBlocks);
    }
}

} // namespace
} // namespace phloem
