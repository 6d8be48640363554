/**
 * @file
 * Native-runtime tests: SPSC ring semantics under one and two threads,
 * handcrafted pipelines with in-band control values, differential
 * native-vs-simulator execution, replicated (multi-producer) streams,
 * and the scheduler's deadlock monitor.
 */

#include "tests/test_util.h"

#include <atomic>
#include <cfenv>
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

// ---------------------------------------------------------------------
// Deadlock monitor.
// ---------------------------------------------------------------------

TEST(NativeRuntime, WatchdogAbortsStuckPipeline)
{
    // One stage enqueues past a depth-4 queue that nothing ever drains:
    // the producer parks forever and the deadlock monitor must abort
    // the run, naming the parked task and its ring, instead of hanging
    // the process.
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

    sim::Binding b;
    b.setScalarInt("n", 64);

    rt::RuntimeOptions opt;
    opt.deadlockTimeoutMs = 100;
    rt::Runtime runtime(sim::SysConfig{}, opt);
    rt::NativeStats stats = runtime.runPipeline(*pipeline, b);
    EXPECT_FALSE(stats.ok);
    EXPECT_NE(stats.error.find("deadlock"), std::string::npos)
        << stats.error;
    EXPECT_NE(stats.error.find("jam parked on enq q0"), std::string::npos)
        << stats.error;
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

    rt::RuntimeOptions opt;
    opt.deadlockTimeoutMs = 100;
    rt::Runtime runtime(sim::SysConfig{}, opt);
    rt::NativeStats stats = runtime.runPipeline(*pipeline, b);
    EXPECT_FALSE(stats.ok);
    EXPECT_NE(stats.error.find("deadlock"), std::string::npos)
        << stats.error;
    EXPECT_NE(stats.error.find("\n  waits parked on barrier"),
              std::string::npos)
        << stats.error;
}

TEST(NativeRuntime, WatchdogPostMortemAttributesTheStall)
{
    // Mispaired streams: the producer enqueues 2n values, the consumer
    // dequeues n and halts, so the producer eventually jams on a full
    // ring with the consumer gone. The deadlock report must name the
    // blocked queue, quantify the residual occupancy, and — when a
    // tracer is attached — append each worker's trailing trace events.
    // n is not a multiple of the depth, so a consumer that drained the
    // ring ahead of its deqs would strand values past the depth.
    constexpr int kDepth = 4;
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
    qc.depth = kDepth;
    pipeline->queues.push_back(qc);

    sim::Binding b;
    b.setScalarInt("n", 63);

    trace::Tracer tracer{trace::Timebase::kWallNs};
    rt::RuntimeOptions opt;
    opt.deadlockTimeoutMs = 100;
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
            EXPECT_EQ(q.residual, static_cast<uint64_t>(kDepth));
        }
    EXPECT_TRUE(found);
    EXPECT_NE(stats.error.find("q0: ring 4/4\n"), std::string::npos)
        << stats.error;

    // The report's queue family carries the same residual.
    metrics::Run run = metrics::nativeRunToMetrics("mispair", stats);
    const metrics::FamilyPoint* q0 =
        run.families["queue"].find({{"queue", "0"}});
    ASSERT_NE(q0, nullptr);
    EXPECT_EQ(q0->metrics.counters.at("residual"),
              static_cast<uint64_t>(kDepth));
}

TEST(NativeRuntime, IndirectRaStrandsNothing)
{
    // The mispaired streams above with an indirect RA in the middle:
    // the producer enqueues 2n indices, the RA translates them, and the
    // consumer dequeues n values and halts. Like the simulator's RA, the
    // native one pops an index only once its output ring has a free
    // slot, so when the run jams both rings are exactly full and no
    // index is held anywhere else.
    constexpr int kDepth = 4;
    constexpr int64_t kN = 63;
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
        qc.depth = kDepth;
        pipeline->queues.push_back(qc);
    }

    sim::Binding b;
    b.makeArray("table", ir::ElemType::kI64, 2 * kN);
    b.setScalarInt("n", kN);

    rt::RuntimeOptions opt;
    opt.deadlockTimeoutMs = 100;
    rt::Runtime runtime(sim::SysConfig{}, opt);
    rt::NativeStats stats = runtime.runPipeline(*pipeline, b);

    ASSERT_FALSE(stats.ok);
    ASSERT_EQ(stats.queues.size(), 2u);
    for (const auto& q : stats.queues) {
        EXPECT_EQ(q.residual, static_cast<uint64_t>(kDepth)) << "q" << q.id;
        EXPECT_EQ(q.enq, q.deq + q.residual) << "q" << q.id;
    }
    EXPECT_NE(stats.error.find("q0: ring 4/4\n"), std::string::npos)
        << stats.error;
}

// ---------------------------------------------------------------------
// Shared task-pool scheduler.
// ---------------------------------------------------------------------

/**
 * Heavier cousin of kFilterKernel: enough phloem_work per element that
 * a run comfortably outlives a deliberately short deadlock timeout.
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

TEST(NativeRuntime, SchedulerOversubscribedLivePipelineIsNotKilled)
{
    // The regression the scheduler exists for: more live tasks than
    // pool workers must look like a busy machine, not a deadlock. On a
    // one-worker pool every task but one is descheduled (kRunnable) at
    // any instant, and the run far outlasts the 60 ms timeout — the
    // wall-time heuristic this replaced would have killed it.
    auto kernel = fe::compileKernel(kHeavyFilterKernel);
    comp::CompileOptions copts;
    copts.numStages = 8;
    auto res = comp::compilePipeline(*kernel.fn, copts);
    ASSERT_TRUE(res.ok());

    rt::Scheduler::Options sopt;
    sopt.workers = 1;
    rt::Scheduler pool(sopt);

    rt::RuntimeOptions opt;
    opt.schedulerOverride = &pool;
    opt.deadlockTimeoutMs = 30;

    sim::Binding nb;
    setupFilter(nb);
    rt::Runtime runtime(sim::SysConfig{}, opt);
    rt::NativeStats stats = runtime.runPipeline(*res.pipeline, nb);
    ASSERT_TRUE(stats.ok) << stats.error;
    // The run must have straddled several monitor scans for the "not
    // killed" claim to mean anything.
    EXPECT_GT(stats.wallMs(), opt.deadlockTimeoutMs) << stats.wallMs();

    EXPECT_EQ(stats.sched.poolSize, 1);
    // >= 2x oversubscribed: every stage and RA shares the one worker.
    EXPECT_GE(stats.numStageThreads + stats.numRAWorkers, 2);
    // Blocked tasks parked instead of spinning the pool.
    EXPECT_GT(stats.sched.parks, 0u);
    EXPECT_GT(stats.sched.unparks, 0u);

    // And the answer is still the answer.
    sim::Binding sb;
    setupFilter(sb);
    sim::Machine machine(test::testConfig());
    auto sstats = machine.runPipeline(*res.pipeline, sb);
    ASSERT_FALSE(sstats.deadlock);
    EXPECT_TRUE(sb.array("out")->contentEquals(*nb.array("out")));
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
        // Co-located endpoints hand off by parking, never by stealing.
        EXPECT_GT(stats.sched.parks, 0u);
        EXPECT_EQ(stats.sched.steals, 0u);
        metrics::Run run = metrics::nativeRunToMetrics("handoff", stats);
        EXPECT_EQ(run.top.gauges.at("sched_workers_used"),
                  static_cast<double>(replicas));
    }
}

/**
 * A two-stage ping-pong through depth-1 rings: "pong" echoes each value
 * it dequeues from q0 back on q1 and stores it in out[i]; "ping"
 * enqueues i on q0 and waits for the echo. On one worker a round trip
 * parks both sides: pong, added first, parks on its empty q0 before
 * ping's first enqueue, and ping parks on q1 until the echo arrives.
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
    // Two ping-pong runs at once on a one-worker pool: a parking task
    // switches straight into the next runnable one, here hopping
    // between the tasks of both runs on one thread. Neither the
    // answers nor the park counts may depend on that.
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
        // Every park is woken exactly once. Each round trip parks both
        // sides, except where a heartbeat yield let the partner run
        // first: a yield can stand in for at most one park.
        const rt::SchedStats& ss = stats[i].sched;
        EXPECT_EQ(ss.unparks, ss.parks);
        EXPECT_LE(ss.parks, 2u * n);
        EXPECT_GE(ss.parks + ss.yields, 2u * n);
    }
    // Where the heartbeats fall is fixed by the instruction stream, so
    // the park count does not depend on how the two runs interleave.
    EXPECT_EQ(stats[0].sched.parks, stats[1].sched.parks);
}

TEST(NativeRuntime, SchedulerFiberKeepsItsFpControlState)
{
    // The rounding mode is per fiber, as it was under swapcontext: a
    // task that sets FE_UPWARD and parks still has it when it resumes,
    // while a peer that runs on the same worker in between sees the
    // default. A new fiber starts with its creating thread's mode.
    rt::Scheduler::Options sopt;
    sopt.workers = 4;
    rt::Scheduler pool(sopt);
    rt::RunControl ctl;
    auto run = pool.createRun(&ctl);
    ctl.schedRun = run.get();

    rt::WaitList waiters;
    std::atomic<bool> go{false};
    rt::ParkTarget pt;
    pt.list = &waiters;
    pt.obj = &go;
    pt.ready = [](const rt::ParkTarget& p) {
        return static_cast<const std::atomic<bool>*>(p.obj)->load();
    };
    int resumed_mode = -1;
    int peer_mode = -1;
    int fresh_mode = -1;
    // Same replica, same home: "setter" runs first, parks, then "peer"
    // runs on that worker and wakes it.
    run->addTask("setter", /*is_stage=*/true, /*replica=*/0, [&] {
        std::fesetround(FE_UPWARD);
        while (!go.load())
            rt::Scheduler::parkCurrent(pt, ctl, /*stoppable=*/false);
        resumed_mode = std::fegetround();
        std::fesetround(FE_TONEAREST);
    });
    run->addTask("peer", /*is_stage=*/true, /*replica=*/0, [&] {
        peer_mode = std::fegetround();
        go.store(true);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (!waiters.empty())
            waiters.wakeAll();
    });
    std::fesetround(FE_DOWNWARD);
    run->addTask("fresh", /*is_stage=*/true, /*replica=*/1,
                 [&] { fresh_mode = std::fegetround(); });
    std::fesetround(FE_TONEAREST);
    run->start();
    run->waitAll();

    EXPECT_EQ(resumed_mode, FE_UPWARD);
    EXPECT_EQ(peer_mode, FE_TONEAREST);
    EXPECT_EQ(fresh_mode, FE_DOWNWARD);
    EXPECT_EQ(run->parks(), 1u);
    EXPECT_EQ(run->workersUsed(), 2);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

} // namespace
} // namespace phloem
