#include "runtime/runtime.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "base/thread_name.h"
#include "ir/op.h"
#include "runtime/sched.h"
#include "sim/program.h"

namespace phloem::rt {

namespace {

using Clock = std::chrono::steady_clock;

double
elapsedNs(Clock::time_point t0, Clock::time_point t1)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

/** Queue-id stride between replicas, matching the simulator exactly. */
int
queueStride(const ir::Pipeline& pipeline)
{
    int max_qid = ir::maxQueueId(pipeline);
    int stride =
        pipeline.queueStride > 0 ? pipeline.queueStride : max_qid + 1;
    phloem_assert(stride >= max_qid + 1, "queue stride too small");
    return stride;
}

} // namespace

std::vector<int>
ringCapacities(const ir::Pipeline& pipeline, const sim::SysConfig& cfg)
{
    int stride = queueStride(pipeline);
    int replicas = std::max(1, pipeline.replicas);
    std::vector<int> depths(static_cast<size_t>(stride), cfg.queueDepth);
    for (const auto& qc : pipeline.queues)
        if (qc.depth > 0)
            depths[static_cast<size_t>(qc.id)] = qc.depth;
    int64_t total = 0;
    for (int d : depths)
        total += d;
    total *= replicas;
    // d * scale <= max(d, kRingSlotBudget), so the product fits an int.
    int64_t scale = std::clamp<int64_t>(
        kRingSlotBudget / std::max<int64_t>(total, 1), 1, kRingDepthScale);

    std::vector<int> caps;
    caps.reserve(static_cast<size_t>(stride) *
                 static_cast<size_t>(replicas));
    for (int r = 0; r < replicas; ++r)
        for (int d : depths)
            caps.push_back(static_cast<int>(d * scale));
    return caps;
}

ResourceUsage
ResourceUsage::processNow()
{
    ResourceUsage r;
    rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return r;
    r.maxRssKb = static_cast<double>(ru.ru_maxrss);
    r.voluntaryCtxSw = static_cast<uint64_t>(ru.ru_nvcsw);
    r.involuntaryCtxSw = static_cast<uint64_t>(ru.ru_nivcsw);
    auto tvNs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1e9 +
               static_cast<double>(tv.tv_usec) * 1e3;
    };
    r.userNs = tvNs(ru.ru_utime);
    r.systemNs = tvNs(ru.ru_stime);
    return r;
}

NativeStats
Runtime::runPipeline(const ir::Pipeline& pipeline, sim::Binding& binding,
                     const PreparedPrograms& prep)
{
    const std::vector<sim::Program>* pre_flattened = prep.programs;
    int replicas = std::max(1, pipeline.replicas);

    int stride = queueStride(pipeline);

    int stages_per_replica = static_cast<int>(pipeline.stages.size());
    int total_threads = stages_per_replica * replicas;
    phloem_assert(total_threads >= 1, "pipeline has no stages");
    // Stage contexts, not threads: a wide pipeline costs memory, not
    // cores.
    phloem_assert(total_threads <= 4096,
                  "refusing to schedule that many stages");

    // Build the rings, each a multiple of its architectural depth.
    int num_queues = stride * replicas;
    std::vector<std::unique_ptr<SpscQueue>> queues;
    queues.reserve(static_cast<size_t>(num_queues));
    for (int cap : ringCapacities(pipeline, cfg_))
        queues.push_back(std::make_unique<SpscQueue>(cap));

    std::vector<SpscQueue*> queue_ptrs;
    queue_ptrs.reserve(queues.size());
    for (auto& q : queues)
        queue_ptrs.push_back(q.get());

    // Flatten each stage once; replicas share the program. A caller
    // that already holds the flattened programs (the compilation
    // service's cache) supplies them instead; workers only read them,
    // so one pre-flattened set can back concurrent runs.
    std::vector<sim::Program> local_programs;
    if (pre_flattened == nullptr) {
        local_programs.reserve(pipeline.stages.size());
        for (const auto& stage : pipeline.stages)
            local_programs.push_back(sim::flatten(*stage));
        pre_flattened = &local_programs;
    } else {
        phloem_assert(pre_flattened->size() == pipeline.stages.size(),
                      "pre-flattened program count (",
                      pre_flattened->size(),
                      ") does not match pipeline stages (",
                      pipeline.stages.size(), ")");
    }
    const std::vector<sim::Program>& programs = *pre_flattened;

    // Queues targeted by kEnqDist have one producer per replica (every
    // replica's distributor may select them); their pushes must be
    // serialized.
    if (replicas > 1) {
        for (const auto& prog : programs) {
            for (const auto& inst : prog.code) {
                if (inst.kind == sim::Inst::Kind::kOp &&
                    inst.opcode == ir::Opcode::kEnqDist) {
                    for (int r = 0; r < replicas; ++r)
                        queue_ptrs[static_cast<size_t>(
                                       inst.queue + r * stride)]
                            ->setMultiProducer();
                }
            }
        }
    }

    RunControl ctl;
    ctl.opt = opt_;

    StageBarrier barrier(total_threads, /*spans_replicas=*/replicas > 1);

    std::vector<std::unique_ptr<StageWorker>> stage_workers;
    for (int r = 0; r < replicas; ++r) {
        for (int s = 0; s < stages_per_replica; ++s) {
            std::string name =
                pipeline.stages[static_cast<size_t>(s)]->name +
                (replicas > 1 ? "@" + std::to_string(r) : "");
            stage_workers.push_back(std::make_unique<StageWorker>(
                std::move(name), &programs[static_cast<size_t>(s)],
                binding, r, /*queue_offset=*/r * stride, stride, replicas,
                queue_ptrs, &barrier, &ctl));
        }
    }

    // Each RA links itself to its rings as their feeder and drainer,
    // for the stages that pump it.
    std::vector<std::unique_ptr<RAWorker>> ra_workers;
    for (int r = 0; r < replicas; ++r) {
        for (const auto& ra : pipeline.ras) {
            std::string name =
                "ra:" + ra.arrayName +
                (replicas > 1 ? "@" + std::to_string(r) : "");
            ra_workers.push_back(std::make_unique<RAWorker>(
                std::move(name), ra, binding.array(ra.arrayName, r),
                queue_ptrs[static_cast<size_t>(ra.inQueue + r * stride)],
                queue_ptrs[static_cast<size_t>(ra.outQueue + r * stride)]));
            ra_workers.back()->traceOutQ = ra.outQueue + r * stride;
        }
    }

    // Tracing: register one ring per worker (single-writer; must happen
    // before the tasks start) plus a sampler lane that snapshots queue
    // occupancy through the rings' atomic size estimate. With no tracer,
    // every worker keeps a null traceBuf and each hook is a dead branch.
    trace::Tracer* tracer = opt_.tracer;
    trace::TraceBuffer* occ_buf = nullptr;
    std::atomic<bool> sampler_stop{false};
    std::thread sampler;
    if (tracer != nullptr) {
        phloem_assert(tracer->timebase() == trace::Timebase::kWallNs,
                      "native runs trace on the wall-clock timebase");
        for (auto& w : stage_workers)
            w->traceBuf = tracer->addWorker(w->stats.name,
                                            /*is_stage=*/true);
        for (auto& w : ra_workers)
            w->traceBuf = tracer->addWorker(w->stats.name,
                                            /*is_stage=*/false);
        occ_buf = tracer->addWorker("queue-occupancy", /*is_stage=*/false);
        sampler = std::thread([&sampler_stop, occ_buf, &queue_ptrs] {
            setCurrentThreadName("phl-occ-sample");
            // Delta-encoded: a sample is recorded only when the estimate
            // moved, so idle phases cost ring space proportional to
            // activity. sizeApprox is all-atomic, keeping the sampler
            // race-free against producers and consumers.
            std::vector<uint64_t> last(queue_ptrs.size(), ~0ull);
            for (;;) {
                for (size_t i = 0; i < queue_ptrs.size(); ++i) {
                    uint64_t occ = queue_ptrs[i]->sizeApprox();
                    if (occ == last[i])
                        continue;
                    last[i] = occ;
                    uint64_t t = occ_buf->now();
                    occ_buf->record(trace::EventKind::kQueueOcc,
                                    static_cast<int32_t>(i), t, t, occ);
                }
                if (sampler_stop.load(std::memory_order_acquire))
                    return;
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
            }
        });
    }

    // One task per replica: a loop over its stages (the stage list is
    // replica-major), which pump their replica's RAs.
    std::vector<std::unique_ptr<Replica>> replica_loops;
    for (int r = 0; r < replicas; ++r) {
        std::vector<StageWorker*> stages;
        for (int s = 0; s < stages_per_replica; ++s)
            stages.push_back(
                stage_workers[static_cast<size_t>(r * stages_per_replica + s)]
                    .get());
        replica_loops.push_back(
            std::make_unique<Replica>(std::move(stages), &ctl));
    }

    // Parallel region: run every replica as a task on the pool and wait
    // for all of them.
    ResourceUsage ru0 = ResourceUsage::processNow();
    Scheduler& sched = opt_.schedulerOverride != nullptr
                           ? *opt_.schedulerOverride
                           : Scheduler::shared();
    auto run = sched.createRun(&ctl);
    ctl.schedRun = run.get();
    for (auto& loop : replica_loops)
        run->addTask(loop.get());
    auto t0 = Clock::now();
    run->start();
    run->waitAll();
    auto t1 = Clock::now();
    NativeStats out;
    out.sched.poolSize = sched.poolSize();
    out.sched.workersUsed = run->workersUsed();
    out.sched.homes = run->homes();
    out.sched.parks = run->parks();
    out.sched.unparks = run->unparks();
    out.sched.yields = run->yields();
    ctl.schedRun = nullptr;
    if (sampler.joinable()) {
        sampler_stop.store(true, std::memory_order_release);
        sampler.join();
    }

    // Collect results.
    out.wallNs = elapsedNs(t0, t1);
    out.numStageThreads = total_threads;
    out.numRAWorkers = static_cast<int>(ra_workers.size());
    out.rusage = ResourceUsage::processNow().minus(ru0);
    for (auto& w : stage_workers)
        out.workers.push_back(w->stats);
    for (auto& w : ra_workers)
        out.workers.push_back(w->stats);
    for (int i = 0; i < num_queues; ++i) {
        const SpscQueue& q = *queue_ptrs[static_cast<size_t>(i)];
        if (q.enqCount() == 0 && q.deqCount() == 0 &&
            q.enqBlocks() == 0 && q.deqBlocks() == 0)
            continue;
        QueueStats qs;
        qs.id = i;
        qs.capacity = q.capacity();
        qs.enq = q.enqCount();
        qs.deq = q.deqCount();
        qs.enqBlocks = q.enqBlocks();
        qs.deqBlocks = q.deqBlocks();
        qs.maxOccupancy = q.maxOccupancy();
        // Exact: every task has finished.
        qs.residual = q.sizeApprox();
        qs.pushBatches = q.pushBatches();
        qs.pushBatchElems = q.pushBatchElems();
        for (int b = 0; b < QueueStats::kBatchHistBuckets; ++b)
            qs.pushHist[b] = q.pushHist(b);
        out.queues.push_back(qs);
    }
    if (ctl.aborted()) {
        out.ok = false;
        {
            std::lock_guard<std::mutex> g(ctl.errorMu);
            out.error = ctl.error;
        }
        // Failure post-mortem: which edges still hold data, and (when
        // traced) what each worker was doing right before the stall.
        std::string residuals;
        for (const auto& qs : out.queues)
            if (qs.residual > 0)
                residuals += "  q" + std::to_string(qs.id) + ": ring " +
                             std::to_string(qs.residual) + "/" +
                             std::to_string(qs.capacity) + "\n";
        if (!residuals.empty())
            out.error += "\nresidual occupancy:\n" + residuals;
        if (tracer != nullptr)
            out.error +=
                "\ntrace post-mortem (trailing events per worker):\n" +
                tracer->postMortem();
        if (!opt_.requestId.empty())
            out.error = "[req " + opt_.requestId + "] " + out.error;
    }
    return out;
}

NativeStats
Runtime::runSerial(const ir::Function& fn, sim::Binding& binding)
{
    sim::Program prog = sim::flatten(fn);

    // A serial function must be self-contained: the worker below gets no
    // queues, so a stray enq/deq (e.g. a pipeline stage passed here by
    // mistake) would index an empty queue vector. Fail with a diagnostic
    // instead.
    for (const auto& inst : prog.code) {
        if (inst.kind == sim::Inst::Kind::kOp &&
            inst.queue != ir::kNoQueue) {
            NativeStats out;
            out.ok = false;
            out.error = fn.name + ": serial function contains a queue " +
                        "operation (op " + std::to_string(inst.origin) +
                        " targets queue " + std::to_string(inst.queue) +
                        "); run it as a pipeline stage instead";
            return out;
        }
    }

    RunControl ctl;
    ctl.opt = opt_;
    StageBarrier barrier(1, /*spans_replicas=*/false);
    StageWorker worker(fn.name, &prog, binding, /*replica=*/0,
                       /*queue_offset=*/0, /*queue_stride=*/0,
                       /*num_replicas=*/1, {}, &barrier, &ctl);
    if (opt_.tracer != nullptr)
        worker.traceBuf = opt_.tracer->addWorker(fn.name,
                                                 /*is_stage=*/true);
    // A one-stage replica on the caller's thread: off the pool it never
    // yields, and with no rings it never parks.
    Replica loop({&worker}, &ctl);
    std::vector<ParkTarget> unused;

    ResourceUsage ru0 = ResourceUsage::processNow();
    auto t0 = Clock::now();
    TaskStep step = loop.resume(unused);
    auto t1 = Clock::now();
    phloem_assert(step == TaskStep::kDone, "a serial run finishes in one call");

    NativeStats out;
    out.wallNs = elapsedNs(t0, t1);
    out.numStageThreads = 1;
    out.rusage = ResourceUsage::processNow().minus(ru0);
    out.workers.push_back(worker.stats);
    if (ctl.aborted()) {
        out.ok = false;
        std::lock_guard<std::mutex> g(ctl.errorMu);
        out.error = ctl.error;
    }
    return out;
}

} // namespace phloem::rt
