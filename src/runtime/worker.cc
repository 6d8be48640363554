#include "runtime/worker.h"

#include "ir/op.h"
#include "runtime/decode.h"
#include "runtime/engine.h"

namespace phloem::rt {

// ---------------------------------------------------------------------
// StageBarrier.
// ---------------------------------------------------------------------

bool
StageBarrier::arriveAndWait(RunControl& ctl)
{
    uint64_t gen = generation_.load(std::memory_order_acquire);
    int arrived = waiting_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (arrived == parties_) {
        waiting_.store(0, std::memory_order_relaxed);
        generation_.fetch_add(1, std::memory_order_release);
        // Notifier side of the parking handshake: the generation bump
        // above must be ordered before the waiter-list check, so a
        // peer that registered just before we bumped is either seen
        // here or sees the new generation in its parked re-check.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (!waiters_.empty())
            waiters_.wakeAll();
        return !ctl.aborted();
    }
    ParkTarget pt;
    pt.list = &waiters_;
    pt.ready = &StageBarrier::generationAdvanced;
    pt.obj = this;
    pt.arg = gen;
    pt.what = "barrier";
    while (generation_.load(std::memory_order_acquire) == gen)
        if (!parkStep(ctl, /*stoppable=*/false, pt))
            return false;
    return !ctl.aborted();
}

// ---------------------------------------------------------------------
// StageWorker.
// ---------------------------------------------------------------------

StageWorker::StageWorker(std::string name, const sim::Program* prog,
                         sim::Binding& binding, int replica,
                         int queue_offset, int queue_stride,
                         int num_replicas, std::vector<SpscQueue*> queues,
                         StageBarrier* barrier, RunControl* ctl)
    : prog_(prog), queueOffset_(queue_offset), queueStride_(queue_stride),
      numReplicas_(num_replicas), queues_(std::move(queues)),
      barrier_(barrier), ctl_(ctl)
{
    stats.name = std::move(name);
    stats.isStage = true;
    stats.opCounts.assign(static_cast<size_t>(ir::kNumOpcodes), 0);

    regs_.assign(static_cast<size_t>(prog_->numRegs), ir::Value{});
    const ir::Function& fn = *prog_->fn;
    for (const auto& p : fn.scalarParams)
        regs_[static_cast<size_t>(p.reg)] = binding.scalar(p.name, replica);
    arrayBind_.resize(fn.arrays.size());
    for (size_t a = 0; a < fn.arrays.size(); ++a)
        arrayBind_[a] = binding.array(fn.arrays[a].name, replica);
}

void
StageWorker::run()
{
    runEngine();
    // A budget overrun throws past this point.
    if (traceBuf) {
        uint64_t t = traceBuf->now();
        traceBuf->record(trace::EventKind::kHalt, -1, t, t);
    }
}

void
StageWorker::runEngine()
{
    // A cached shape (compilation service) skips classification+fusion;
    // either way the copy is relocated for this replica's queue window.
    DecodedProgram dec = shape != nullptr ? *shape : decodeShape(*prog_);
    relocateProgram(dec, queueOffset_, queues_);
    stats.fusedSites = static_cast<uint64_t>(dec.fusedSites);

    EngineEnv env;
    env.regs = regs_.data();
    env.arrayBind = arrayBind_.data();
    env.queues = &queues_;
    env.barrier = barrier_;
    env.ctl = ctl_;
    env.stats = &stats;
    env.trace = traceBuf;
    env.queueStride = queueStride_;
    env.numReplicas = numReplicas_;
    Engine engine(dec, env);
    try {
        engine.run();
    } catch (...) {
        // A budget throw still reports buffered-but-undequeued values:
        // the failure post-mortem keys on residual occupancy.
        unconsumed = engine.queues().unconsumed();
        throw;
    }
    unconsumed = engine.queues().unconsumed();
}

// ---------------------------------------------------------------------
// RAWorker.
// ---------------------------------------------------------------------

RAWorker::RAWorker(std::string name, const ir::RAConfig& cfg,
                   sim::ArrayBuffer* array, SpscQueue* in_q,
                   SpscQueue* out_q, RunControl* ctl)
    : cfg_(cfg), array_(array), inQ_(in_q), outQ_(out_q), ctl_(ctl)
{
    stats.name = std::move(name);
    stats.isStage = false;
}

void
RAWorker::heartbeat(uint64_t n)
{
    heartbeatCount_ += n;
    if (heartbeatCount_ >= kHeartbeatInterval) {
        heartbeatCount_ = 0;
        // A streaming RA must not starve the runnable peers homed on
        // its worker.
        Scheduler::maybeYield();
    }
}

bool
RAWorker::waitPush(const ir::Value& v)
{
    if (outQ_->tryPush(v)) {
        heartbeat();
        return true;
    }
    // Stoppable: once every stage task halted, whatever the RA still
    // holds can never reach memory, so it just exits.
    return waitBlocked(*ctl_, traceBuf, *outQ_, traceOutQ, QueueWait::kEnq,
                       /*stoppable=*/true, [&] { return outQ_->tryPush(v); });
}

bool
RAWorker::waitPop(ir::Value& v)
{
    if (inQ_->tryPop(v)) {
        heartbeat();
        return true;
    }
    // An empty input after shutdown is the normal RA exit path (RAs
    // never see an end-of-stream value).
    return waitBlocked(*ctl_, traceBuf, *inQ_, traceInQ, QueueWait::kDeq,
                       /*stoppable=*/true, [&] { return inQ_->tryPop(v); });
}

bool
RAWorker::serviceIndirectBatch(const ir::Value* batch, size_t n)
{
    size_t i = 0;
    while (i < n) {
        if (batch[i].isControl()) {
            // Control values pass through in order, delimiting streams.
            stats.raCtrlForwarded++;
            if (!waitPush(batch[i])) {
                unconsumedIn += n - i;
                return false;
            }
            ++i;
            continue;
        }
        // Emit the maximal run of data indices [i, j) as output batches.
        size_t j = i;
        while (j < n && !batch[j].isControl())
            ++j;
        while (i < j) {
            uint64_t t0 = traceBuf ? traceBuf->now() : 0;
            size_t pushed = outQ_->pushBatch(j - i, [&](size_t k) {
                return array_->load(batch[i + k].asInt());
            });
            if (pushed == 0) {
                // Ring full: fall back to one blocking push.
                if (!waitPush(array_->load(batch[i].asInt()))) {
                    unconsumedIn += n - i;
                    return false;
                }
                pushed = 1;
            } else {
                heartbeat(pushed);
                if (traceBuf)
                    traceBuf->record(trace::EventKind::kRaService,
                                     traceOutQ, t0, traceBuf->now(),
                                     pushed);
            }
            i += pushed;
            stats.raElements += pushed;
        }
    }
    return true;
}

void
RAWorker::run()
{
    runLoop();
    if (traceBuf) {
        uint64_t t = traceBuf->now();
        traceBuf->record(trace::EventKind::kHalt, -1, t, t);
    }
}

void
RAWorker::runLoop()
{
    enum class Phase : uint8_t { kIdle, kHaveStart, kScanning };
    Phase phase = Phase::kIdle;
    int64_t pending_start = 0;
    int64_t scan_cur = 0;
    int64_t scan_end = 0;

    for (;;) {
        if (phase == Phase::kScanning) {
            if (scan_cur >= scan_end) {
                if (cfg_.emitRangeCtrl) {
                    if (!waitPush(ir::Value::makeControl(
                            cfg_.rangeCtrlCode)))
                        return;
                    stats.raCtrlForwarded++;
                }
                phase = Phase::kIdle;
                continue;
            }
            // Stream the rest of the range as one batch per ring refill:
            // elements are published with a single release store, which
            // is where the RA's native-speed advantage comes from.
            size_t want = static_cast<size_t>(scan_end - scan_cur);
            uint64_t t0 = traceBuf ? traceBuf->now() : 0;
            size_t pushed = outQ_->pushBatch(want, [&](size_t k) {
                return array_->load(scan_cur + static_cast<int64_t>(k));
            });
            if (pushed == 0) {
                // Ring full: fall back to one blocking push.
                if (!waitPush(array_->load(scan_cur)))
                    return;
                pushed = 1;
            } else {
                heartbeat(pushed);
                if (traceBuf)
                    traceBuf->record(trace::EventKind::kRaService,
                                     traceOutQ, t0, traceBuf->now(),
                                     pushed);
            }
            scan_cur += static_cast<int64_t>(pushed);
            stats.raElements += pushed;
            continue;
        }

        ir::Value e;
        if (!waitPop(e))
            return;

        if (e.isControl()) {
            // Control values pass through RAs, delimiting streams.
            phase = Phase::kIdle;
            stats.raCtrlForwarded++;
            if (!waitPush(e))
                return;
            continue;
        }

        if (cfg_.mode == ir::RAMode::kIndirect) {
            // Batched drain/emit: grab whatever run of indices the
            // producer has already published alongside e, then load and
            // publish the elements with pushBatch — one ring
            // synchronization per run on each side instead of one per
            // element.
            ir::Value batch[kIndirectBatch];
            batch[0] = e;
            size_t n = 1 + inQ_->popBatch(kIndirectBatch - 1, batch + 1);
            if (!serviceIndirectBatch(batch, n))
                return;
        } else {
            if (phase == Phase::kIdle) {
                pending_start = e.asInt();
                phase = Phase::kHaveStart;
            } else {
                scan_cur = pending_start;
                scan_end = e.asInt();
                phase = Phase::kScanning;
            }
        }
    }
}

} // namespace phloem::rt
