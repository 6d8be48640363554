/**
 * @file
 * Bounded lock-free single-producer/single-consumer ring buffer: the
 * native-runtime analogue of one Pipette architectural queue.
 *
 * Design (in the spirit of Lamport's ring with cached indices, as used
 * by modern pipeline runtimes):
 *  - capacity is exact (a queue of depth d holds at most d elements,
 *    matching SysConfig::queueDepth / QueueConfig::depth semantics);
 *  - producer and consumer indices live on separate cache lines so the
 *    hot path has no false sharing; each side additionally caches the
 *    other side's index and re-reads it only when the ring looks
 *    full/empty, which removes most cross-core coherence traffic;
 *  - tryPush/tryPop never block; a blocked op parks its task on the
 *    ring's waiter lists (waitBlocked in runtime/worker.h, where abort
 *    and shutdown are checked), and each successful op wakes the other
 *    side's waiters.
 *
 * Queues targeted by kEnqDist have one producer *per replica*; those are
 * marked multi-producer and pushes serialize on a tiny spinlock (the
 * consumer side stays lock-free). They are also the only rings whose
 * endpoints run on different pool workers, so only they pay the
 * notifier's fence and lock their waiter lists (park.h); every other
 * ring's producer, consumer and waiters share one home worker.
 */

#ifndef PHLOEM_RUNTIME_QUEUE_H
#define PHLOEM_RUNTIME_QUEUE_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/logging.h"
#include "ir/type.h"
#include "runtime/park.h"

namespace phloem::rt {

/** Pause the core briefly inside a spin loop. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

class SpscQueue
{
  public:
    explicit SpscQueue(int depth)
        : depth_(depth), slots_(static_cast<size_t>(depth) + 1),
          buf_(static_cast<size_t>(depth) + 1)
    {
        phloem_assert(depth >= 1, "queue depth must be positive");
    }

    SpscQueue(const SpscQueue&) = delete;
    SpscQueue& operator=(const SpscQueue&) = delete;

    int depth() const { return depth_; }

    /** Mark the ring multi-producer before any endpoint uses it. */
    void
    setMultiProducer()
    {
        multiProducer_ = true;
        waiters_.producers.setShared();
        waiters_.consumers.setShared();
    }
    bool multiProducer() const { return multiProducer_; }

    /** The tasks parked on this ring: blocked producers and consumer. */
    QueueWaiters& waiters() { return waiters_; }

    /** Producer side: enqueue v; false when the ring is full. */
    bool
    tryPush(const ir::Value& v)
    {
        bool ok;
        if (multiProducer_) {
            while (pushLock_.exchange(true, std::memory_order_acquire))
                cpuRelax();
            ok = pushImpl(v);
            pushLock_.store(false, std::memory_order_release);
        } else {
            ok = pushImpl(v);
        }
        if (ok)
            notifyData();
        return ok;
    }

    /**
     * Producer side: push up to max_n values obtained from gen(k),
     * k = 0..n-1, publishing them all with a single release store.
     * Returns the number pushed: 0 when the ring is full, at least 1
     * once hasFreeSlot() said yes. Scan RAs use this to stream ranges
     * without per-element synchronization.
     */
    template <typename Gen>
    size_t
    pushBatch(size_t max_n, Gen&& gen)
    {
        size_t n;
        if (multiProducer_) {
            while (pushLock_.exchange(true, std::memory_order_acquire))
                cpuRelax();
            n = pushBatchImpl(max_n, gen);
            pushLock_.store(false, std::memory_order_release);
        } else {
            n = pushBatchImpl(max_n, gen);
        }
        if (n > 0)
            notifyData();
        return n;
    }

    /**
     * Producer side: true when the ring has a free slot. Only a
     * single-producer ring may ask: no other producer can take the slot,
     * so the producer's next push is sure to succeed. An RA reserves its
     * output slot this way before it takes a value off its input ring.
     */
    bool
    hasFreeSlot()
    {
        size_t nxt = next(tail_.load(std::memory_order_relaxed));
        if (nxt == headCache_)
            headCache_ = head_.load(std::memory_order_acquire);
        return nxt != headCache_;
    }

    /** Consumer side: dequeue into v; false when the ring is empty. */
    bool
    tryPop(ir::Value& v)
    {
        size_t head = head_.load(std::memory_order_relaxed);
        if (head == tailCache_) {
            tailCache_ = tail_.load(std::memory_order_acquire);
            if (head == tailCache_)
                return false;
        }
        v = buf_[head];
        head_.store(next(head), std::memory_order_release);
        deqCount_++;
        notifySpace();
        return true;
    }

    /** Consumer side: read the front element without removing it. */
    bool
    tryPeek(ir::Value& v)
    {
        size_t head = head_.load(std::memory_order_relaxed);
        if (head == tailCache_) {
            tailCache_ = tail_.load(std::memory_order_acquire);
            if (head == tailCache_)
                return false;
        }
        v = buf_[head];
        return true;
    }

    /**
     * Approximate occupancy: exact when called from the producer or
     * consumer thread between their own operations, stale otherwise.
     */
    size_t
    sizeApprox() const
    {
        size_t head = head_.load(std::memory_order_acquire);
        size_t tail = tail_.load(std::memory_order_acquire);
        return (tail + slots_ - head) % slots_;
    }

    // --- Stats, read after the run when all workers have joined. ---
    uint64_t enqCount() const { return enqCount_; }
    uint64_t deqCount() const { return deqCount_; }
    size_t maxOccupancy() const { return maxOcc_; }
    /** Number of log2 histogram buckets: 1, 2-3, 4-7, ..., >= 128. */
    static constexpr int kBatchHistBuckets = 8;
    uint64_t pushBatches() const { return pushBatches_; }
    uint64_t pushBatchElems() const { return pushBatchElems_; }
    uint64_t pushHist(int b) const { return pushHist_[b]; }
    uint64_t enqBlocks() const
    {
        return enqBlocks_.load(std::memory_order_relaxed);
    }
    uint64_t deqBlocks() const { return deqBlocks_; }

    /** Producer-side bookkeeping: one failed push that led to a wait. */
    void
    noteEnqBlocked()
    {
        enqBlocks_.fetch_add(1, std::memory_order_relaxed);
    }
    /** Consumer-side bookkeeping: one failed pop that led to a wait. */
    void noteDeqBlocked() { deqBlocks_++; }

  private:
    /**
     * Notifier side of the parking handshake (park.h): after making
     * data visible, wake blocked consumers. On a multi-producer ring
     * the seq_cst fence orders our index store before the waiter-list
     * check — the Dekker mirror of the parker's register-then-recheck.
     * Any other ring's parker runs on this thread, so it is either
     * already on the list or has yet to re-check the ring.
     */
    void
    notifyData()
    {
        if (multiProducer_)
            std::atomic_thread_fence(std::memory_order_seq_cst);
        if (!waiters_.consumers.empty())
            waiters_.consumers.wakeAll();
    }

    /** Mirror of notifyData: after freeing a slot, wake producers. */
    void
    notifySpace()
    {
        if (multiProducer_)
            std::atomic_thread_fence(std::memory_order_seq_cst);
        if (!waiters_.producers.empty())
            waiters_.producers.wakeAll();
    }

    size_t next(size_t i) const { return i + 1 == slots_ ? 0 : i + 1; }

    size_t
    usedSlots(size_t tail) const
    {
        return tail >= headCache_ ? tail - headCache_
                                  : tail + slots_ - headCache_;
    }

    /** Log2 bucket of a batch size n >= 1, clamped to the last bucket. */
    static int
    histBucket(size_t n)
    {
        int b = 0;
        while (n > 1 && b + 1 < kBatchHistBuckets) {
            n >>= 1;
            ++b;
        }
        return b;
    }

    /**
     * Producer-side high-water-mark update after a push left occupancy
     * at `occ` *per the producer's cached head*. The cache only lags:
     * the consumer may have advanced past headCache_, so the stale occ
     * is an upper bound on the true occupancy — never an underestimate.
     * That makes the stale value safe as a *trigger* but wrong as a
     * *measurement*: recording it directly over-reports the mark (it
     * can even exceed depth). So only when the stale candidate would
     * raise the mark do we pay one acquire load to refresh the cache
     * and recompute; any true new maximum still trips the trigger, so
     * the mark stays exact while the hot path (occ <= maxOcc_) stays
     * free of coherence traffic.
     */
    void
    noteOccupancy(size_t tail_after)
    {
        size_t occ = tail_after >= headCache_
                         ? tail_after - headCache_
                         : tail_after + slots_ - headCache_;
        if (occ <= maxOcc_)
            return;
        headCache_ = head_.load(std::memory_order_acquire);
        occ = tail_after >= headCache_
                  ? tail_after - headCache_
                  : tail_after + slots_ - headCache_;
        if (occ > maxOcc_)
            maxOcc_ = occ;
    }

    template <typename Gen>
    size_t
    pushBatchImpl(size_t max_n, Gen&& gen)
    {
        size_t tail = tail_.load(std::memory_order_relaxed);
        size_t used = usedSlots(tail);
        size_t free_slots = slots_ - 1 - used;
        if (free_slots < max_n) {
            headCache_ = head_.load(std::memory_order_acquire);
            used = usedSlots(tail);
            free_slots = slots_ - 1 - used;
            if (free_slots == 0)
                return 0;
        }
        size_t n = std::min(max_n, free_slots);
        size_t t = tail;
        for (size_t k = 0; k < n; ++k) {
            buf_[t] = gen(k);
            t = next(t);
        }
        tail_.store(t, std::memory_order_release);
        enqCount_ += n;
        pushBatches_++;
        pushBatchElems_ += n;
        pushHist_[histBucket(n)]++;
        noteOccupancy(t);
        return n;
    }

    bool
    pushImpl(const ir::Value& v)
    {
        size_t tail = tail_.load(std::memory_order_relaxed);
        size_t nxt = next(tail);
        if (nxt == headCache_) {
            headCache_ = head_.load(std::memory_order_acquire);
            if (nxt == headCache_)
                return false;
        }
        buf_[tail] = v;
        tail_.store(nxt, std::memory_order_release);
        enqCount_++;
        noteOccupancy(nxt);
        return true;
    }

    const int depth_;
    const size_t slots_;
    std::vector<ir::Value> buf_;
    /** Read-only once the run starts; both sides read it per op. */
    bool multiProducer_ = false;

    // Consumer-owned line: index plus the consumer's cache of tail.
    alignas(64) std::atomic<size_t> head_{0};
    size_t tailCache_ = 0;
    uint64_t deqCount_ = 0;
    uint64_t deqBlocks_ = 0;

    // Producer-owned line: index plus the producer's cache of head.
    alignas(64) std::atomic<size_t> tail_{0};
    size_t headCache_ = 0;
    uint64_t enqCount_ = 0;
    size_t maxOcc_ = 0;
    uint64_t pushBatches_ = 0;
    uint64_t pushBatchElems_ = 0;
    uint64_t pushHist_[kBatchHistBuckets] = {};

    // Shared (cold path only).
    alignas(64) std::atomic<bool> pushLock_{false};
    std::atomic<uint64_t> enqBlocks_{0};

    /** Parked tasks; both sides read the counts after every op. */
    alignas(64) QueueWaiters waiters_;
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_QUEUE_H
