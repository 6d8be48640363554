/**
 * @file
 * Parking primitives shared between the SPSC rings and the task
 * scheduler: the waiter lists a blocked task registers on, and the
 * ParkTarget descriptor a blocking wait hands to the scheduler.
 *
 * This header is deliberately tiny and free of scheduler internals so
 * queue.h can embed waiter lists without pulling in fibers or worker
 * pools. The lifecycle contract:
 *
 *   parker:   state = Parking; list->add(self); seq_cst fence;
 *             re-check condition; park or cancel (sched.cc).
 *   notifier: perform the push/pop; seq_cst fence; if the list is
 *             non-empty, wake every waiter.
 *
 * The symmetric fences are the Dekker handshake that makes a lost
 * wakeup impossible: either the parker's re-check observes the
 * notifier's operation, or the notifier's list check observes the
 * parker's registration. Spurious wakeups are allowed and handled by
 * the wait loops (they re-check the ring and re-park).
 *
 * The notifier's fence and the list's lock are needed only where the
 * parker and the notifier can run on different OS threads. A list is
 * *home-local* when every task that registers on it or wakes through
 * it runs on one pool worker's thread (sched.h: a replica's tasks share
 * one home): those tasks run one at a time, so program order alone
 * decides which side sees the other, and the list takes no lock. The
 * parker keeps its fence either way; it also pairs with the abort
 * wakes that SchedRun::wakeAllTasks sends from other threads.
 */

#ifndef PHLOEM_RUNTIME_PARK_H
#define PHLOEM_RUNTIME_PARK_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace phloem::rt {

class Task;

/**
 * A list of tasks blocked on one condition (one side of a ring, or a
 * barrier). A shared list is spinlocked, the lock held only for
 * pointer insert/remove; wakers take waiters off under the lock and
 * unpark them outside it. A home-local list (see above) skips the
 * lock. Multi-producer rings can have several blocked producers, so
 * this is a list, not a slot.
 */
class WaitList
{
  public:
    /** A new list is shared; rings mark theirs home-local. */
    explicit WaitList(bool shared = true) : shared_(shared) {}

    /** Make the list shared; call before any task uses it. */
    void setShared() { shared_ = true; }

    /** Cheap notifier-side check; on a shared list, call after a fence. */
    bool
    empty() const
    {
        return count_.load(std::memory_order_relaxed) == 0;
    }

    void
    add(Task* t)
    {
        lock();
        items_.push_back(t);
        count_.store(static_cast<int>(items_.size()),
                     std::memory_order_relaxed);
        unlock();
    }

    /** Remove t if present (idempotent: wakers also deregister). */
    void
    remove(Task* t)
    {
        lock();
        for (size_t i = 0; i < items_.size(); ++i) {
            if (items_[i] == t) {
                items_[i] = items_.back();
                items_.pop_back();
                break;
            }
        }
        count_.store(static_cast<int>(items_.size()),
                     std::memory_order_relaxed);
        unlock();
    }

    /** Deregister and return one waiter, or null if there is none. */
    Task*
    takeOne()
    {
        lock();
        Task* t = nullptr;
        if (!items_.empty()) {
            t = items_.back();
            items_.pop_back();
            count_.store(static_cast<int>(items_.size()),
                         std::memory_order_relaxed);
        }
        unlock();
        return t;
    }

    /**
     * Drain the list: deregister every waiter and unpark it. Defined in
     * sched.cc (needs Scheduler::unpark).
     */
    void wakeAll();

  private:
    void
    lock()
    {
        if (!shared_)
            return;
        while (lock_.exchange(true, std::memory_order_acquire)) {
        }
    }

    void
    unlock()
    {
        if (shared_)
            lock_.store(false, std::memory_order_release);
    }

    bool shared_;
    std::atomic<bool> lock_{false};
    std::atomic<int> count_{0};
    std::vector<Task*> items_;
};

/**
 * Waiter slots for one ring: blocked producers and the consumer.
 * Home-local until the ring is marked multi-producer.
 */
struct QueueWaiters
{
    WaitList producers{/*shared=*/false};
    WaitList consumers{/*shared=*/false};
};

/**
 * Where a blocked wait parks and how to re-check its condition.
 * `ready` must be a pure read of shared state (fresh acquire loads);
 * the scheduler calls it between registering on `list` and actually
 * yielding the worker, and cannot-miss semantics come from the fence
 * pairing described above. `list` must not be null.
 */
struct ParkTarget
{
    WaitList* list = nullptr;
    bool (*ready)(const ParkTarget&) = nullptr;
    const void* obj = nullptr;  ///< queue or barrier the wait is on
    uint64_t arg = 0;           ///< e.g. the barrier generation awaited
    const char* what = "";      ///< "enq"/"deq"/"peek"/"barrier"
    int q = -1;                 ///< absolute queue id for diagnostics
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_PARK_H
