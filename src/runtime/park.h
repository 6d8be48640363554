/**
 * @file
 * Parking primitives shared between the rings, the stage barrier and
 * the task scheduler: the waiter lists a parked task registers on, and
 * the ParkTarget descriptor that names one wait.
 *
 * Only a wait that crosses replicas parks. A stage waiting on its own
 * replica's rings is switched out by its replica's loop (worker.h:
 * Replica), which runs on one pool worker; a replica task parks only
 * when each of its live stages is blocked and some wait on a ring that
 * other replicas push into (a multi-producer distribute ring) or on a
 * barrier whose parties span replicas. So a waiter list belongs to one
 * of those, and its parker and notifier can run on different OS
 * threads. The lifecycle contract:
 *
 *   parker:   list->add(task) for every target; seq_cst fence;
 *             re-check every target; then, under the run's mutex,
 *             park unless a wake came first (Scheduler::park in
 *             sched.cc).
 *   notifier: perform the push/pop/arrival; seq_cst fence; if the list
 *             is non-empty, wake every waiter.
 *
 * The symmetric fences are the Dekker handshake that makes a lost
 * wakeup impossible: either the parker's re-check observes the
 * notifier's operation, or the notifier's list check observes the
 * parker's registration, and its wake, taken under the same mutex,
 * either unparks the task or cancels the park. Spurious wakeups are
 * allowed: a woken replica runs its stages again and re-parks if
 * nothing moved.
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
 * A list of tasks parked on one condition (one side of a distribute
 * ring, or a barrier). It is spinlocked, the lock held only for pointer
 * insert/remove; wakers take waiters off under the lock and unpark them
 * outside it. Several replicas can wait on one distribute ring, so this
 * is a list, not a slot.
 */
class WaitList
{
  public:
    /** Cheap notifier-side check; call after the notifier's fence. */
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
        while (lock_.exchange(true, std::memory_order_acquire)) {
        }
    }

    void unlock() { lock_.store(false, std::memory_order_release); }

    std::atomic<bool> lock_{false};
    std::atomic<int> count_{0};
    std::vector<Task*> items_;
};

/**
 * Waiter lists for one ring: replicas parked on its producer side (the
 * ring is full) and on its consumer side (empty). Only a multi-producer
 * ring ever has waiters.
 */
struct QueueWaiters
{
    WaitList producers;
    WaitList consumers;
};

/**
 * One wait a parking task registers for, and how to re-check it.
 * `ready` must be a pure read of shared state (fresh acquire loads);
 * the scheduler calls it between registering on `list` and parking,
 * and cannot-miss semantics come from the fence pairing described
 * above. `list` must not be null.
 */
struct ParkTarget
{
    WaitList* list = nullptr;
    bool (*ready)(const ParkTarget&) = nullptr;
    const void* obj = nullptr;  ///< queue or barrier the wait is on
    uint64_t arg = 0;           ///< e.g. the barrier generation awaited
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_PARK_H
