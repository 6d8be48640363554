/**
 * @file
 * Shared task scheduler for the native runtime.
 *
 * Every pipeline runs here: each replica is one resumable *task*, a
 * stackless body (TaskBody) that a fixed-size pool of OS workers,
 * default `hardware_concurrency`, calls until it is done; each worker
 * has its own run queue. A replica's body is a loop over its stages
 * (worker.h: Replica) that switches to another stage whenever one
 * blocks, the way a Pipette core switches SMT thread contexts, so the
 * pool never sees a stage or a reference accelerator. Wide pipelines
 * and phloemd's concurrent requests therefore share the host without
 * one OS thread, or one stack, per stage.
 *
 * Placement follows the paper's core mapping: one pipeline's stages
 * are SMT threads of one core, replicas go to successive cores. Every
 * task gets one *home* worker when its run starts, the one with the
 * fewest live homed tasks, and only ever runs there; nothing is
 * stolen.
 *
 * A task parks only on waits that cross replicas: a multi-producer
 * (distribute) ring, or a barrier whose parties span replicas. Its body
 * lists those waits as ParkTargets and returns kPark; the worker then
 * registers the task on every target's waiter list (park.h), re-checks,
 * and parks it or runs it on. The push, pop or arrival on the other
 * side unparks it onto its home's queue.
 *
 * Deadlock detection is exact. A body finds the deadlocks it can see
 * whole: a replica whose stages wait only on each other reports one at
 * once. The scheduler finds the rest. Every park and wake of a run's
 * tasks happens under the run's mutex, beside its live and parked
 * counts, and only a live task of the run may call Scheduler::unpark,
 * SchedRun::wakeAllTasks or RunControl::fail: one of its stages, the
 * last task to park, or a task that finishes. So once every live task
 * is parked, none can ever be woken: the run fails in the lock hold
 * that parks the last of them, or that finishes a task and leaves only
 * parked ones behind. A merely descheduled task is queued, not parked,
 * so an oversubscribed but live pipeline is never called deadlocked.
 *
 * See DESIGN.md §12 for the parking protocol.
 */

#ifndef PHLOEM_RUNTIME_SCHED_H
#define PHLOEM_RUNTIME_SCHED_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/park.h"

namespace phloem::rt {

struct RunControl;
class Scheduler;
class SchedRun;

/** What a task body asks of its worker when it returns. */
enum class TaskStep : uint8_t {
    kDone,   ///< finished: the task never runs again
    kYield,  ///< other tasks are queued here (Scheduler::shouldYield)
    kPark,   ///< blocked on the ParkTargets it listed
};

/**
 * The resumable body of a task: all of its state lives in the object,
 * so the pool calls resume() afresh each time it runs the task.
 */
class TaskBody
{
  public:
    virtual ~TaskBody() = default;

    /**
     * Run on the task's home worker until finished, until
     * Scheduler::shouldYield() says others wait for the worker, or
     * until nothing can move without another task. In that last case,
     * replace `park` with every wait another task can end and return
     * kPark; the next resume() follows a wake, or the cancel of a park
     * whose target was already ready. Must not throw.
     */
    virtual TaskStep resume(std::vector<ParkTarget>& park) = 0;

    /**
     * Append one "\n  ..." line per wait of the task to a deadlock
     * report. The scheduler calls it while the task is parked, under the
     * run's mutex, on whichever thread found the deadlock, so it may read
     * only what is safe to read there.
     */
    virtual void describeWaits(std::string& out) const = 0;
};

/** One task: a body, its home, its park flags and its counters. */
class Task
{
  public:
    Task(SchedRun* run, TaskBody* body) : run_(run), body_(body) {}

    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;

  private:
    friend class Scheduler;
    friend class SchedRun;
    friend class WaitList;

    SchedRun* run_;
    TaskBody* body_;

    /** Parked until a wake; guarded by the run's mu_. */
    bool parked_ = false;
    /**
     * A wake found the task not parked, so its next park is cancelled:
     * a spurious wake, which the body absorbs. Guarded by the run's mu_.
     */
    bool wakeRequested_ = false;
    /**
     * Parked by its last dispatch: its next one counts an unpark and
     * leaves the wait lists. Written only on the home worker's thread.
     */
    bool resumesFromPark_ = false;
    /**
     * What the body listed at its last kPark; the task stays on these
     * lists until its next dispatch takes it off.
     */
    std::vector<ParkTarget> waits_;
    /** The pool worker that runs this task, set once by start(). */
    void* home_ = nullptr;

    /** Event counts; written only on the home worker's thread. */
    uint64_t parks_ = 0;
    uint64_t unparks_ = 0;
    uint64_t yields_ = 0;
};

/**
 * One pipeline run's task group: owns the tasks, tracks completion,
 * and carries the run-level scheduler counters that land in
 * NativeStats. Created by Scheduler::createRun; must be destroyed
 * only after waitAll() returned.
 */
class SchedRun
{
  public:
    ~SchedRun();

    SchedRun(const SchedRun&) = delete;
    SchedRun& operator=(const SchedRun&) = delete;

    /**
     * Add a task before start(); `body` must outlive the run. Each task
     * gets a home worker of its own choosing (one per replica).
     */
    void addTask(TaskBody* body);

    /** Give each task a home worker and enqueue it there. */
    void start();

    /** Block the caller until every task finished. */
    void waitAll();

    /**
     * Unpark every parked task and cancel the next park of every other
     * (idempotent): RunControl::fail calls it so an aborting run cannot
     * strand sleepers. Only a live task of the run may call it.
     */
    void wakeAllTasks();

    /**
     * Scheduler events of this run's tasks. Read only after waitAll():
     * the home workers count them without synchronization.
     */
    uint64_t parks() const { return sumOverTasks(&Task::parks_); }
    uint64_t unparks() const { return sumOverTasks(&Task::unparks_); }
    uint64_t yields() const { return sumOverTasks(&Task::yields_); }

    /**
     * Distinct pool workers that run this run's tasks: a task runs only
     * on its home, so the distinct homes.
     */
    int workersUsed() const;
    /** Pool worker index of each task's home, in addTask order. */
    const std::vector<int>& homes() const { return homes_; }

    Scheduler& scheduler() { return *sched_; }

  private:
    friend class Scheduler;

    SchedRun(Scheduler* sched, RunControl* ctl) : sched_(sched), ctl_(ctl) {}

    uint64_t sumOverTasks(uint64_t Task::*count) const;
    /**
     * "deadlock: all <live> live tasks parked with nothing runnable",
     * then each parked task's waits. Call with mu_ held.
     */
    std::string deadlockReport(int live) const;

    Scheduler* sched_;
    RunControl* ctl_;
    std::vector<std::unique_ptr<Task>> tasks_;
    /** Home worker index per task, filled by start(). */
    std::vector<int> homes_;

    /** Guards the two counts and every task's park flags. */
    std::mutex mu_;
    std::condition_variable cv_;
    /** Tasks not yet finished. */
    int totalLive_ = 0;
    /** Live tasks parked until a wake. */
    int totalParked_ = 0;
    bool started_ = false;
};

class Scheduler
{
  public:
    struct Options
    {
        /** Pool size; 0 means std::thread::hardware_concurrency(). */
        int workers = 0;
    };

    Scheduler();
    explicit Scheduler(const Options& opts);
    ~Scheduler();

    Scheduler(const Scheduler&) = delete;
    Scheduler& operator=(const Scheduler&) = delete;

    /**
     * The process-wide shared pool every run uses by default, created
     * on first use: hardware_concurrency workers unless
     * PHLOEM_SCHED_WORKERS sets the size — one machine, one pool.
     */
    static Scheduler& shared();
    /** The shared pool if some run already created it, else null. */
    static Scheduler* sharedIfCreated();

    int poolSize() const { return static_cast<int>(workers_.size()); }

    struct Counters
    {
        uint64_t parks = 0;
        uint64_t unparks = 0;
        uint64_t steals = 0;
        uint64_t yields = 0;
        uint64_t tasksStarted = 0;
    };
    /**
     * Process-lifetime totals (phloemd's "stats" op reports these).
     * Event counts cover finished runs; `steals` stays 0 because every
     * task has a home and is never stolen.
     */
    Counters counters() const;

    /** New empty task group bound to one run's RunControl. */
    std::unique_ptr<SchedRun> createRun(RunControl* ctl);

    /**
     * True on a pool worker that has other tasks queued: a body asks at
     * its heartbeats and yields (TaskStep::kYield) when it is. False off
     * the pool.
     */
    static bool shouldYield();

    /**
     * Make t runnable if parked, requeueing it on its home worker (at
     * the front when the caller already runs there); else cancel t's
     * next park. Only a live task of t's run may call it.
     */
    void unpark(Task* t);

  private:
    friend class SchedRun;
    friend class WaitList;

    struct Worker
    {
        int idx = 0;
        std::mutex mu;
        std::condition_variable cv;
        /** Runnable tasks homed here; guarded by mu. */
        std::deque<Task*> queue;
        /** The worker waits on cv for the queue to fill; guarded by mu. */
        bool sleeping = false;
        /** queue.size(), readable without mu (shouldYield). */
        std::atomic<int> queued{0};
        /** Live tasks homed here: start()'s placement load. */
        std::atomic<int> homed{0};
        std::thread thr;
    };

    void workerLoop(Worker& w);
    /**
     * Run t's body on w until it finishes, yields or parks, and settle
     * the outcome.
     */
    void dispatch(Worker& w, Task* t);
    /**
     * Two-phase park of t on every target its body listed: register,
     * re-check the targets under the Dekker fence pairing, then park
     * under the run's mutex, failing the run if t was its last live
     * task not parked. Returns false when the park was cancelled (a
     * target was ready, or a wake came first): t runs on.
     */
    bool park(Task* t);
    /** Take t off every waiter list of its last park. */
    static void leaveWaitLists(Task* t);
    /**
     * Drop t from its run's live count, failing the run first if only
     * parked tasks remain.
     */
    void finishTask(Task* t);
    /** Pop w's next task, or sleep until one arrives; null at shutdown. */
    Task* next(Worker& w);
    /**
     * Queue t on w, at the front (to run next) if `front`, else at the
     * back, waking w if it sleeps.
     */
    void submit(Worker& w, Task* t, bool front);
    /** Choose each task's home worker. */
    void place(SchedRun& r);

    /** The pool worker this OS thread is, or null off the pool. */
    static thread_local Worker* tlsWorker_;

    std::vector<std::unique_ptr<Worker>> workers_;
    std::atomic<bool> shutdown_{false};

    /** Serializes placement so concurrent start() calls see each other. */
    std::mutex placeMu_;
    /** Round-robin tie-break cursor for placement; guarded by placeMu_. */
    size_t placeNext_ = 0;

    std::atomic<uint64_t> parks_{0};
    std::atomic<uint64_t> unparks_{0};
    std::atomic<uint64_t> yields_{0};
    std::atomic<uint64_t> tasksStarted_{0};
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_SCHED_H
