/**
 * @file
 * Shared task scheduler for the native runtime.
 *
 * Every pipeline runs here: each stage worker is a resumable *task*,
 * a stackful fiber scheduled onto a fixed-size pool of OS workers,
 * default `hardware_concurrency`, each with its own run queue (a
 * reference accelerator is no task: its stages pump it, worker.h).
 * Wide pipelines and phloemd's concurrent requests therefore share the
 * host without one OS thread per stage.
 *
 * Placement follows the paper's core mapping: one pipeline's stages
 * are SMT threads of one core, replicas go to successive cores. Every
 * replica gets one *home* worker when its run starts, the one with the
 * fewest live homed tasks, and all of that replica's stage tasks only
 * ever run there. A queue handoff between two tasks of a
 * replica is then a same-core fiber switch, never a cross-core cache
 * line exchange, and nothing is stolen.
 *
 * Blocking keeps the SPSC-ring semantics bit-for-bit: a task that
 * finds a ring full/empty registers on the ring's waiter list
 * (park.h), re-checks, and parks — switching straight into the next
 * task of its home worker's queue at ~0 CPU cost. The push/pop on the
 * other side unparks it onto that queue: at the front, without waking
 * anyone, when the waker already runs there.
 *
 * The scheduler is the runtime's only deadlock detector: a run is
 * deadlocked iff *every* live task is Parked (nothing runnable,
 * nothing running) and stays so for the run's timeout. A merely
 * descheduled task is Runnable, so an oversubscribed-but-live pipeline
 * can never trip the monitor.
 *
 * See DESIGN.md §12 for the task state machine and parking protocol.
 */

#ifndef PHLOEM_RUNTIME_SCHED_H
#define PHLOEM_RUNTIME_SCHED_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
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

/**
 * Task lifecycle. Transitions:
 *   Runnable -> Running            (a worker dispatches it)
 *   Running  -> Parking            (task registered on a waiter list)
 *   Parking  -> Running            (cancel: condition ready on re-check)
 *   Parking  -> UnparkRequested    (a waker raced the park)
 *   Parking  -> Parked             (the task completed its own park)
 *   UnparkRequested -> Running     (the task sees the race and runs on)
 *   Parked   -> Runnable           (a waker unparks it)
 *   Running  -> Runnable           (cooperative yield)
 *   Running  -> Done               (body returned)
 * The Parking/UnparkRequested split is what makes a wake that lands
 * mid-park impossible to lose and impossible to double-enqueue.
 */
enum class TaskState : uint8_t {
    kRunnable,
    kRunning,
    kParking,
    kUnparkRequested,
    kParked,
    kDone,
};

/** One fiber: saved stack pointer + sanitizer bookkeeping (sched.cc). */
struct FiberCtx
{
    /**
     * While the fiber is switched out: where its saved machine state
     * sits, on its own stack (see switchFiber in sched.cc).
     */
    void* sp = nullptr;
    void* stackBottom = nullptr;
    size_t stackSize = 0;
    /** ASan fake-stack handle saved across a suspension. */
    void* fakeStack = nullptr;
    /** TSan fiber handle (null when TSan is off). */
    void* tsanFiber = nullptr;
};

/** One stage worker as a schedulable fiber. */
class Task
{
  public:
    Task(SchedRun* run, std::string name, int replica,
         std::function<void()> body);
    ~Task();

    Task(const Task&) = delete;
    Task& operator=(const Task&) = delete;

    const std::string& name() const { return name_; }

  private:
    friend class Scheduler;
    friend class SchedRun;
    friend class WaitList;
    friend void taskEntry(Task* t);

    enum class Exit : uint8_t { kNone, kPark, kYield, kDone };

    SchedRun* run_;
    std::string name_;
    /** Pipeline replica this task belongs to; it shares the home. */
    int replica_;
    std::function<void()> body_;

    std::atomic<TaskState> state_{TaskState::kRunnable};
    Exit exit_ = Exit::kNone;
    FiberCtx fc_;
    std::unique_ptr<char[]> stack_;
    /** The pool worker that runs this task, set once by start(). */
    void* home_ = nullptr;

    /** What the task is parked on, for the deadlock post-mortem. */
    std::atomic<const char*> parkWhat_{""};
    std::atomic<int> parkQ_{-1};

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
     * Add a task before start(). Tasks with the same replica index
     * share one home worker.
     */
    void addTask(std::string name, int replica, std::function<void()> body);

    /**
     * Give each replica a home worker, enqueue every task there, and
     * register with the deadlock monitor.
     */
    void start();

    /** Block the caller until every task finished. */
    void waitAll();

    /**
     * Unpark every parked task (idempotent, callable from any thread):
     * RunControl::fail calls it so an aborting run cannot strand
     * sleepers.
     */
    void wakeAllTasks();

    /**
     * Scheduler events of this run's tasks. Read only after waitAll():
     * the home workers count them without synchronization.
     */
    uint64_t parks() const { return sumOverTasks(&Task::parks_); }
    uint64_t unparks() const { return sumOverTasks(&Task::unparks_); }
    uint64_t yields() const { return sumOverTasks(&Task::yields_); }

    /** Distinct pool workers that dispatched this run's tasks so far. */
    int workersUsed() const;
    /** Pool worker index of each replica's home (empty before start). */
    const std::vector<int>& homes() const { return homes_; }

    Scheduler& scheduler() { return *sched_; }

  private:
    friend class Scheduler;

    SchedRun(Scheduler* sched, RunControl* ctl);

    uint64_t sumOverTasks(uint64_t Task::*count) const;

    Scheduler* sched_;
    RunControl* ctl_;
    std::vector<std::unique_ptr<Task>> tasks_;
    /** Home worker index per replica, filled by start(). */
    std::vector<int> homes_;
    /** Per pool worker: has it dispatched one of this run's tasks? */
    std::unique_ptr<std::atomic<bool>[]> ranOn_;

    std::mutex mu_;
    std::condition_variable cv_;
    int totalLive_ = 0;
    bool started_ = false;

    /** Monitor-private: when the all-parked state was first seen. */
    uint64_t allParkedSinceNs_ = 0;
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
     * Cooperative yield point (called from the instruction-count
     * heartbeats): if the current worker has other runnable work
     * queued, requeue the current task and run that work. No-op off a
     * task, or when nothing else is runnable.
     */
    static void maybeYield();

    /**
     * Two-phase park of the current task on pt.list. Registers,
     * re-checks pt.ready / abort under the Dekker fence pairing, and
     * either cancels or parks: it switches straight into the front task
     * of its home's own deque, or to the worker when that deque is
     * empty or the inbox holds work, until a waker unparks it. Spurious returns are allowed; the caller's
     * wait loop re-checks the ring. Must run on a task, with a list.
     */
    static void parkCurrent(const ParkTarget& pt, RunControl& ctl);

    /**
     * Make t runnable if parked (or cancel an in-flight park): requeue
     * it on its home worker, at the front when the caller already runs
     * there.
     */
    void unpark(Task* t);

  private:
    friend class SchedRun;
    friend class WaitList;
    friend void taskEntry(Task* t);

    struct Worker
    {
        int idx = 0;
        /**
         * Runnable tasks queued by this worker itself: wakes and
         * requeues of its own tasks, the common case, take no lock.
         */
        std::deque<Task*> local;
        std::mutex mu;
        std::condition_variable cv;
        /** Tasks queued by other threads; guarded by mu. */
        std::vector<Task*> inbox;
        /** The worker waits on cv for the inbox to fill; guarded by mu. */
        bool sleeping = false;
        /** inbox.size(), readable without mu. */
        std::atomic<int> inboxSize{0};
        /** Live tasks homed here: start()'s placement load. */
        std::atomic<int> homed{0};
        FiberCtx ctx;
        std::thread thr;
    };

    void workerLoop(Worker& w);
    /**
     * Run t from w's own stack, then settle whichever task switched
     * back (finished or yielded; a parked task settled itself).
     */
    void dispatch(Worker& w, Task* t);
    /** Mark t running on w; the caller then switches into it. */
    static void enter(Worker& w, Task* t);
    void finishTask(Task* t);
    /** Pop w's next task, or sleep until one arrives; null at shutdown. */
    Task* next(Worker& w);
    /**
     * Queue t on w: on its own deque when called from w (at the front,
     * to run next, if `front`), else at the back of its inbox, waking
     * w if it sleeps.
     */
    void submit(Worker& w, Task* t, bool front);
    /** Choose each replica's home worker and home its tasks there. */
    void place(SchedRun& r);

    void monitorLoop();
    void checkRuns(uint64_t now_ns);

    void registerRun(SchedRun* r);
    void unregisterRun(SchedRun* r);

    /** The pool worker this OS thread is, or null off the pool. */
    static thread_local Worker* tlsWorker_;
    /** The task this OS thread is currently executing, or null. */
    static thread_local Task* tlsTask_;

    std::vector<std::unique_ptr<Worker>> workers_;
    std::atomic<bool> shutdown_{false};

    /** Serializes placement so concurrent start() calls see each other. */
    std::mutex placeMu_;
    /** Round-robin tie-break cursor for placement; guarded by placeMu_. */
    size_t placeNext_ = 0;

    std::mutex runsMu_;
    std::vector<SchedRun*> runs_;
    std::thread monitor_;
    std::mutex monMu_;
    std::condition_variable monCv_;

    std::atomic<uint64_t> parks_{0};
    std::atomic<uint64_t> unparks_{0};
    std::atomic<uint64_t> yields_{0};
    std::atomic<uint64_t> tasksStarted_{0};
};

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_SCHED_H
