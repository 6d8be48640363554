/**
 * @file
 * Shared work-stealing task scheduler for the native runtime.
 *
 * Instead of one OS thread per pipeline stage per replica (which
 * oversubscribes the host as soon as pipelines are wide or phloemd
 * serves several requests at once), every stage/RA worker becomes a
 * resumable *task*: a stackful fiber (ucontext) scheduled onto a
 * fixed-size pool of OS workers, default `hardware_concurrency`, with
 * per-worker run queues and work stealing — the shape of ponyc's
 * runtime scheduler adapted to Phloem's decoupled pipelines.
 *
 * Blocking keeps the SPSC-ring semantics bit-for-bit: a task that
 * finds a ring full/empty registers on the ring's waiter list
 * (park.h), re-checks, and parks — yielding its worker to another
 * runnable task at ~0 CPU cost. The push/pop on the other side
 * unparks it onto the *unparker's* local queue, co-scheduling a
 * blocked producer's consumer on the same worker (the placement the
 * stall-attribution traces motivate: the stalled edge's two endpoints
 * share a cache).
 *
 * Deadlock detection is scheduler-aware progress epochs rather than
 * the legacy wall-time heuristic: a run is deadlocked iff *every* live
 * task is Parked (nothing runnable, nothing running) and stays so for
 * the run's timeout. A merely descheduled task is Runnable, so an
 * oversubscribed-but-live pipeline can never trip the watchdog.
 *
 * See DESIGN.md §12 for the task state machine and parking protocol.
 */

#ifndef PHLOEM_RUNTIME_SCHED_H
#define PHLOEM_RUNTIME_SCHED_H

#include <ucontext.h>

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

#include "runtime/hwcount.h"
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
 *   Parking  -> Parked             (worker completed the park)
 *   UnparkRequested -> Runnable    (worker observes the race, requeues)
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

/** One fiber: ucontext + stack + sanitizer bookkeeping (sched.cc). */
struct FiberCtx
{
    ucontext_t uctx{};
    void* stackBottom = nullptr;
    size_t stackSize = 0;
    /** ASan fake-stack handle saved across a suspension. */
    void* fakeStack = nullptr;
    /** TSan fiber handle (null when TSan is off). */
    void* tsanFiber = nullptr;
};

/** One stage/RA worker as a schedulable fiber. */
class Task
{
  public:
    Task(SchedRun* run, std::string name, bool is_stage,
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
    bool isStage_;
    std::function<void()> body_;

    std::atomic<TaskState> state_{TaskState::kRunnable};
    Exit exit_ = Exit::kNone;
    FiberCtx fc_;
    std::unique_ptr<char[]> stack_;
    /** The pool worker currently (or last) dispatching this task. */
    void* worker_ = nullptr;

    /** What the task is parked on, for the deadlock post-mortem. */
    std::atomic<const char*> parkWhat_{""};
    std::atomic<int> parkQ_{-1};
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

    /** Add a task before start(). Stage tasks define completion. */
    void addTask(std::string name, bool is_stage,
                 std::function<void()> body);

    /** Enqueue every task and register with the deadlock monitor. */
    void start();

    /** Block the caller until every stage task finished. */
    void waitStages();

    /** Block the caller until every task finished. */
    void waitAll();

    /**
     * Unpark every parked task (idempotent, callable from any
     * thread): used after ctl.stop so drained RAs exit, and by
     * RunControl::fail so an aborting run cannot strand sleepers.
     */
    void wakeAllTasks();

    uint64_t parks() const { return parks_.load(std::memory_order_relaxed); }
    uint64_t unparks() const { return unparks_.load(std::memory_order_relaxed); }
    uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }
    uint64_t yields() const { return yields_.load(std::memory_order_relaxed); }

    Scheduler& scheduler() { return *sched_; }

  private:
    friend class Scheduler;

    SchedRun(Scheduler* sched, RunControl* ctl)
        : sched_(sched), ctl_(ctl)
    {
    }

    Scheduler* sched_;
    RunControl* ctl_;
    std::vector<std::unique_ptr<Task>> tasks_;

    std::mutex mu_;
    std::condition_variable cv_;
    int stageLive_ = 0;
    int totalLive_ = 0;
    bool started_ = false;

    /** Monitor-private: when the all-parked state was first seen. */
    uint64_t allParkedSinceNs_ = 0;

    std::atomic<uint64_t> parks_{0};
    std::atomic<uint64_t> unparks_{0};
    std::atomic<uint64_t> steals_{0};
    std::atomic<uint64_t> yields_{0};
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
    /** Process-lifetime totals (phloemd's "stats" op reports these). */
    Counters counters() const;

    /** One pool worker's cumulative PMU counts (read cross-thread). */
    struct HwLaneSnapshot
    {
        std::string name;
        HwCounts counts;
    };
    /**
     * Cumulative hardware counters per pool worker, empty when the PMU
     * is unavailable. Runtime callers snapshot before/after a run and
     * diff; lanes are pool threads, so concurrent runs on the shared
     * pool overlap on the same lanes (see HwLane in stats.h).
     */
    std::vector<HwLaneSnapshot> hwSnapshot() const;

    /** New empty task group bound to one run's RunControl. */
    std::unique_ptr<SchedRun> createRun(RunControl* ctl);

    /** The task the calling thread is executing, or null. */
    static Task* current();

    /**
     * Worker count of the pool running the calling task, or 0 when
     * the caller is not on a task. Lets blocking waits skip the spin
     * phase on a single-worker pool, where the peer task that would
     * satisfy the wait shares the only worker and cannot run until
     * the spinner yields.
     */
    static int currentPoolSize();

    /**
     * Cooperative yield point (called from the instruction-count
     * heartbeats): if the current worker has other runnable work
     * queued, requeue the current task and run that work. No-op off a
     * task, or when nothing else is runnable.
     */
    static void maybeYield();

    /**
     * Two-phase park of the current task on pt.list. Registers,
     * re-checks pt.ready / abort / (stoppable && stop) under the
     * Dekker fence pairing, and either cancels or switches out until
     * a waker unparks it. Spurious returns are allowed; the caller's
     * wait loop re-checks the ring. No-op off a task or with a null
     * list.
     */
    static void parkCurrent(const ParkTarget& pt, RunControl& ctl,
                            bool stoppable);

    /** Make t runnable if parked (or cancel an in-flight park). */
    void unpark(Task* t);

  private:
    friend class SchedRun;
    friend class WaitList;
    friend void taskEntry(Task* t);

    struct Worker
    {
        Scheduler* sched = nullptr;
        int idx = 0;
        std::mutex mu;
        std::deque<Task*> q;
        std::atomic<int> size{0};
        FiberCtx ctx;
        std::thread thr;
        /** Opened by the worker thread itself at workerLoop entry. */
        HwThreadCounters hw;
        /** Set after hw.open() so hwSnapshot() never reads half-open fds. */
        std::atomic<bool> hwReady{false};
    };

    void workerLoop(Worker& w);
    void dispatch(Worker& w, Task* t);
    void finishTask(Task* t);
    Task* takeLocal(Worker& w);
    Task* takeGlobal();
    Task* trySteal(Worker& w);
    /** Queue t on w (front = run next) and nudge idle workers. */
    void submitLocal(Worker& w, Task* t, bool front);
    /** Queue t on the global injection queue (non-worker threads). */
    void submitExternal(Task* t);
    void notifyIdle();

    void monitorLoop();
    void checkRuns(uint64_t now_ns);

    void registerRun(SchedRun* r);
    void unregisterRun(SchedRun* r);

    /** The pool worker this OS thread is, or null off the pool. */
    static thread_local Worker* tlsWorker_;
    /** The task this OS thread is currently executing, or null. */
    static thread_local Task* tlsTask_;

    std::vector<std::unique_ptr<Worker>> workers_;

    std::mutex idleMu_;
    std::condition_variable idleCv_;
    std::deque<Task*> globalQ_;
    std::atomic<int> globalSize_{0};
    std::atomic<int> idleCount_{0};
    std::atomic<bool> shutdown_{false};

    std::mutex runsMu_;
    std::vector<SchedRun*> runs_;
    std::thread monitor_;
    std::mutex monMu_;
    std::condition_variable monCv_;

    std::atomic<uint64_t> parks_{0};
    std::atomic<uint64_t> unparks_{0};
    std::atomic<uint64_t> steals_{0};
    std::atomic<uint64_t> yields_{0};
    std::atomic<uint64_t> tasksStarted_{0};
};

/**
 * Null-safe wake of every parked task in a run. RunControl::fail
 * calls this through the fwd declaration in worker.h so an aborting
 * run can never strand sleepers (worker.h cannot include sched.h).
 */
void schedWakeAll(SchedRun* run);

} // namespace phloem::rt

#endif // PHLOEM_RUNTIME_SCHED_H
