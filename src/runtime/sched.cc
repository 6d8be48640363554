/**
 * @file
 * Work-stealing fiber scheduler implementation. See sched.h for the
 * model and DESIGN.md §12 for the protocol write-up.
 *
 * Fibers are ucontext-based with heap stacks. Under ASan and TSan the
 * context switches are annotated with the sanitizer fiber API so the
 * CI sanitizer jobs see through them: ASan needs the fake-stack
 * save/restore pair around every swapcontext, TSan needs one fiber
 * handle per task (and per pool thread) and a switch notification
 * immediately before each swap. Without these, ASan reports bogus
 * stack-use-after-return and TSan loses the happens-before edges that
 * the scheduler's queue handoffs establish.
 */

#include "runtime/sched.h"

#include <pthread.h>

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "base/thread_name.h"
#include "runtime/worker.h"

#if defined(__SANITIZE_ADDRESS__)
#define PHLOEM_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define PHLOEM_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) && !defined(PHLOEM_ASAN)
#define PHLOEM_ASAN 1
#endif
#if __has_feature(thread_sanitizer) && !defined(PHLOEM_TSAN)
#define PHLOEM_TSAN 1
#endif
#endif

#if defined(PHLOEM_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(PHLOEM_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace phloem::rt {

namespace {

/**
 * Fiber stacks are heap allocations; sanitizers map shadow for them
 * lazily but burn more of each frame, so give them headroom there.
 */
#if defined(PHLOEM_ASAN) || defined(PHLOEM_TSAN)
constexpr size_t kTaskStackSize = 1024 * 1024;
#else
constexpr size_t kTaskStackSize = 256 * 1024;
#endif

/** Pool-size ceiling: a fat-finger guard, not a real limit. */
constexpr int kMaxWorkers = 256;

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::atomic<Scheduler*> g_sharedSched{nullptr};

/**
 * Switch from fiber `from` to fiber `to` and eventually return when
 * something switches back into `from`. Either side may be a pool
 * thread's native context.
 */
void
switchFiber(FiberCtx& from, FiberCtx& to)
{
#if defined(PHLOEM_ASAN)
    __sanitizer_start_switch_fiber(&from.fakeStack, to.stackBottom,
                                   to.stackSize);
#endif
#if defined(PHLOEM_TSAN)
    __tsan_switch_to_fiber(to.tsanFiber, 0);
#endif
    swapcontext(&from.uctx, &to.uctx);
#if defined(PHLOEM_ASAN)
    __sanitizer_finish_switch_fiber(from.fakeStack, nullptr, nullptr);
#endif
}

/**
 * Final switch out of a finished task back to its worker: the null
 * fake-stack save tells ASan this fiber is dying so its fake frames
 * can be released. Never returns.
 */
void
switchFiberFinal(FiberCtx& from, FiberCtx& to)
{
#if defined(PHLOEM_ASAN)
    __sanitizer_start_switch_fiber(nullptr, to.stackBottom, to.stackSize);
#endif
#if defined(PHLOEM_TSAN)
    __tsan_switch_to_fiber(to.tsanFiber, 0);
#endif
    swapcontext(&from.uctx, &to.uctx);
    __builtin_unreachable();
}

} // namespace

thread_local Scheduler::Worker* Scheduler::tlsWorker_ = nullptr;
thread_local Task* Scheduler::tlsTask_ = nullptr;

void taskEntry(Task* t);

namespace {

/** makecontext trampoline: reassemble the Task* from two uints. */
void
taskTrampoline(unsigned hi, unsigned lo)
{
    auto* t = reinterpret_cast<Task*>((static_cast<uintptr_t>(hi) << 32) |
                                      static_cast<uintptr_t>(lo));
    taskEntry(t);
}

} // namespace

/** First (and every) activation of a task fiber lands here. */
void
taskEntry(Task* t)
{
#if defined(PHLOEM_ASAN)
    // First entry into this fiber: no fake stack was saved for it yet.
    __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
    t->body_();
    t->exit_ = Task::Exit::kDone;
    auto* w = static_cast<Scheduler::Worker*>(t->worker_);
    switchFiberFinal(t->fc_, w->ctx);
}

// ---------------------------------------------------------------- Task

Task::Task(SchedRun* run, std::string name, bool is_stage,
           std::function<void()> body)
    : run_(run), name_(std::move(name)), isStage_(is_stage),
      body_(std::move(body)), stack_(new char[kTaskStackSize])
{
    fc_.stackBottom = stack_.get();
    fc_.stackSize = kTaskStackSize;
    getcontext(&fc_.uctx);
    fc_.uctx.uc_stack.ss_sp = stack_.get();
    fc_.uctx.uc_stack.ss_size = kTaskStackSize;
    fc_.uctx.uc_link = nullptr;
    auto p = reinterpret_cast<uintptr_t>(this);
    makecontext(&fc_.uctx, reinterpret_cast<void (*)()>(&taskTrampoline), 2,
                static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xffffffffull));
#if defined(PHLOEM_TSAN)
    fc_.tsanFiber = __tsan_create_fiber(0);
#endif
}

Task::~Task()
{
#if defined(PHLOEM_TSAN)
    if (fc_.tsanFiber != nullptr)
        __tsan_destroy_fiber(fc_.tsanFiber);
#endif
}

// ------------------------------------------------------------ WaitList

void
WaitList::wakeAll()
{
    std::vector<Task*> woke;
    takeAll(woke);
    // Route through the task's run (immutable) rather than its last
    // worker (racy while another waker concurrently redispatches it).
    for (Task* t : woke)
        t->run_->scheduler().unpark(t);
}

// ------------------------------------------------------------ SchedRun

SchedRun::~SchedRun()
{
    if (started_) {
        sched_->unregisterRun(this);
        // Defensive: a run must not be torn down under live tasks.
        waitAll();
    }
}

void
SchedRun::addTask(std::string name, bool is_stage, std::function<void()> body)
{
    tasks_.push_back(std::make_unique<Task>(this, std::move(name), is_stage,
                                            std::move(body)));
    if (is_stage)
        ++stageLive_;
    ++totalLive_;
}

void
SchedRun::start()
{
    started_ = true;
    sched_->registerRun(this);
    size_t i = 0;
    for (auto& t : tasks_) {
        sched_->tasksStarted_.fetch_add(1, std::memory_order_relaxed);
        // Seed round-robin across the pool; stealing rebalances.
        auto& w = *sched_->workers_[i++ % sched_->workers_.size()];
        sched_->submitLocal(w, t.get(), /*front=*/false);
    }
}

void
SchedRun::waitStages()
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return stageLive_ == 0; });
}

void
SchedRun::waitAll()
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return totalLive_ == 0; });
}

void
SchedRun::wakeAllTasks()
{
    for (auto& t : tasks_)
        sched_->unpark(t.get());
}

void
schedWakeAll(SchedRun* run)
{
    if (run != nullptr)
        run->wakeAllTasks();
}

// ----------------------------------------------------------- Scheduler

Scheduler::Scheduler() : Scheduler(Options()) {}

Scheduler::Scheduler(const Options& opts)
{
    int n = opts.workers;
    if (n <= 0)
        n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0)
        n = 1;
    if (n > kMaxWorkers)
        n = kMaxWorkers;
    workers_.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto w = std::make_unique<Worker>();
        w->sched = this;
        w->idx = i;
        workers_.push_back(std::move(w));
    }
    // Spawn only once workers_ is fully built: peers scan it to steal.
    for (auto& w : workers_)
        w->thr = std::thread([this, wp = w.get()] { workerLoop(*wp); });
    monitor_ = std::thread([this] { monitorLoop(); });
}

Scheduler::~Scheduler()
{
    {
        std::lock_guard<std::mutex> g(idleMu_);
        shutdown_.store(true, std::memory_order_release);
    }
    idleCv_.notify_all();
    {
        std::lock_guard<std::mutex> g(monMu_);
    }
    monCv_.notify_all();
    for (auto& w : workers_)
        w->thr.join();
    if (monitor_.joinable())
        monitor_.join();
    Scheduler* self = this;
    g_sharedSched.compare_exchange_strong(self, nullptr);
}

Scheduler&
Scheduler::shared()
{
    static Scheduler s([] {
        Options o;
        if (const char* env = std::getenv("PHLOEM_SCHED_WORKERS"))
            o.workers = std::atoi(env);
        return o;
    }());
    g_sharedSched.store(&s, std::memory_order_release);
    return s;
}

Scheduler*
Scheduler::sharedIfCreated()
{
    return g_sharedSched.load(std::memory_order_acquire);
}

Scheduler::Counters
Scheduler::counters() const
{
    Counters c;
    c.parks = parks_.load(std::memory_order_relaxed);
    c.unparks = unparks_.load(std::memory_order_relaxed);
    c.steals = steals_.load(std::memory_order_relaxed);
    c.yields = yields_.load(std::memory_order_relaxed);
    c.tasksStarted = tasksStarted_.load(std::memory_order_relaxed);
    return c;
}

std::vector<Scheduler::HwLaneSnapshot>
Scheduler::hwSnapshot() const
{
    std::vector<HwLaneSnapshot> out;
    for (const auto& w : workers_) {
        if (!w->hwReady.load(std::memory_order_acquire))
            continue;
        HwLaneSnapshot s;
        s.name = "pool/" + std::to_string(w->idx);
        s.counts = w->hw.read();
        if (s.counts.valid)
            out.push_back(std::move(s));
    }
    return out;
}

std::unique_ptr<SchedRun>
Scheduler::createRun(RunControl* ctl)
{
    return std::unique_ptr<SchedRun>(new SchedRun(this, ctl));
}

Task*
Scheduler::current()
{
    return tlsTask_;
}

int
Scheduler::currentPoolSize()
{
    Task* t = tlsTask_;
    if (t == nullptr)
        return 0;
    return static_cast<Worker*>(t->worker_)->sched->poolSize();
}

void
Scheduler::maybeYield()
{
    Task* t = tlsTask_;
    if (t == nullptr)
        return;
    auto* w = static_cast<Worker*>(t->worker_);
    if (w->size.load(std::memory_order_relaxed) == 0 &&
        w->sched->globalSize_.load(std::memory_order_relaxed) == 0)
        return;
    t->exit_ = Task::Exit::kYield;
    switchFiber(t->fc_, w->ctx);
}

void
Scheduler::parkCurrent(const ParkTarget& pt, RunControl& ctl, bool stoppable)
{
    Task* t = tlsTask_;
    if (t == nullptr || pt.list == nullptr)
        return;
    t->parkWhat_.store(pt.what, std::memory_order_relaxed);
    t->parkQ_.store(pt.q, std::memory_order_relaxed);
    t->state_.store(TaskState::kParking, std::memory_order_release);
    pt.list->add(t);
    // Dekker handshake with the notifier (park.h): the fence orders
    // our registration before the re-check, so either we observe the
    // notifier's push/pop here, or the notifier observes us on the
    // list and wakes us.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    bool ready = pt.ready(pt) || ctl.aborted() ||
                 (stoppable && ctl.stop.load(std::memory_order_acquire));
    if (ready) {
        pt.list->remove(t);
        TaskState expect = TaskState::kParking;
        if (!t->state_.compare_exchange_strong(expect, TaskState::kRunning,
                                               std::memory_order_acq_rel)) {
            // A waker got in first (kUnparkRequested): absorb it.
            t->state_.store(TaskState::kRunning, std::memory_order_release);
        }
        t->parkWhat_.store("", std::memory_order_relaxed);
        t->parkQ_.store(-1, std::memory_order_relaxed);
        return;
    }
    t->exit_ = Task::Exit::kPark;
    auto* w = static_cast<Worker*>(t->worker_);
    switchFiber(t->fc_, w->ctx);
    // Resumed by a later dispatch. Deregister ourselves: direct
    // unparks (run wakeAll, abort) flip our state without touching
    // the waiter list, and a stale entry must not survive into the
    // next park.
    pt.list->remove(t);
    t->parkWhat_.store("", std::memory_order_relaxed);
    t->parkQ_.store(-1, std::memory_order_relaxed);
}

void
Scheduler::unpark(Task* t)
{
    for (;;) {
        TaskState s = t->state_.load(std::memory_order_acquire);
        if (s == TaskState::kParking) {
            TaskState expect = TaskState::kParking;
            if (t->state_.compare_exchange_weak(expect,
                                                TaskState::kUnparkRequested,
                                                std::memory_order_acq_rel)) {
                // The parking worker sees the request and requeues.
                unparks_.fetch_add(1, std::memory_order_relaxed);
                t->run_->unparks_.fetch_add(1, std::memory_order_relaxed);
                return;
            }
            continue;
        }
        if (s == TaskState::kParked) {
            TaskState expect = TaskState::kParked;
            if (!t->state_.compare_exchange_weak(expect, TaskState::kRunnable,
                                                 std::memory_order_acq_rel))
                continue;
            unparks_.fetch_add(1, std::memory_order_relaxed);
            SchedRun* r = t->run_;
            r->unparks_.fetch_add(1, std::memory_order_relaxed);
            Worker* w = tlsWorker_;
            if (w != nullptr && w->sched == this) {
                // Co-scheduling placement: the task we just made
                // runnable is usually the other end of the ring we
                // touched — run it next on this worker so the stalled
                // edge's endpoints share a cache.
                submitLocal(*w, t, /*front=*/true);
            } else {
                submitExternal(t);
            }
            return;
        }
        // Runnable / Running / UnparkRequested / Done: nothing to do.
        return;
    }
}

void
Scheduler::submitLocal(Worker& w, Task* t, bool front)
{
    {
        std::lock_guard<std::mutex> g(w.mu);
        if (front)
            w.q.push_front(t);
        else
            w.q.push_back(t);
        w.size.store(static_cast<int>(w.q.size()), std::memory_order_seq_cst);
    }
    notifyIdle();
}

void
Scheduler::submitExternal(Task* t)
{
    {
        std::lock_guard<std::mutex> g(idleMu_);
        globalQ_.push_back(t);
        globalSize_.store(static_cast<int>(globalQ_.size()),
                          std::memory_order_seq_cst);
    }
    idleCv_.notify_all();
}

void
Scheduler::notifyIdle()
{
    // Dekker pairing with the pre-sleep re-check in workerLoop: our
    // queue-size store (seq_cst) is ordered before this idle-count
    // load, the sleeper's idle-count increment before its queue
    // re-check. One of the two must see the other.
    if (idleCount_.load(std::memory_order_seq_cst) == 0)
        return;
    std::lock_guard<std::mutex> g(idleMu_);
    idleCv_.notify_all();
}

Task*
Scheduler::takeLocal(Worker& w)
{
    std::lock_guard<std::mutex> g(w.mu);
    if (w.q.empty())
        return nullptr;
    Task* t = w.q.front();
    w.q.pop_front();
    w.size.store(static_cast<int>(w.q.size()), std::memory_order_seq_cst);
    return t;
}

Task*
Scheduler::takeGlobal()
{
    std::lock_guard<std::mutex> g(idleMu_);
    if (globalQ_.empty())
        return nullptr;
    Task* t = globalQ_.front();
    globalQ_.pop_front();
    globalSize_.store(static_cast<int>(globalQ_.size()),
                      std::memory_order_seq_cst);
    return t;
}

Task*
Scheduler::trySteal(Worker& w)
{
    const int n = static_cast<int>(workers_.size());
    for (int k = 1; k < n; ++k) {
        Worker& v = *workers_[static_cast<size_t>((w.idx + k) % n)];
        std::lock_guard<std::mutex> g(v.mu);
        if (v.q.empty())
            continue;
        // Steal from the back: the front is the victim's hot path
        // (unparks co-schedule there).
        Task* t = v.q.back();
        v.q.pop_back();
        v.size.store(static_cast<int>(v.q.size()), std::memory_order_seq_cst);
        steals_.fetch_add(1, std::memory_order_relaxed);
        t->run_->steals_.fetch_add(1, std::memory_order_relaxed);
        return t;
    }
    return nullptr;
}

void
Scheduler::workerLoop(Worker& w)
{
    tlsWorker_ = &w;
    setCurrentThreadName("phl-sched/" + std::to_string(w.idx));
    // Counters must attach to the counted thread, so the worker opens
    // its own; readers gate on hwReady to avoid half-open fd sets.
    if (w.hw.open())
        w.hwReady.store(true, std::memory_order_release);
#if defined(PHLOEM_TSAN)
    w.ctx.tsanFiber = __tsan_get_current_fiber();
#endif
    // ASan needs the pool thread's own stack bounds to switch back to.
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) == 0) {
        void* addr = nullptr;
        size_t size = 0;
        pthread_attr_getstack(&attr, &addr, &size);
        w.ctx.stackBottom = addr;
        w.ctx.stackSize = size;
        pthread_attr_destroy(&attr);
    }
    for (;;) {
        Task* t = takeLocal(w);
        if (t == nullptr)
            t = takeGlobal();
        if (t == nullptr)
            t = trySteal(w);
        if (t != nullptr) {
            dispatch(w, t);
            continue;
        }
        std::unique_lock<std::mutex> lk(idleMu_);
        if (shutdown_.load(std::memory_order_acquire))
            return;
        idleCount_.fetch_add(1, std::memory_order_seq_cst);
        // Re-check after announcing idleness (the notifier's Dekker
        // counterpart): a submit that missed our idle count must be
        // visible to this scan, or its notify must reach our wait.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        bool work = globalSize_.load(std::memory_order_seq_cst) > 0 ||
                    w.size.load(std::memory_order_seq_cst) > 0;
        if (!work) {
            for (const auto& p : workers_) {
                if (p->size.load(std::memory_order_seq_cst) > 0) {
                    work = true;
                    break;
                }
            }
        }
        if (!work)
            idleCv_.wait_for(lk, std::chrono::milliseconds(50));
        idleCount_.fetch_sub(1, std::memory_order_seq_cst);
    }
}

void
Scheduler::dispatch(Worker& w, Task* t)
{
    t->worker_ = &w;
    t->exit_ = Task::Exit::kNone;
    t->state_.store(TaskState::kRunning, std::memory_order_release);
    tlsTask_ = t;
    switchFiber(w.ctx, t->fc_);
    tlsTask_ = nullptr;
    switch (t->exit_) {
    case Task::Exit::kDone:
        finishTask(t);
        break;
    case Task::Exit::kYield:
        yields_.fetch_add(1, std::memory_order_relaxed);
        t->run_->yields_.fetch_add(1, std::memory_order_relaxed);
        t->state_.store(TaskState::kRunnable, std::memory_order_release);
        submitLocal(w, t, /*front=*/false);
        break;
    case Task::Exit::kPark: {
        // Count first: after the state CAS below publishes kParked,
        // a waker may resume the task on another worker and the run
        // may complete at any moment.
        parks_.fetch_add(1, std::memory_order_relaxed);
        t->run_->parks_.fetch_add(1, std::memory_order_relaxed);
        TaskState expect = TaskState::kParking;
        if (!t->state_.compare_exchange_strong(expect, TaskState::kParked,
                                               std::memory_order_acq_rel)) {
            // A waker raced the park (kUnparkRequested): the wake-up
            // condition may already hold, so requeue immediately.
            t->state_.store(TaskState::kRunnable, std::memory_order_release);
            submitLocal(w, t, /*front=*/true);
        }
        break;
    }
    case Task::Exit::kNone:
        break;
    }
}

void
Scheduler::finishTask(Task* t)
{
    t->state_.store(TaskState::kDone, std::memory_order_release);
    SchedRun* r = t->run_;
    // Notify while holding the mutex: a waiter cannot re-check the
    // counts (and destroy r, cv included) until the lock drops, so the
    // notify never touches a dead condvar.
    std::lock_guard<std::mutex> g(r->mu_);
    if (t->isStage_)
        --r->stageLive_;
    --r->totalLive_;
    r->cv_.notify_all();
}

void
Scheduler::registerRun(SchedRun* r)
{
    std::lock_guard<std::mutex> g(runsMu_);
    runs_.push_back(r);
}

void
Scheduler::unregisterRun(SchedRun* r)
{
    std::lock_guard<std::mutex> g(runsMu_);
    for (size_t i = 0; i < runs_.size(); ++i) {
        if (runs_[i] == r) {
            runs_[i] = runs_.back();
            runs_.pop_back();
            break;
        }
    }
}

void
Scheduler::monitorLoop()
{
    setCurrentThreadName("phl-sched-mon");
    std::unique_lock<std::mutex> lk(monMu_);
    while (!shutdown_.load(std::memory_order_acquire)) {
        monCv_.wait_for(lk, std::chrono::milliseconds(10));
        if (shutdown_.load(std::memory_order_acquire))
            return;
        lk.unlock();
        checkRuns(nowNs());
        lk.lock();
    }
}

void
Scheduler::checkRuns(uint64_t now_ns)
{
    std::lock_guard<std::mutex> g(runsMu_);
    for (SchedRun* r : runs_) {
        int stage_live = 0;
        int total_live = 0;
        {
            std::lock_guard<std::mutex> g2(r->mu_);
            stage_live = r->stageLive_;
            total_live = r->totalLive_;
        }
        // Completion phase: every stage halted, the caller is about
        // to set stop and wake the drained RAs. Parked RAs are normal.
        if (stage_live == 0 || total_live == 0) {
            r->allParkedSinceNs_ = 0;
            continue;
        }
        // Deadlocked iff *every* live task is Parked: nothing is
        // running, nothing is runnable, so no unpark can ever come
        // from inside the run. A merely descheduled (oversubscribed)
        // task is kRunnable and keeps the run alive.
        bool all_parked = true;
        for (const auto& t : r->tasks_) {
            TaskState s = t->state_.load(std::memory_order_acquire);
            if (s != TaskState::kDone && s != TaskState::kParked) {
                all_parked = false;
                break;
            }
        }
        if (!all_parked) {
            r->allParkedSinceNs_ = 0;
            continue;
        }
        if (r->allParkedSinceNs_ == 0) {
            r->allParkedSinceNs_ = now_ns;
            continue;
        }
        const uint64_t timeout_ns =
            static_cast<uint64_t>(r->ctl_->opt.deadlockTimeoutMs) * 1000000ull;
        if (now_ns - r->allParkedSinceNs_ < timeout_ns)
            continue;
        std::string msg = "deadlock: all " + std::to_string(total_live) +
                          " live tasks parked with nothing runnable for " +
                          std::to_string(r->ctl_->opt.deadlockTimeoutMs) +
                          " ms";
        for (const auto& t : r->tasks_) {
            if (t->state_.load(std::memory_order_acquire) !=
                TaskState::kParked)
                continue;
            msg += "\n  " + t->name() + " parked on " +
                   t->parkWhat_.load(std::memory_order_relaxed);
            int q = t->parkQ_.load(std::memory_order_relaxed);
            if (q >= 0)
                msg += " q" + std::to_string(q);
        }
        // fail() wakes every parked task (schedWakeAll) so the run
        // unwinds and the caller's post-mortem path takes over.
        r->ctl_->fail(msg);
        r->allParkedSinceNs_ = 0;
    }
}

} // namespace phloem::rt
