/**
 * @file
 * Task scheduler implementation. See sched.h for the model and
 * DESIGN.md §12 for the protocol write-up.
 *
 * A task is a stackless body that a worker calls on its own thread, so
 * the pool is plain threads: the sanitizers see every handoff as an
 * ordinary call, lock or atomic on one of them.
 */

#include "runtime/sched.h"

#include <chrono>
#include <cstdint>
#include <cstdlib>

#include "base/logging.h"
#include "base/thread_name.h"
#include "runtime/worker.h"

namespace phloem::rt {

namespace {

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

} // namespace

thread_local Scheduler::Worker* Scheduler::tlsWorker_ = nullptr;

// ------------------------------------------------------------ WaitList

void
WaitList::wakeAll()
{
    // One waiter per lock round, so no snapshot buffer is allocated on
    // this per-handoff path. Run until the list is empty, so every
    // waiter registered on entry is woken even if others join
    // meanwhile (those are merely woken early and re-check).
    while (!empty()) {
        Task* t = takeOne();
        if (t == nullptr)
            return;
        t->run_->scheduler().unpark(t);
    }
}

// ------------------------------------------------------------ SchedRun

SchedRun::SchedRun(Scheduler* sched, RunControl* ctl)
    : sched_(sched), ctl_(ctl),
      ranOn_(new std::atomic<bool>[sched->workers_.size()]())
{
}

SchedRun::~SchedRun()
{
    if (started_) {
        sched_->unregisterRun(this);
        // Defensive: a run must not be torn down under live tasks.
        waitAll();
        sched_->parks_.fetch_add(parks(), std::memory_order_relaxed);
        sched_->unparks_.fetch_add(unparks(), std::memory_order_relaxed);
        sched_->yields_.fetch_add(yields(), std::memory_order_relaxed);
    }
}

void
SchedRun::addTask(TaskBody* body)
{
    tasks_.push_back(std::make_unique<Task>(this, body));
    ++totalLive_;
}

void
SchedRun::start()
{
    started_ = true;
    sched_->registerRun(this);
    sched_->place(*this);
    sched_->tasksStarted_.fetch_add(tasks_.size(), std::memory_order_relaxed);
    for (auto& t : tasks_)
        sched_->submit(*static_cast<Scheduler::Worker*>(t->home_), t.get(),
                       /*front=*/false);
}

uint64_t
SchedRun::sumOverTasks(uint64_t Task::*count) const
{
    uint64_t n = 0;
    for (const auto& t : tasks_)
        n += (*t).*count;
    return n;
}

int
SchedRun::workersUsed() const
{
    int n = 0;
    for (size_t i = 0; i < sched_->workers_.size(); ++i)
        n += ranOn_[i].load(std::memory_order_relaxed) ? 1 : 0;
    return n;
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
    // Notifier side of the park handshake for abort: orders the
    // caller's abortFlag store before unpark()'s state loads. Its
    // partner is the fence in Scheduler::park: either a parking task's
    // re-check sees the flag, or we see the task kParking/kParked and
    // wake it.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (auto& t : tasks_)
        sched_->unpark(t.get());
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
        w->idx = i;
        workers_.push_back(std::move(w));
    }
    for (auto& w : workers_)
        w->thr = std::thread([this, wp = w.get()] { workerLoop(*wp); });
    monitor_ = std::thread([this] { monitorLoop(); });
}

Scheduler::~Scheduler()
{
    for (auto& w : workers_) {
        {
            std::lock_guard<std::mutex> g(w->mu);
            shutdown_.store(true, std::memory_order_release);
        }
        w->cv.notify_one();
    }
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
    c.yields = yields_.load(std::memory_order_relaxed);
    c.tasksStarted = tasksStarted_.load(std::memory_order_relaxed);
    return c;
}

std::unique_ptr<SchedRun>
Scheduler::createRun(RunControl* ctl)
{
    return std::unique_ptr<SchedRun>(new SchedRun(this, ctl));
}

bool
Scheduler::shouldYield()
{
    const Worker* w = tlsWorker_;
    return w != nullptr &&
           (!w->local.empty() ||
            w->inboxSize.load(std::memory_order_relaxed) > 0);
}

bool
Scheduler::park(Task* t)
{
    phloem_assert(!t->waits_.empty(), "a parking task needs a wait");
    t->state_.store(TaskState::kParking, std::memory_order_release);
    for (const ParkTarget& pt : t->waits_)
        pt.list->add(t);
    // Dekker handshake with the notifiers (park.h): the fence orders
    // our registrations before the re-checks, so either we observe a
    // notifier's push/pop/arrival here, or it observes us on its list
    // and wakes us. It also pairs with the fence in
    // SchedRun::wakeAllTasks, the abort notifier.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    bool ready = t->run_->ctl_->aborted();
    for (const ParkTarget& pt : t->waits_)
        ready = ready || pt.ready(pt);
    if (!ready) {
        ++t->parks_;
        TaskState expect = TaskState::kParking;
        if (t->state_.compare_exchange_strong(expect, TaskState::kParked,
                                              std::memory_order_acq_rel)) {
            // Parked. A waker may requeue t at once, but only this
            // thread, t's home, runs it, after this dispatch returns.
            t->parked_ = true;
            return true;
        }
        // A waker got in first (kUnparkRequested): a target may already
        // be ready, so run on as if woken.
        ++t->unparks_;
    }
    leaveWaitLists(t);
    t->state_.store(TaskState::kRunning, std::memory_order_release);
    return false;
}

void
Scheduler::leaveWaitLists(Task* t)
{
    // A waker takes only its own list's entry, and a cancelled park or
    // an abort wake takes none, so drop every stale entry before the
    // body lists new waits. A list whose count is 0 cannot hold t: the
    // waker that took t off published the new count before unparking.
    for (const ParkTarget& pt : t->waits_)
        if (!pt.list->empty())
            pt.list->remove(t);
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
                return;
            }
            continue;
        }
        if (s == TaskState::kParked) {
            TaskState expect = TaskState::kParked;
            if (!t->state_.compare_exchange_weak(expect, TaskState::kRunnable,
                                                 std::memory_order_acq_rel))
                continue;
            // A waker on the home worker is usually the other end of
            // the ring it just touched: run the woken task next, while
            // the ring's lines are still in this core's cache.
            submit(*static_cast<Worker*>(t->home_), t, /*front=*/true);
            return;
        }
        // Runnable / Running / UnparkRequested / Done: nothing to do.
        return;
    }
}

void
Scheduler::place(SchedRun& r)
{
    r.homes_.assign(r.tasks_.size(), 0);
    // Under the lock, a run's choice counts the tasks of every run
    // placed before it, so concurrent runs and the replicas of one run
    // spread over the pool.
    std::lock_guard<std::mutex> g(placeMu_);
    const size_t n = workers_.size();
    for (size_t k = 0; k < r.tasks_.size(); ++k) {
        size_t best = placeNext_ % n;
        for (size_t j = 1; j < n; ++j) {
            size_t i = (placeNext_ + j) % n;
            if (workers_[i]->homed.load(std::memory_order_relaxed) <
                workers_[best]->homed.load(std::memory_order_relaxed))
                best = i;
        }
        workers_[best]->homed.fetch_add(1, std::memory_order_relaxed);
        r.homes_[k] = static_cast<int>(best);
        r.tasks_[k]->home_ = workers_[best].get();
        placeNext_ = best + 1;
    }
}

void
Scheduler::submit(Worker& w, Task* t, bool front)
{
    if (tlsWorker_ == &w) {
        if (front)
            w.local.push_front(t);
        else
            w.local.push_back(t);
        return;
    }
    bool wake = false;
    {
        std::lock_guard<std::mutex> g(w.mu);
        w.inbox.push_back(t);
        w.inboxSize.store(static_cast<int>(w.inbox.size()),
                          std::memory_order_relaxed);
        wake = w.sleeping;
    }
    if (wake)
        w.cv.notify_one();
}

Task*
Scheduler::next(Worker& w)
{
    // The inbox count is read without the lock: a task queued just now
    // is picked up on a later call, and the lock is always taken
    // before the worker sleeps.
    if (w.local.empty() || w.inboxSize.load(std::memory_order_relaxed) > 0) {
        std::unique_lock<std::mutex> lk(w.mu);
        for (;;) {
            for (Task* t : w.inbox)
                w.local.push_back(t);
            w.inbox.clear();
            w.inboxSize.store(0, std::memory_order_relaxed);
            if (!w.local.empty())
                break;
            if (shutdown_.load(std::memory_order_acquire))
                return nullptr;
            w.sleeping = true;
            w.cv.wait(lk);
            w.sleeping = false;
        }
    }
    Task* t = w.local.front();
    w.local.pop_front();
    return t;
}

void
Scheduler::workerLoop(Worker& w)
{
    tlsWorker_ = &w;
    setCurrentThreadName("phl-sched/" + std::to_string(w.idx));
    while (Task* t = next(w))
        dispatch(w, t);
}

void
Scheduler::dispatch(Worker& w, Task* t)
{
    std::atomic<bool>& ran = t->run_->ranOn_[w.idx];
    if (!ran.load(std::memory_order_relaxed))
        ran.store(true, std::memory_order_relaxed);
    if (t->parked_) {
        // Only a wake makes a parked task runnable again.
        ++t->unparks_;
        t->parked_ = false;
        leaveWaitLists(t);
    }
    t->state_.store(TaskState::kRunning, std::memory_order_release);
    for (;;) {
        switch (t->body_->resume(t->waits_)) {
        case TaskStep::kDone:
            finishTask(t);
            return;
        case TaskStep::kYield:
            ++t->yields_;
            t->state_.store(TaskState::kRunnable, std::memory_order_release);
            submit(w, t, /*front=*/false);
            return;
        case TaskStep::kPark:
            if (park(t))
                return;
            break;  // cancelled: a wait already ended, so run on
        }
    }
}

void
Scheduler::finishTask(Task* t)
{
    t->state_.store(TaskState::kDone, std::memory_order_release);
    static_cast<Worker*>(t->home_)->homed.fetch_sub(
        1, std::memory_order_relaxed);
    SchedRun* r = t->run_;
    // Notify while holding the mutex: a waiter cannot re-check the
    // counts (and destroy r, cv included) until the lock drops, so the
    // notify never touches a dead condvar.
    std::lock_guard<std::mutex> g(r->mu_);
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
        int total_live = 0;
        {
            std::lock_guard<std::mutex> g2(r->mu_);
            total_live = r->totalLive_;
        }
        // Finished: the caller is about to unregister the run.
        if (total_live == 0) {
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
        for (const auto& t : r->tasks_)
            if (t->state_.load(std::memory_order_acquire) ==
                TaskState::kParked)
                t->body_->describeWaits(msg);
        // fail() wakes every parked task (SchedRun::wakeAllTasks) so the
        // run unwinds and the caller's post-mortem path takes over.
        r->ctl_->fail(msg);
        r->allParkedSinceNs_ = 0;
    }
}

} // namespace phloem::rt
