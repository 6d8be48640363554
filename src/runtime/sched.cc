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

#include <algorithm>
#include <cstdint>
#include <cstdlib>

#include "base/logging.h"
#include "base/thread_name.h"
#include "runtime/worker.h"

namespace phloem::rt {

namespace {

/** Pool-size ceiling: a fat-finger guard, not a real limit. */
constexpr int kMaxWorkers = 256;

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

SchedRun::~SchedRun()
{
    if (started_) {
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
    for (auto it = homes_.begin(); it != homes_.end(); ++it)
        n += std::find(homes_.begin(), it, *it) == it ? 1 : 0;
    return n;
}

std::string
SchedRun::deadlockReport(int live) const
{
    std::string msg = "deadlock: all " + std::to_string(live) +
                      " live tasks parked with nothing runnable";
    for (const auto& t : tasks_)
        if (t->parked_)
            t->body_->describeWaits(msg);
    return msg;
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
    // Each unpark takes mu_ after the caller's abortFlag store: a task
    // parked by then is woken, and one that parks later finds its wake
    // request and runs on into the abort.
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
    for (auto& w : workers_)
        w->thr.join();
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
    return w != nullptr && w->queued.load(std::memory_order_relaxed) > 0;
}

bool
Scheduler::park(Task* t)
{
    phloem_assert(!t->waits_.empty(), "a parking task needs a wait");
    for (const ParkTarget& pt : t->waits_)
        pt.list->add(t);
    // Dekker handshake with the notifiers (park.h): the fence orders
    // our registrations before the re-checks, so either we observe a
    // notifier's push/pop/arrival here, or it observes us on its list
    // and wakes us.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    bool ready = false;
    for (const ParkTarget& pt : t->waits_)
        ready = ready || pt.ready(pt);
    SchedRun* r = t->run_;
    std::string deadlock;
    if (!ready) {
        std::lock_guard<std::mutex> g(r->mu_);
        // A wake that found t not yet parked, perhaps one that came
        // after the re-check, cancels the park: run on as if woken.
        ready = t->wakeRequested_;
        t->wakeRequested_ = false;
        if (!ready) {
            t->parked_ = true;
            if (++r->totalParked_ == r->totalLive_)
                deadlock = r->deadlockReport(r->totalLive_);
        }
    }
    if (ready) {
        leaveWaitLists(t);
        return false;
    }
    // Parked. A waker may requeue t at once, but only this thread, t's
    // home, runs it, after this dispatch returns.
    ++t->parks_;
    t->resumesFromPark_ = true;
    // Every live task is parked, so no task can wake another: fail the
    // run, which wakes them all, t too. t is still live, so the run
    // outlives the call.
    if (!deadlock.empty())
        r->ctl_->fail(deadlock);
    return true;
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
    {
        std::lock_guard<std::mutex> g(t->run_->mu_);
        if (!t->parked_) {
            // Running, queued or done: cancel its next park instead.
            t->wakeRequested_ = true;
            return;
        }
        t->parked_ = false;
        --t->run_->totalParked_;
    }
    // A waker on the home worker is usually the other end of the ring
    // it just touched: run the woken task next, while the ring's lines
    // are still in this core's cache.
    Worker& home = *static_cast<Worker*>(t->home_);
    submit(home, t, /*front=*/tlsWorker_ == &home);
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
    bool wake = false;
    {
        std::lock_guard<std::mutex> g(w.mu);
        if (front)
            w.queue.push_front(t);
        else
            w.queue.push_back(t);
        w.queued.store(static_cast<int>(w.queue.size()),
                       std::memory_order_relaxed);
        wake = w.sleeping;
    }
    if (wake)
        w.cv.notify_one();
}

Task*
Scheduler::next(Worker& w)
{
    std::unique_lock<std::mutex> lk(w.mu);
    while (w.queue.empty()) {
        if (shutdown_.load(std::memory_order_acquire))
            return nullptr;
        w.sleeping = true;
        w.cv.wait(lk);
        w.sleeping = false;
    }
    Task* t = w.queue.front();
    w.queue.pop_front();
    w.queued.store(static_cast<int>(w.queue.size()),
                   std::memory_order_relaxed);
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
    if (t->resumesFromPark_) {
        // Only a wake makes a parked task runnable again.
        ++t->unparks_;
        t->resumesFromPark_ = false;
        leaveWaitLists(t);
    }
    for (;;) {
        switch (t->body_->resume(t->waits_)) {
        case TaskStep::kDone:
            finishTask(t);
            return;
        case TaskStep::kYield:
            ++t->yields_;
            submit(w, t, /*front=*/false);
            return;
        case TaskStep::kPark:
            if (park(t))
                return;
            break;  // cancelled: a wait ended or a wake came, so run on
        }
    }
}

void
Scheduler::finishTask(Task* t)
{
    static_cast<Worker*>(t->home_)->homed.fetch_sub(
        1, std::memory_order_relaxed);
    SchedRun* r = t->run_;
    // Check and drop in one hold: a task that parked between them would
    // leave every live task parked, unseen.
    std::unique_lock<std::mutex> lk(r->mu_);
    const int others = r->totalLive_ - 1;
    if (others > 0 && r->totalParked_ == others) {
        // t leaves only parked tasks behind. Fail the run while t still
        // keeps it alive; fail() wakes every task, under mu_.
        std::string msg = r->deadlockReport(others);
        lk.unlock();
        r->ctl_->fail(msg);
        lk.lock();
    }
    // Notify while holding the mutex: a waiter cannot re-check the
    // count (and destroy r, cv included) until the lock drops, so the
    // notify never touches a dead condvar.
    --r->totalLive_;
    r->cv_.notify_all();
}

} // namespace phloem::rt
