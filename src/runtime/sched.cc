/**
 * @file
 * Fiber scheduler implementation. See sched.h for the model and
 * DESIGN.md §12 for the protocol write-up.
 *
 * Fibers run on heap stacks. On x86-64 they switch with a hand-written
 * stack switch (below); elsewhere with swapcontext. Under ASan and TSan
 * every switch is annotated with the sanitizer fiber API so the CI
 * sanitizer jobs see through it: ASan needs the fake-stack
 * save/restore pair around every switch, TSan needs one fiber handle
 * per task (and per pool thread) and a switch notification
 * immediately before each switch. Without these, ASan reports bogus
 * stack-use-after-return and TSan loses the happens-before edges that
 * the scheduler's queue handoffs establish.
 */

#include "runtime/sched.h"

#include <pthread.h>
#include <ucontext.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "base/logging.h"
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

void taskEntry(Task* t);

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

#if defined(__x86_64__)

/*
 * The x86-64 stack switch. swapcontext also saves and restores the
 * signal mask, an rt_sigprocmask syscall on every call; a park costs
 * two. This switch pushes only what the SysV ABI makes callee-saved —
 * rbx, rbp, r12-r15, the MXCSR and the x87 control word — onto the
 * outgoing stack, stores that stack pointer in *from_sp, loads to_sp
 * and pops the incoming fiber's state. Fibers therefore run with the
 * pool thread's signal mask. The FP control words stay per fiber, as
 * they were under swapcontext. The switch keeps no CET shadow stack.
 *
 * A fiber's first entry "returns" into phloem_fiber_start with the
 * entry function in r13 and its argument in r12 (see SavedFrame).
 */
extern "C" void phloem_fiber_switch(void** from_sp, void* to_sp);
extern "C" void phloem_fiber_start();

asm(R"(
    .text
    .globl  phloem_fiber_switch
    .hidden phloem_fiber_switch
    .type   phloem_fiber_switch, @function
    .p2align 4
phloem_fiber_switch:
    pushq   %rbp
    pushq   %rbx
    pushq   %r12
    pushq   %r13
    pushq   %r14
    pushq   %r15
    subq    $16, %rsp
    stmxcsr 8(%rsp)
    fnstcw  (%rsp)
    movq    %rsp, (%rdi)
    movq    %rsi, %rsp
    fldcw   (%rsp)
    ldmxcsr 8(%rsp)
    addq    $16, %rsp
    popq    %r15
    popq    %r14
    popq    %r13
    popq    %r12
    popq    %rbx
    popq    %rbp
    ret
    .size   phloem_fiber_switch, .-phloem_fiber_switch

    .globl  phloem_fiber_start
    .hidden phloem_fiber_start
    .type   phloem_fiber_start, @function
    .p2align 4
phloem_fiber_start:
    .cfi_startproc
    .cfi_undefined rip
    movq    %r12, %rdi
    callq   *%r13
    ud2
    .cfi_endproc
    .size   phloem_fiber_start, .-phloem_fiber_start
)");

/**
 * What phloem_fiber_switch leaves at a suspended fiber's saved stack
 * pointer, in pop order. A new fiber's stack starts with one: its FP
 * control words are the creating thread's, as getcontext would have
 * captured them; r12/r13 carry the entry argument and function;
 * rbp = 0 ends frame-pointer walks; and `ret` enters
 * phloem_fiber_start with the stack 16-byte aligned for its call.
 */
struct SavedFrame
{
    uint64_t fpuCw, mxcsr, r15, r14, r13, r12, rbx, rbp, ret;
    /** Alignment slot, then a null return address above the entry. */
    uint64_t pad[2];
};
static_assert(sizeof(SavedFrame) % 16 == 8,
              "the entry's call must see a 16-byte-aligned stack");

void
initFiber(FiberCtx& fc, char* stack, size_t size, Task* t)
{
    auto top = reinterpret_cast<uintptr_t>(stack + size) & ~uintptr_t{15};
    auto* f = reinterpret_cast<SavedFrame*>(top - sizeof(SavedFrame));
    *f = SavedFrame{};
    uint16_t fpu_cw = 0;
    uint32_t mxcsr = 0;
    asm volatile("fnstcw %0" : "=m"(fpu_cw));
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    f->fpuCw = fpu_cw;
    f->mxcsr = mxcsr;
    f->r13 = reinterpret_cast<uint64_t>(&taskEntry);
    f->r12 = reinterpret_cast<uint64_t>(t);
    f->ret = reinterpret_cast<uint64_t>(&phloem_fiber_start);
    fc.sp = f;
}

#else

/**
 * Portable switch: swapcontext, with the suspended side's ucontext_t
 * on its own stack so that FiberCtx::sp means the same thing as on
 * x86-64.
 */
void
phloem_fiber_switch(void** from_sp, void* to_sp)
{
    ucontext_t self;
    *from_sp = &self;
    swapcontext(&self, static_cast<ucontext_t*>(to_sp));
}

/** makecontext trampoline: reassemble the Task* from two uints. */
void
taskTrampoline(unsigned hi, unsigned lo)
{
    taskEntry(reinterpret_cast<Task*>((static_cast<uintptr_t>(hi) << 32) |
                                      static_cast<uintptr_t>(lo)));
}

/** The entry context sits at the top of the fiber's own stack. */
void
initFiber(FiberCtx& fc, char* stack, size_t size, Task* t)
{
    auto top = (reinterpret_cast<uintptr_t>(stack + size) -
                sizeof(ucontext_t)) &
               ~uintptr_t{15};
    auto* uc = new (reinterpret_cast<void*>(top)) ucontext_t;
    getcontext(uc);
    uc->uc_stack.ss_sp = stack;
    uc->uc_stack.ss_size = top - reinterpret_cast<uintptr_t>(stack);
    uc->uc_link = nullptr;
    auto p = reinterpret_cast<uintptr_t>(t);
    makecontext(uc, reinterpret_cast<void (*)()>(&taskTrampoline), 2,
                static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xffffffffull));
    fc.sp = uc;
}

#endif

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
    phloem_fiber_switch(&from.sp, to.sp);
#if defined(PHLOEM_ASAN)
    __sanitizer_finish_switch_fiber(from.fakeStack, nullptr, nullptr);
#endif
}

/**
 * Final switch out of a finished task back to its worker: the null
 * fake-stack save tells ASan this fiber is dying so its fake frames
 * can be released. Never returns.
 */
[[noreturn]] void
switchFiberFinal(FiberCtx& from, FiberCtx& to)
{
#if defined(PHLOEM_ASAN)
    __sanitizer_start_switch_fiber(nullptr, to.stackBottom, to.stackSize);
#endif
#if defined(PHLOEM_TSAN)
    __tsan_switch_to_fiber(to.tsanFiber, 0);
#endif
    phloem_fiber_switch(&from.sp, to.sp);
    __builtin_unreachable();
}

} // namespace

thread_local Scheduler::Worker* Scheduler::tlsWorker_ = nullptr;
thread_local Task* Scheduler::tlsTask_ = nullptr;

/** First activation of a task fiber lands here. */
void
taskEntry(Task* t)
{
#if defined(PHLOEM_ASAN)
    // First entry into this fiber: no fake stack was saved for it yet.
    __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
    t->body_();
    t->exit_ = Task::Exit::kDone;
    auto* w = static_cast<Scheduler::Worker*>(t->home_);
    switchFiberFinal(t->fc_, w->ctx);
}

// ---------------------------------------------------------------- Task

Task::Task(SchedRun* run, std::string name, int replica,
           std::function<void()> body)
    : run_(run), name_(std::move(name)), replica_(replica),
      body_(std::move(body)),
      stack_(new char[kTaskStackSize])
{
    fc_.stackBottom = stack_.get();
    fc_.stackSize = kTaskStackSize;
    initFiber(fc_, stack_.get(), kTaskStackSize, this);
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
SchedRun::addTask(std::string name, int replica, std::function<void()> body)
{
    phloem_assert(replica >= 0, "negative replica index ", replica);
    tasks_.push_back(std::make_unique<Task>(this, std::move(name), replica,
                                            std::move(body)));
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
    // partner is the fence in Scheduler::parkCurrent: either a parking
    // task's re-check sees the flag, or we see the task kParking/kParked
    // and wake it.
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

void
Scheduler::maybeYield()
{
    Task* t = tlsTask_;
    if (t == nullptr)
        return;
    auto* w = static_cast<Worker*>(t->home_);
    if (w->local.empty() && w->inboxSize.load(std::memory_order_relaxed) == 0)
        return;
    t->exit_ = Task::Exit::kYield;
    switchFiber(t->fc_, w->ctx);
}

void
Scheduler::parkCurrent(const ParkTarget& pt, RunControl& ctl)
{
    Task* t = tlsTask_;
    phloem_assert(t != nullptr && pt.list != nullptr,
                  "parkCurrent needs a pool task and a waiter list");
    t->parkWhat_.store(pt.what, std::memory_order_relaxed);
    t->parkQ_.store(pt.q, std::memory_order_relaxed);
    t->state_.store(TaskState::kParking, std::memory_order_release);
    pt.list->add(t);
    // Dekker handshake with the notifier (park.h): the fence orders
    // our registration before the re-check, so either we observe the
    // notifier's push/pop here, or the notifier observes us on the
    // list and wakes us. It also pairs with the fence in
    // SchedRun::wakeAllTasks, the abort notifier.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    bool ready = pt.ready(pt) || ctl.aborted();
    if (!ready) {
        // Complete the park here: every resumption of this task runs
        // on its home's thread, so none can start before we switch out.
        ++t->parks_;
        TaskState expect = TaskState::kParking;
        if (t->state_.compare_exchange_strong(expect, TaskState::kParked,
                                              std::memory_order_acq_rel)) {
            t->exit_ = Task::Exit::kPark;
            auto* w = static_cast<Worker*>(t->home_);
            if (w->local.empty() ||
                w->inboxSize.load(std::memory_order_relaxed) > 0) {
                // Nothing queued here, or other threads queued work:
                // the worker drains its inbox or sleeps.
                switchFiber(t->fc_, w->ctx);
            } else {
                // Straight to the next runnable task: usually the
                // other end of the ring, just woken to the front.
                Task* n = w->local.front();
                w->local.pop_front();
                enter(*w, n);
                switchFiber(t->fc_, n->fc_);
            }
            // Resumed: whoever switched in counted the unpark.
        } else {
            // A waker got in first (kUnparkRequested): the wake-up
            // condition may already hold, so run on as if woken.
            ++t->unparks_;
        }
    }
    // Deregister ourselves: a cancelled park, and a direct unpark
    // (abort) that flips our state without touching the waiter list,
    // leave us on it, and a stale entry must not survive into the next
    // park. An empty list cannot hold us: the waker that took us off
    // published the new count before unparking us.
    if (!pt.list->empty())
        pt.list->remove(t);
    t->state_.store(TaskState::kRunning, std::memory_order_release);
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
    std::vector<int> tasks_per_replica;
    for (const auto& t : r.tasks_) {
        const auto rep = static_cast<size_t>(t->replica_);
        if (rep >= tasks_per_replica.size())
            tasks_per_replica.resize(rep + 1, 0);
        ++tasks_per_replica[rep];
    }
    r.homes_.assign(tasks_per_replica.size(), 0);
    {
        // Under the lock, a run's choice counts the tasks of every run
        // placed before it, so concurrent runs and the replicas of one
        // run spread over the pool.
        std::lock_guard<std::mutex> g(placeMu_);
        const size_t n = workers_.size();
        for (size_t rep = 0; rep < tasks_per_replica.size(); ++rep) {
            size_t best = placeNext_ % n;
            for (size_t k = 1; k < n; ++k) {
                size_t i = (placeNext_ + k) % n;
                if (workers_[i]->homed.load(std::memory_order_relaxed) <
                    workers_[best]->homed.load(std::memory_order_relaxed))
                    best = i;
            }
            workers_[best]->homed.fetch_add(tasks_per_replica[rep],
                                            std::memory_order_relaxed);
            r.homes_[rep] = static_cast<int>(best);
            placeNext_ = best + 1;
        }
    }
    for (auto& t : r.tasks_) {
        const int home = r.homes_[static_cast<size_t>(t->replica_)];
        t->home_ = workers_[static_cast<size_t>(home)].get();
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
    while (Task* t = next(w))
        dispatch(w, t);
}

void
Scheduler::enter(Worker& w, Task* t)
{
    std::atomic<bool>& ran = t->run_->ranOn_[w.idx];
    if (!ran.load(std::memory_order_relaxed))
        ran.store(true, std::memory_order_relaxed);
    // Only a wake makes a parked task runnable again.
    if (t->exit_ == Task::Exit::kPark)
        ++t->unparks_;
    t->exit_ = Task::Exit::kNone;
    t->state_.store(TaskState::kRunning, std::memory_order_release);
    tlsTask_ = t;
}

void
Scheduler::dispatch(Worker& w, Task* t)
{
    enter(w, t);
    switchFiber(w.ctx, t->fc_);
    // Parking tasks switch among themselves, so the task that switched
    // back to the worker need not be t.
    Task* back = tlsTask_;
    tlsTask_ = nullptr;
    switch (back->exit_) {
    case Task::Exit::kDone:
        finishTask(back);
        break;
    case Task::Exit::kYield:
        ++back->yields_;
        back->state_.store(TaskState::kRunnable, std::memory_order_release);
        submit(w, back, /*front=*/false);
        break;
    case Task::Exit::kPark:  // parkCurrent completed the park
    case Task::Exit::kNone:
        break;
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
        // fail() wakes every parked task (SchedRun::wakeAllTasks) so the
        // run unwinds and the caller's post-mortem path takes over.
        r->ctl_->fail(msg);
        r->allParkedSinceNs_ = 0;
    }
}

} // namespace phloem::rt
