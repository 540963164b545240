/**
 * @file
 * Work-stealing thread pool implementation.
 *
 * Layout of the machinery:
 *  - plain post() goes through the shared FIFO inbox under mutex_ —
 *    identical ordering to the historical single-queue pool;
 *  - parallelFor / parallelForDynamic submit their chunks to the
 *    calling worker's own deque when invoked from inside a pool task
 *    (nested data parallelism), or to the inbox otherwise;
 *  - idle workers claim work in the order: own deque (LIFO), inbox
 *    (FIFO), then stealing the oldest task of a sibling's deque;
 *  - sleeping uses an epoch counter guarded by mutex_: every enqueue
 *    bumps the epoch and notifies, a worker only blocks after a full
 *    failed probe against the epoch it read. A worker never sleeps
 *    with a non-empty own deque, which is what makes the latch sleep
 *    in the nested join safe: an unclaimed chunk always lives in an
 *    awake worker's deque or in the inbox.
 *
 * The deque is the chase-lev circular-array algorithm in its C++11
 * atomics formulation, with two deliberate deviations: orderings are
 * expressed on the atomics themselves (no standalone fences, so
 * ThreadSanitizer models the synchronization exactly), and retired
 * rings are kept until pool destruction so a thief holding a stale
 * ring pointer can still read the cell it is about to CAS-claim.
 */

#include "core/thread_pool.h"

#include <algorithm>

#include <pthread.h>

#include "common/env.h"
#include "common/logging.h"

namespace chason {
namespace core {

namespace {

/** Identity of the pool task currently running on this thread. */
thread_local ThreadPool *tls_pool = nullptr;
thread_local unsigned tls_worker = 0;

} // namespace

// --------------------------------------------------------------------
// WsDeque

ThreadPool::WsDeque::Ring::Ring(std::size_t n)
    : mask(n - 1), cells(new std::atomic<Task *>[n])
{
    for (std::size_t i = 0; i < n; ++i)
        cells[i].store(nullptr, std::memory_order_relaxed);
}

ThreadPool::WsDeque::WsDeque()
{
    auto ring = std::make_unique<Ring>(64);
    ring_.store(ring.get(), std::memory_order_release);
    retired_.push_back(std::move(ring));
}

ThreadPool::WsDeque::~WsDeque() = default;

void
ThreadPool::WsDeque::grow(std::int64_t top, std::int64_t bottom)
{
    Ring *old = ring_.load(std::memory_order_relaxed);
    auto next = std::make_unique<Ring>((old->mask + 1) * 2);
    for (std::int64_t i = top; i < bottom; ++i) {
        next->cells[static_cast<std::size_t>(i) & next->mask].store(
            old->cells[static_cast<std::size_t>(i) & old->mask].load(
                std::memory_order_relaxed),
            std::memory_order_relaxed);
    }
    ring_.store(next.get(), std::memory_order_release);
    retired_.push_back(std::move(next));
}

void
ThreadPool::WsDeque::push(Task *task)
{
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Ring *ring = ring_.load(std::memory_order_relaxed);
    if (b - t > static_cast<std::int64_t>(ring->mask)) {
        grow(t, b);
        ring = ring_.load(std::memory_order_relaxed);
    }
    ring->cells[static_cast<std::size_t>(b) & ring->mask].store(
        task, std::memory_order_relaxed);
    // The release publishes the cell store to any thief that acquires
    // the new bottom.
    bottom_.store(b + 1, std::memory_order_release);
}

ThreadPool::Task *
ThreadPool::WsDeque::pop()
{
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring *ring = ring_.load(std::memory_order_relaxed);
    // seq_cst store-then-load: the reservation of slot b must be
    // globally ordered against a concurrent thief's top/bottom reads.
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t <= b) {
        Task *task =
            ring->cells[static_cast<std::size_t>(b) & ring->mask].load(
                std::memory_order_relaxed);
        if (t == b) {
            // Last entry: race the thieves for it.
            if (!top_.compare_exchange_strong(
                    t, t + 1, std::memory_order_seq_cst,
                    std::memory_order_relaxed))
                task = nullptr;
            bottom_.store(b + 1, std::memory_order_relaxed);
        }
        return task;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
    return nullptr;
}

ThreadPool::Task *
ThreadPool::WsDeque::steal()
{
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b)
        return nullptr;
    Ring *ring = ring_.load(std::memory_order_acquire);
    Task *task =
        ring->cells[static_cast<std::size_t>(t) & ring->mask].load(
            std::memory_order_relaxed);
    // A failed CAS means the owner popped it or another thief won; a
    // miss is fine — the caller treats it as "nothing stealable here".
    if (!top_.compare_exchange_strong(t, t + 1,
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed))
        return nullptr;
    return task;
}

// --------------------------------------------------------------------
// ThreadPool

unsigned
ThreadPool::defaultWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
}

ThreadPool::ThreadPool(unsigned workers)
{
    if (workers == 0)
        workers = defaultWorkers();
    slots_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
        auto slot = std::make_unique<WorkerSlot>();
        slot->index = i;
        slots_.push_back(std::move(slot));
    }
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        common::MutexLock lock(mutex_);
        stopping_.store(true, std::memory_order_seq_cst);
        ++epoch_;
    }
    workReady_.notify_all();
    for (std::thread &t : threads_)
        t.join();
    // Workers drained everything before exiting; the lock is
    // uncontended by now but inbox_ is guarded, so take it anyway.
    common::MutexLock lock(mutex_);
    for (Task *task : inbox_)
        delete task; // unreachable in practice; keeps the dtor total
}

void
ThreadPool::post(std::function<void()> task)
{
    chason_assert(static_cast<bool>(task), "cannot post an empty task");
    // A draining pool still accepts posts from its own tasks: work a
    // task spawns is part of the "outstanding tasks" the destructor
    // promises to finish. Only external posts race the join.
    chason_assert(!stopping_.load(std::memory_order_relaxed) ||
                      tls_pool == this,
                  "cannot post to a stopping pool");
    Task *t = new Task{std::move(task)};
    inFlight_.fetch_add(1, std::memory_order_seq_cst);
    pending_.fetch_add(1, std::memory_order_seq_cst);
    {
        common::MutexLock lock(mutex_);
        inbox_.push_back(t);
        ++epoch_;
    }
    workReady_.notify_one();
}

void
ThreadPool::wait()
{
    // Explicit predicate loop (not a wait-with-lambda): the analysis
    // checks this function's body with mutex_ held, which a separately
    // analyzed predicate closure would not be.
    common::MutexLock lock(mutex_);
    while (inFlight_.load(std::memory_order_seq_cst) != 0)
        allDone_.wait(mutex_);
}

ThreadPool::Task *
ThreadPool::findTask(unsigned self)
{
    Task *task = slots_[self]->deque.pop();
    if (task == nullptr &&
        pending_.load(std::memory_order_seq_cst) > 0) {
        {
            common::MutexLock lock(mutex_);
            if (!inbox_.empty()) {
                task = inbox_.front();
                inbox_.pop_front();
            }
        }
        const unsigned n = workers();
        for (unsigned k = 1; k < n && task == nullptr; ++k)
            task = slots_[(self + k) % n]->deque.steal();
    }
    if (task != nullptr)
        pending_.fetch_sub(1, std::memory_order_seq_cst);
    return task;
}

void
ThreadPool::runTask(Task *task)
{
    task->fn();
    delete task;
    if (inFlight_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
        common::MutexLock lock(mutex_);
        allDone_.notify_all();
    }
    if (stopping_.load(std::memory_order_relaxed)) {
        // Drain mode: completions are what move pending_ towards the
        // workers' exit condition, so publish them as wakeups.
        common::MutexLock lock(mutex_);
        ++epoch_;
        workReady_.notify_all();
    }
}

void
ThreadPool::workerLoop(unsigned index)
{
    tls_pool = this;
    tls_worker = index;
    for (;;) {
        Task *task = findTask(index);
        if (task != nullptr) {
            runTask(task);
            continue;
        }
        std::uint64_t seen;
        {
            common::MutexLock lock(mutex_);
            if (stopping_.load(std::memory_order_seq_cst) &&
                pending_.load(std::memory_order_seq_cst) <= 0)
                return;
            seen = epoch_;
        }
        // Last-chance probe: a task may have been enqueued between the
        // failed probe above and reading the epoch.
        task = findTask(index);
        if (task != nullptr) {
            runTask(task);
            continue;
        }
        common::MutexLock lock(mutex_);
        while (epoch_ == seen &&
               !stopping_.load(std::memory_order_seq_cst))
            workReady_.wait(mutex_);
    }
}

void
ThreadPool::runChunked(std::size_t chunks,
                       const std::function<void(std::size_t)> &chunk)
{
    if (chunks == 0)
        return;
    auto latch = std::make_shared<Latch>(chunks);

    // `chunk` is captured by reference: runChunked blocks until every
    // chunk has run, so the referent outlives all of them.
    auto makeTask = [&latch, &chunk](std::size_t i) {
        return new Task{[latch, &chunk, i] {
            chunk(i);
            common::MutexLock lock(latch->mutex);
            if (--latch->remaining == 0)
                latch->done.notify_all();
        }};
    };

    const bool nested = tls_pool == this;
    inFlight_.fetch_add(static_cast<std::int64_t>(chunks),
                        std::memory_order_seq_cst);
    pending_.fetch_add(static_cast<std::int64_t>(chunks),
                       std::memory_order_seq_cst);
    if (nested) {
        // Push in reverse so the owner's LIFO pop runs chunks in
        // ascending index order (thieves take the highest index
        // first, which is immaterial to the result).
        WsDeque &own = slots_[tls_worker]->deque;
        for (std::size_t i = chunks; i-- > 0;)
            own.push(makeTask(i));
    } else {
        common::MutexLock lock(mutex_);
        for (std::size_t i = 0; i < chunks; ++i)
            inbox_.push_back(makeTask(i));
    }
    {
        common::MutexLock lock(mutex_);
        ++epoch_;
    }
    if (chunks > 1)
        workReady_.notify_all();
    else
        workReady_.notify_one();

    if (!nested) {
        common::MutexLock lock(latch->mutex);
        while (latch->remaining != 0)
            latch->done.wait(latch->mutex);
        return;
    }

    // Nested join: help-execute pool work (own chunks first, then
    // anything stealable) until the latch drops. Sleeping here is
    // safe: this worker's deque is empty by then, so every remaining
    // chunk is already executing on some other worker.
    const unsigned self = tls_worker;
    for (;;) {
        {
            common::MutexLock lock(latch->mutex);
            if (latch->remaining == 0)
                return;
        }
        Task *task = findTask(self);
        if (task != nullptr) {
            runTask(task);
            continue;
        }
        common::MutexLock lock(latch->mutex);
        while (latch->remaining != 0)
            latch->done.wait(latch->mutex);
        return;
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    runChunked(n, body);
}

void
ThreadPool::parallelForDynamic(
    std::size_t n, std::size_t grainSize,
    const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    const std::size_t grain = grainSize == 0 ? 1 : grainSize;
    const std::size_t chunks = (n + grain - 1) / grain;
    runChunked(chunks, [n, grain, &body](std::size_t c) {
        const std::size_t begin = c * grain;
        const std::size_t end = std::min(n, begin + grain);
        for (std::size_t i = begin; i < end; ++i)
            body(i);
    });
}

// --------------------------------------------------------------------
// The process-wide pool and fanOut

namespace {

/** Set in a forked child: the process pool's workers are gone. */
std::atomic<bool> forkedChild{false};

void
onForkChild()
{
    forkedChild.store(true, std::memory_order_relaxed);
}

ThreadPool &
processPool(unsigned requested)
{
    static ThreadPool *const pool = [requested] {
        ::pthread_atfork(nullptr, nullptr, &onForkChild);
        return new ThreadPool(
            std::max(requested, ThreadPool::defaultWorkers()));
    }();
    return *pool;
}

/**
 * Shared state of one fanOut call. Helpers hold it by shared_ptr, so a
 * helper that starts after the call has returned still finds live
 * state — and no index left to claim, which is the only path that
 * dereferences body.
 */
struct FanOut
{
    FanOut(std::size_t count,
           const std::function<void(std::size_t)> &fn)
        : n(count), body(&fn)
    {
    }

    /** Claim and run indices until none are left. */
    void
    drain()
    {
        std::size_t ran = 0;
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
            (*body)(i);
            ++ran;
        }
        if (ran == 0)
            return;
        common::MutexLock lock(mutex);
        finished += ran;
        if (finished == n)
            done.notify_all();
    }

    const std::size_t n;
    const std::function<void(std::size_t)> *const body;
    std::atomic<std::size_t> next{0};
    common::Mutex mutex;
    common::CondVar done;
    std::size_t finished GUARDED_BY(mutex) = 0;
};

} // namespace

unsigned
resolveJobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
    const std::uint64_t env = common::envUint("CHASON_JOBS", 0);
    return env > 0 ? static_cast<unsigned>(env)
                   : ThreadPool::defaultWorkers();
}

void
fanOut(unsigned jobs, std::size_t n,
       const std::function<void(std::size_t)> &body)
{
    if (jobs <= 1 || n <= 1 ||
        forkedChild.load(std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    ThreadPool &pool = processPool(jobs);
    auto state = std::make_shared<FanOut>(n, body);
    const std::size_t helpers = std::min<std::size_t>(jobs, n) - 1;
    for (std::size_t h = 0; h < helpers; ++h)
        pool.post([state] { state->drain(); });
    state->drain();
    common::MutexLock lock(state->mutex);
    while (state->finished != n)
        state->done.wait(state->mutex);
}

} // namespace core
} // namespace chason
