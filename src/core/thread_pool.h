/**
 * @file
 * Work-stealing worker thread pool for host-side batch work.
 *
 * The class backs core::BatchEngine's pool and the one process-wide
 * pool behind fanOut(), which serves the CrHCS phase fan-out, the
 * simulator's channel fan-out, the StreamPlan build and the reference
 * check's row blocks. Each worker owns a chase-lev-style deque: the
 * owner pushes and pops at the bottom (LIFO, cache-warm), idle workers
 * steal single tasks from the top of a victim's deque (FIFO, oldest
 * first). Tasks posted from outside the pool land in a shared FIFO
 * inbox that workers drain
 * before stealing from each other — with one worker this degenerates to
 * a plain FIFO queue, which is what keeps the documented `--jobs 1`
 * ordering guarantee intact. Tasks must not throw (schedulers and
 * simulators panic via chason_fatal instead); a task that escapes with
 * an exception terminates the process, which is the intended fail-fast
 * behaviour of the harness.
 *
 * Thread safety: post(), wait(), parallelFor() and parallelForDynamic()
 * may be called from any thread, including concurrently. Tasks may post
 * further tasks. parallelFor()/parallelForDynamic() may additionally be
 * called from *inside* a pool task: the calling worker pushes the
 * sub-tasks onto its own deque and help-executes pool work until its
 * join completes, so nested data parallelism cannot deadlock. Plain
 * wait() remains forbidden inside a task (a worker waiting for the
 * whole pool to drain deadlocks once every worker does it).
 */

#ifndef CHASON_CORE_THREAD_POOL_H_
#define CHASON_CORE_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace chason {
namespace core {

/** Work-stealing pool of worker threads; joins on destruction. */
class ThreadPool
{
  public:
    /**
     * @param workers worker-thread count; 0 selects defaultWorkers().
     */
    explicit ThreadPool(unsigned workers = 0);

    /** Drains outstanding tasks, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads actually running. */
    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Tasks queued but not yet picked up by a worker — a load signal
     * the tracing layer samples as the `thread_pool.queue_depth`
     * counter. Momentary by nature: the value may be stale the moment
     * it returns.
     */
    std::size_t queueDepth() const
    {
        const std::int64_t n = pending_.load(std::memory_order_relaxed);
        return n > 0 ? static_cast<std::size_t>(n) : 0;
    }

    /** Enqueue one task for execution on some worker. */
    void post(std::function<void()> task) EXCLUDES(mutex_);

    /** Block until every task posted so far has finished. */
    void wait() EXCLUDES(mutex_);

    /**
     * Run body(0) .. body(n-1) on the pool and block until all have
     * finished (only those n tasks are waited for, so parallelFor can
     * be used while unrelated tasks are in flight). With one worker
     * the calls execute in index order — a `--jobs 1` run is therefore
     * sequentially identical to the old serial tools. May be called
     * from inside a pool task: the worker help-executes pool work
     * until its n calls have completed.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * Chunked dynamic loop: run body(0) .. body(n-1) as
     * ceil(n / grainSize) pool tasks of up to grainSize consecutive
     * indices each, claimed dynamically by whichever worker is free —
     * an imbalanced chunk therefore no longer strands the others at
     * the barrier the way a static split would. Blocks until every
     * index has run. grainSize 0 is clamped to 1. The single-worker
     * index-order guarantee and the nested-call capability match
     * parallelFor.
     */
    void parallelForDynamic(
        std::size_t n, std::size_t grainSize,
        const std::function<void(std::size_t)> &body);

    /** hardware_concurrency clamped to at least 1. */
    static unsigned defaultWorkers();

  private:
    struct Task
    {
        std::function<void()> fn;
    };

    /**
     * Chase-lev-style circular work-stealing deque of Task*. The owner
     * pushes/pops at `bottom`; thieves CAS `top`. The ring grows by
     * copying live entries into a larger array; retired rings are kept
     * until pool destruction so a racing thief can still read a stale
     * cell it already claimed (the standard leak-free variant of the
     * algorithm's reclamation problem). All cross-thread accesses go
     * through std::atomic with acquire/release or seq_cst orderings —
     * no standalone fences, so the code is exact under TSAN.
     */
    class WsDeque
    {
      public:
        WsDeque();
        ~WsDeque();

        /** Owner only: push one task at the bottom. */
        void push(Task *task);

        /** Owner only: pop the most recently pushed task, or nullptr. */
        Task *pop();

        /** Any thread: steal the oldest task, or nullptr. */
        Task *steal();

      private:
        struct Ring
        {
            explicit Ring(std::size_t n);
            std::size_t mask;
            std::unique_ptr<std::atomic<Task *>[]> cells;
        };

        void grow(std::int64_t top, std::int64_t bottom);

        std::atomic<std::int64_t> top_{0};
        std::atomic<std::int64_t> bottom_{0};
        std::atomic<Ring *> ring_;
        std::vector<std::unique_ptr<Ring>> retired_; ///< owner only
    };

    /** Worker-local identity, set while its thread runs workerLoop. */
    struct WorkerSlot
    {
        WsDeque deque;
        unsigned index = 0;
    };

    void workerLoop(unsigned index) EXCLUDES(mutex_);

    /** Pop/steal one runnable task from anywhere; nullptr if none. */
    Task *findTask(unsigned self) EXCLUDES(mutex_);

    /** Execute @p task and retire the in-flight accounting. */
    void runTask(Task *task) EXCLUDES(mutex_);

    /** Enqueue, preferring the calling worker's own deque. */
    void enqueue(Task *task);

    /**
     * Shared join state of one parallelFor/parallelForDynamic call.
     * The latch counts chunks; the caller help-executes pool tasks
     * while it waits, sleeping only when no task is runnable anywhere.
     */
    struct Latch
    {
        explicit Latch(std::size_t chunks) : remaining(chunks) {}

        common::Mutex mutex;
        common::CondVar done;
        std::size_t remaining GUARDED_BY(mutex);
    };

    void runChunked(std::size_t chunks,
                    const std::function<void(std::size_t)> &chunk)
        EXCLUDES(mutex_);

    mutable common::Mutex mutex_;     ///< guards inbox_ + sleepers
    common::CondVar workReady_;       ///< new task / stopping
    common::CondVar allDone_;         ///< inFlight_ reached zero
    std::deque<Task *> inbox_ GUARDED_BY(mutex_); ///< external FIFO
    std::uint64_t epoch_ GUARDED_BY(mutex_) = 0;  ///< enqueue counter
    std::vector<std::unique_ptr<WorkerSlot>> slots_;
    std::atomic<std::int64_t> pending_{0};  ///< queued, not yet claimed
    std::atomic<std::int64_t> inFlight_{0}; ///< queued + executing
    std::atomic<bool> stopping_{false};
    std::vector<std::thread> threads_;
};

/**
 * Worker count for a fan-out: @p jobs itself when nonzero, else the
 * CHASON_JOBS environment variable, else ThreadPool::defaultWorkers().
 * 1 means run inline on the calling thread.
 */
unsigned resolveJobs(unsigned jobs);

/**
 * body(0) .. body(n-1) on the process-wide pool, at most @p jobs at a
 * time, returning when every call has finished. The calling thread
 * claims indices alongside up to jobs - 1 pool workers, so a fan-out
 * never waits for a busy pool to pick it up: at worst the caller runs
 * every index itself. With jobs <= 1, or in a forked child (which
 * inherits the pool object but none of its threads), the calls run
 * inline in index order. Callers write results into slots keyed by
 * index, so every jobs value gives bit-identical results. May be
 * called from inside a body (nested fan-out).
 *
 * The pool is created on first use, at least as wide as that request
 * and the hardware, and never destroyed: a static destructor could
 * otherwise join it during exit() while another static still fans out
 * through it.
 */
void fanOut(unsigned jobs, std::size_t n,
            const std::function<void(std::size_t)> &body);

} // namespace core
} // namespace chason

#endif // CHASON_CORE_THREAD_POOL_H_
