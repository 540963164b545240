/**
 * @file
 * Concurrent LRU cache of offline schedules.
 *
 * CrHCS scheduling is host-side preprocessing and by far the dominant
 * offline cost (see bench_preprocessing_cost): iterative applications
 * (PageRank, CG, GNN layers) reuse one schedule across thousands of
 * runs, sweeps revisit the same matrix under several consumers, and
 * services multiplexing several matrices want to keep the hot ones
 * resident. ScheduleCache keys schedules by a structural+value
 * fingerprint of the matrix *combined with the scheduler's identity
 * and configuration*, holds them behind shared ownership, and evicts
 * least-recently-used entries once a byte budget is exceeded.
 *
 * A resident entry also keeps what is derived from its schedule: the
 * ScheduleStats (computed once, when the entry is filled) and, lazily,
 * an arch::StreamPlan. The plan is built the *second* time the entry is
 * simulated (planForRun), exactly once under a per-entry once-flag, so
 * a schedule that is simulated once — a sweep — never pays for one.
 * Plan bytes count against the budget, and a plan that would not fit
 * the budget beside its schedule is never built.
 *
 * Callers that hold a matrix across many lookups (the serving daemon)
 * wrap it in a MatrixHandle: the fingerprint is computed once when the
 * handle is built, so a warm lookup does no per-non-zero work.
 *
 * Thread safety: every member function may be called concurrently
 * from any number of threads. Concurrent misses on the *same* key are
 * coalesced — exactly one thread schedules, the others block on the
 * result and are counted as hits (the work was amortized). Returned
 * schedules are immutable and shared: eviction never invalidates a
 * shared_ptr a caller still holds.
 */

#ifndef CHASON_CORE_SCHEDULE_CACHE_H_
#define CHASON_CORE_SCHEDULE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "arch/stream_soa.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "sched/crhcs.h"

namespace chason {
namespace core {

/**
 * 128-bit matrix fingerprint: two 64-bit projections of one
 * four-lane multiply-rotate hash over the matrix words (see
 * fingerprint()).
 */
struct MatrixFingerprint
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    friend bool operator==(const MatrixFingerprint &,
                           const MatrixFingerprint &) = default;
};

/**
 * Fingerprint a CSR matrix: dimensions, structure and values.
 *
 * Word-parallel: the rowPtr words, then one (col << 32 | value bits)
 * word per non-zero, are absorbed round-robin into four independent
 * xxHash64-style lanes (multiply, rotate, multiply). Each round is a
 * bijection of its input word, so any changed word changes its lane,
 * and the rotate carries high input bits into the low state bits; the
 * lanes pipeline instead of chaining one multiply per input byte. The
 * two halves are different merges of the lanes with the shape (rows,
 * cols, nnz), each finished by a full avalanche. Key bytes are part of the
 * CHSA artifact header (docs/ARTIFACT_FORMAT.md): changing this
 * function orphans every stored artifact, which tests pin on purpose.
 */
MatrixFingerprint fingerprint(const sparse::CsrMatrix &a);

/**
 * A shared, immutable matrix together with its fingerprint, computed
 * once when the handle is built. Copying a handle copies a pointer;
 * lookups through it never rehash the matrix. Converting from a
 * `const CsrMatrix &` copies the matrix, from a `CsrMatrix &&` moves
 * it — both fingerprint it once.
 */
class MatrixHandle
{
  public:
    /** An empty handle (no matrix). */
    MatrixHandle() = default;

    /** Share @p matrix (non-null) and fingerprint it. */
    explicit MatrixHandle(std::shared_ptr<const sparse::CsrMatrix> matrix);

    MatrixHandle(const sparse::CsrMatrix &matrix);
    MatrixHandle(sparse::CsrMatrix &&matrix);

    const sparse::CsrMatrix &operator*() const { return *matrix_; }
    const sparse::CsrMatrix *operator->() const { return matrix_.get(); }
    const sparse::CsrMatrix *get() const { return matrix_.get(); }
    explicit operator bool() const { return matrix_ != nullptr; }

    const MatrixFingerprint &fingerprint() const { return fingerprint_; }

  private:
    std::shared_ptr<const sparse::CsrMatrix> matrix_;
    MatrixFingerprint fingerprint_;
};

/**
 * Cache key: which matrix, scheduled by which algorithm under which
 * geometry. Two engines with identical scheduler configurations share
 * entries; changing any SchedConfig field (or the algorithm) misses.
 */
struct ScheduleKey
{
    MatrixFingerprint matrix;
    std::uint64_t scheduler = 0; ///< hash of algorithm name + config

    friend bool operator==(const ScheduleKey &,
                           const ScheduleKey &) = default;
};

/** Key for @p scheduler applied to a matrix with fingerprint @p fp. */
ScheduleKey scheduleKey(const sched::Scheduler &scheduler,
                        const MatrixFingerprint &fp);

/** Key for @p scheduler applied to @p a (fingerprints @p a). */
inline ScheduleKey
scheduleKey(const sched::Scheduler &scheduler, const sparse::CsrMatrix &a)
{
    return scheduleKey(scheduler, fingerprint(a));
}

/**
 * One cache entry's payload: the schedule and what is derived from it.
 * Immutable once published, except for the lazily attached plan,
 * which ScheduleCache::planForRun builds at most once. Callers may
 * keep the shared_ptr after the entry is evicted.
 */
class CachedSchedule
{
  public:
    CachedSchedule(ScheduleKey key,
                   std::shared_ptr<const sched::Schedule> schedule);

    const std::shared_ptr<const sched::Schedule> &schedule() const
    {
        return schedule_;
    }

    /** sched::analyze of the schedule, computed at construction. */
    const sched::ScheduleStats &stats() const { return stats_; }

  private:
    friend class ScheduleCache;

    const ScheduleKey key_;
    const std::shared_ptr<const sched::Schedule> schedule_;
    const sched::ScheduleStats stats_;
    /** Simulations that asked for a plan (planForRun calls). */
    std::atomic<std::uint64_t> simulations_{0};
    std::once_flag planOnce_;
    /** Written at most once, inside planOnce_; read only after it. */
    std::unique_ptr<const arch::StreamPlan> plan_;
};

/** Counter snapshot; taken atomically with respect to cache updates. */
struct ScheduleCacheStats
{
    std::uint64_t hits = 0;      ///< resident or in-flight on lookup
    std::uint64_t misses = 0;    ///< lookups that had to leave memory
    std::uint64_t evictions = 0; ///< entries dropped for the budget
    std::uint64_t diskHits = 0;  ///< memory misses served by an artifact
    std::uint64_t diskMisses = 0; ///< disk probes that had to reschedule
    std::uint64_t persisted = 0; ///< artifacts written behind a miss
    std::uint64_t corrupt = 0;   ///< artifacts rejected at admission
    std::uint64_t plansBuilt = 0; ///< StreamPlans built (lifetime)
    std::size_t entries = 0;     ///< resident schedules
    std::size_t bytes = 0;       ///< resident bytes, plans included
    std::size_t planBytes = 0;   ///< of which resident plan bytes
    std::size_t budgetBytes = 0; ///< configured byte budget

    /** hits / (hits + misses); 0 when the cache is untouched. */
    double hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(total);
    }

    /** diskHits / (diskHits + diskMisses); 0 when the disk tier was
     *  never probed. */
    double diskHitRate() const
    {
        const std::uint64_t probes = diskHits + diskMisses;
        return probes == 0
            ? 0.0
            : static_cast<double>(diskHits) / static_cast<double>(probes);
    }
};

/** Concurrent LRU schedule cache with a byte budget. */
class ScheduleCache
{
  public:
    /** Default budget: 512 MiB of resident schedules. */
    static constexpr std::size_t kDefaultBudgetBytes =
        std::size_t{512} << 20;

    /**
     * @param budget_bytes resident-byte budget (>= 1). The most
     *        recently inserted entry is always admitted, even when it
     *        alone exceeds the budget — a cache that cannot hold the
     *        working entry would silently degrade to rescheduling.
     */
    explicit ScheduleCache(std::size_t budget_bytes = kDefaultBudgetBytes);

    /**
     * Attach a disk tier rooted at @p dir (created if missing): memory
     * misses first probe `dir/chsa-<key>.chsa` through the CHSA
     * admission checks (sched::ArtifactReader) and zero-copy load on a
     * hit; fresh schedules are persisted write-behind, after waiters
     * have been unblocked. An artifact that fails admission is
     * rejected, counted in stats().corrupt, transparently replaced by
     * rescheduling, and overwritten by the persist that follows. An
     * empty @p dir detaches the tier. Not synchronized against
     * concurrent get() — configure before handing the cache to
     * workers, as BatchEngine does.
     */
    void setArtifactDir(const std::string &dir);

    /** The disk-tier root; empty when the tier is detached. */
    const std::string &artifactDir() const { return artifactDir_; }

    /**
     * The entry for @p scheduler applied to @p a, whose fingerprint
     * the caller already holds (@p fp == fingerprint(a), e.g. a
     * MatrixHandle's stored one): resident if the key matches, freshly
     * scheduled (and cached) otherwise. Blocks only when another
     * thread is already scheduling the same key.
     */
    std::shared_ptr<CachedSchedule>
    lookup(const sched::Scheduler &scheduler, const sparse::CsrMatrix &a,
           const MatrixFingerprint &fp) EXCLUDES(mutex_);

    /**
     * The entries for @p crhcs and for its PE-aware baseline
     * (sched::CrhcsScheduler::baseline()) applied to @p a, whose
     * fingerprint is @p fp — the pair core::compare simulates. When
     * neither key is in memory, both in-flight entries are reserved
     * under one lock (concurrent lookups of either key coalesce on
     * them), each counts one miss, and each probes the disk tier; if
     * both miss there too, one scheduleWithBaseline() build fills both
     * (each phase is placed once), otherwise each kind is loaded or
     * scheduled on its own. Fresh schedules persist write-behind, as
     * lookup() does. If either key is resident or in flight, this is
     * lookup() of each kind in turn.
     */
    std::pair<std::shared_ptr<CachedSchedule>,
              std::shared_ptr<CachedSchedule>>
    lookupPair(const sched::CrhcsScheduler &crhcs,
               const sparse::CsrMatrix &a, const MatrixFingerprint &fp)
        EXCLUDES(mutex_);

    /**
     * The schedule @p scheduler produces for @p a; fingerprints @p a
     * and goes through the same lookup.
     */
    std::shared_ptr<const sched::Schedule>
    get(const sched::Scheduler &scheduler, const sparse::CsrMatrix &a)
        EXCLUDES(mutex_)
    {
        return lookup(scheduler, a, fingerprint(a))->schedule();
    }

    /** Convenience overload: @p engine's scheduler fills misses. */
    std::shared_ptr<const sched::Schedule>
    get(const Engine &engine, const sparse::CsrMatrix &a) EXCLUDES(mutex_)
    {
        return get(engine.scheduler(), a);
    }

    /**
     * Record one simulation of @p entry and return the plan it should
     * replay, or null to run unplanned. The first simulation runs
     * unplanned; the second builds the plan for @p migration_depth
     * (exactly once, concurrent callers block until it is built), and
     * every later one replays it. A request for a different depth than
     * the plan was built with gets null. While the entry is resident
     * the plan's bytes count against the budget; an entry whose
     * schedule and plan together exceed the whole budget gets no plan.
     */
    const arch::StreamPlan *planForRun(CachedSchedule &entry,
                                       unsigned migration_depth)
        EXCLUDES(mutex_);

    /** Atomic snapshot of all counters. */
    ScheduleCacheStats stats() const EXCLUDES(mutex_);

    /**
     * Drop every resident memory-tier entry (counters are kept). The
     * disk tier is untouched: a subsequent get() of a dropped key is a
     * memory miss that the artifact store serves as a disk hit.
     */
    void clear() EXCLUDES(mutex_);

    /**
     * Byte-accounting consistency check for tests: residentBytes_
     * equals the sum of ready entry bytes (plans included), planBytes_
     * the sum of their plan shares, the LRU list and the entry map
     * agree. Debug builds additionally run this (fatally) after
     * every mutation.
     */
    bool debugCheckConsistency() const EXCLUDES(mutex_);

  private:
    struct KeyHash
    {
        std::size_t operator()(const ScheduleKey &key) const
        {
            // The fingerprint words are already well mixed.
            return static_cast<std::size_t>(
                key.matrix.lo ^ (key.matrix.hi >> 1) ^ key.scheduler);
        }
    };

    using SchedulePtr = std::shared_ptr<const sched::Schedule>;
    using EntryPtr = std::shared_ptr<CachedSchedule>;

    struct Entry
    {
        /** Set once by the filling thread; waited on by the others. */
        std::shared_future<EntryPtr> future;
        /** The published payload; null while scheduling is in flight. */
        CachedSchedule *value = nullptr;
        std::size_t bytes = 0;     ///< 0 while in flight; plan included
        std::size_t planBytes = 0; ///< the attached plan's share
        bool ready = false;
        std::list<ScheduleKey>::iterator lruIt;
    };

    /**
     * A miss this thread reserved: its in-flight entry, which only this
     * thread fills, and what the fill found on the way.
     */
    struct Fill
    {
        ScheduleKey key;
        std::promise<EntryPtr> promise;
        std::string path;     ///< artifact path; empty = no disk tier
        SchedulePtr schedule; ///< loaded from disk or freshly built
        bool diskHit = false;
        bool diskRejected = false;
    };

    /** Count a miss and insert @p fill's in-flight entry (its key must
     *  be absent). Lock held. */
    void reserveLocked(Fill &fill) REQUIRES(mutex_);

    /** Trace the miss, then load @p fill's schedule from the disk tier
     *  if an intact artifact is stored there. */
    void probe(Fill &fill) EXCLUDES(mutex_);

    /** Make @p fill's schedule resident and unblock its waiters. */
    EntryPtr publish(Fill &fill) EXCLUDES(mutex_);

    /** Write-behind: store a freshly built schedule as an artifact. */
    void persist(const Fill &fill) EXCLUDES(mutex_);

    /** Evict ready LRU entries until the budget holds. Lock held. */
    void enforceBudgetLocked() REQUIRES(mutex_);

    /** Fatal consistency check after mutations; no-op in NDEBUG. */
    void debugCheckConsistencyLocked() const REQUIRES(mutex_);

    /**
     * Disk-tier probe for @p key: admission-check and zero-copy-load
     * the stored artifact if one exists. Returns null on a clean miss
     * (no file) or a rejection; @p rejected distinguishes the two.
     * Runs without the cache lock — disk latency must not serialize
     * unrelated lookups.
     */
    SchedulePtr loadFromDisk(const ScheduleKey &key,
                             const std::string &path,
                             bool &rejected) const EXCLUDES(mutex_);

    // enforceBudgetLocked() bumps TraceSink counters with mutex_ held,
    // which fixes the lock order: ScheduleCache::mutex_ before
    // TraceSink::mutex_ (docs/STATIC_ANALYSIS.md has the full table).
    mutable common::Mutex mutex_;
    std::size_t budgetBytes_ GUARDED_BY(mutex_);
    std::size_t residentBytes_ GUARDED_BY(mutex_) = 0;
    std::size_t planBytes_ GUARDED_BY(mutex_) = 0;
    /** Memory tier, front = most recently used. */
    std::list<ScheduleKey> lru_ GUARDED_BY(mutex_);
    /** Memory tier + miss-coalescing map: a !ready entry is the
     *  in-flight future concurrent misses on the same key block on. */
    std::unordered_map<ScheduleKey, Entry, KeyHash>
        entries_ GUARDED_BY(mutex_);
    /** Disk-tier root; empty = memory only. Deliberately unguarded:
     *  configured once before the cache is shared (see setArtifactDir)
     *  and read-only afterwards. */
    std::string artifactDir_;
    std::uint64_t hits_ GUARDED_BY(mutex_) = 0;
    std::uint64_t misses_ GUARDED_BY(mutex_) = 0;
    std::uint64_t evictions_ GUARDED_BY(mutex_) = 0;
    std::uint64_t diskHits_ GUARDED_BY(mutex_) = 0;
    std::uint64_t diskMisses_ GUARDED_BY(mutex_) = 0;
    /** Artifact write-behind counter (bumped after waiters unblock). */
    std::uint64_t persisted_ GUARDED_BY(mutex_) = 0;
    std::uint64_t corrupt_ GUARDED_BY(mutex_) = 0;
    std::uint64_t plansBuilt_ GUARDED_BY(mutex_) = 0;
};

} // namespace core
} // namespace chason

#endif // CHASON_CORE_SCHEDULE_CACHE_H_
