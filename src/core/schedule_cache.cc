/**
 * @file
 * Schedule cache implementation.
 */

#include "core/schedule_cache.h"

#include <filesystem>

#include "common/bitfield.h"
#include "common/logging.h"
#include "sched/artifact.h"
#include "trace/trace.h"

namespace chason {
namespace core {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline void
mix(std::uint64_t &h, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (value >> (byte * 8)) & 0xff;
        h *= kFnvPrime;
    }
}

// xxHash64's primes and round; see fingerprint() in the header.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ull;

inline std::uint64_t
rotl64(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

/** One lane step; a bijection of @p acc and of @p word. */
inline std::uint64_t
laneRound(std::uint64_t acc, std::uint64_t word)
{
    return rotl64(acc + word * kPrime2, 31) * kPrime1;
}

inline std::uint64_t
avalanche(std::uint64_t h)
{
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    return h ^ (h >> 32);
}

/** Absorb words 0..n-1 of @p word into @p lane, round-robin. */
template <typename Word>
inline void
absorb(std::uint64_t (&lane)[4], std::size_t n, Word word)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        lane[0] = laneRound(lane[0], word(i));
        lane[1] = laneRound(lane[1], word(i + 1));
        lane[2] = laneRound(lane[2], word(i + 2));
        lane[3] = laneRound(lane[3], word(i + 3));
    }
    for (; i < n; ++i)
        lane[i & 3] = laneRound(lane[i & 3], word(i));
}

} // namespace

MatrixFingerprint
fingerprint(const sparse::CsrMatrix &a)
{
    std::uint64_t lane[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
    const std::size_t *row_ptr = a.rowPtr().data();
    absorb(lane, a.rowPtr().size(),
           [row_ptr](std::size_t i) { return row_ptr[i]; });
    const std::uint32_t *col_idx = a.colIdx().data();
    const float *values = a.values().data();
    absorb(lane, a.nnz(), [col_idx, values](std::size_t i) {
        return (static_cast<std::uint64_t>(col_idx[i]) << 32) |
            floatToBits(values[i]);
    });

    // Two merges of the same four lanes, differing in rotations, lane
    // order and constants; each is a bijection of the shape words for
    // fixed lanes, so a changed rows/cols/nnz changes both halves.
    const std::uint64_t shape =
        (static_cast<std::uint64_t>(a.rows()) << 32) | a.cols();
    const std::uint64_t nnz = a.nnz();
    std::uint64_t lo = rotl64(lane[0], 1) + rotl64(lane[1], 7) +
        rotl64(lane[2], 12) + rotl64(lane[3], 18);
    std::uint64_t hi = rotl64(lane[3], 5) + rotl64(lane[2], 23) +
        rotl64(lane[1], 37) + rotl64(lane[0], 51);
    for (int k = 0; k < 4; ++k) {
        lo = (lo ^ laneRound(0, lane[k])) * kPrime1 + kPrime4;
        hi = (hi ^ laneRound(kPrime5, lane[3 - k])) * kPrime2 + kPrime3;
    }
    lo = laneRound(lo, shape) ^ nnz;
    hi = laneRound(hi ^ nnz, shape);
    return MatrixFingerprint{avalanche(lo), avalanche(hi)};
}

MatrixHandle::MatrixHandle(std::shared_ptr<const sparse::CsrMatrix> matrix)
    : matrix_(std::move(matrix))
{
    chason_assert(matrix_ != nullptr, "a matrix handle needs a matrix");
    fingerprint_ = core::fingerprint(*matrix_);
}

MatrixHandle::MatrixHandle(const sparse::CsrMatrix &matrix)
    : MatrixHandle(std::make_shared<const sparse::CsrMatrix>(matrix))
{
}

MatrixHandle::MatrixHandle(sparse::CsrMatrix &&matrix)
    : MatrixHandle(
          std::make_shared<const sparse::CsrMatrix>(std::move(matrix)))
{
}

ScheduleKey
scheduleKey(const sched::Scheduler &scheduler, const MatrixFingerprint &fp)
{
    std::uint64_t h = kFnvOffset;
    for (const char c : scheduler.name())
        mix(h, static_cast<unsigned char>(c));
    const sched::SchedConfig &cfg = scheduler.config();
    mix(h, cfg.channels);
    mix(h, static_cast<std::uint64_t>(cfg.precision));
    mix(h, cfg.pesOverride);
    mix(h, cfg.rawDistance);
    mix(h, cfg.windowCols);
    mix(h, cfg.rowsPerLanePerPass);
    mix(h, cfg.migrationDepth);
    return ScheduleKey{fp, h};
}

CachedSchedule::CachedSchedule(ScheduleKey key,
                               std::shared_ptr<const sched::Schedule> schedule)
    : key_(key), schedule_(std::move(schedule)),
      stats_(sched::analyze(*schedule_))
{
}

ScheduleCache::ScheduleCache(std::size_t budget_bytes)
    : budgetBytes_(budget_bytes)
{
    chason_assert(budgetBytes_ >= 1, "cache needs a positive byte budget");
}

void
ScheduleCache::setArtifactDir(const std::string &dir)
{
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            warn("schedule cache: cannot create artifact dir '%s' (%s); "
                 "disk tier disabled",
                 dir.c_str(), ec.message().c_str());
            artifactDir_.clear();
            return;
        }
    }
    artifactDir_ = dir;
}

ScheduleCache::SchedulePtr
ScheduleCache::loadFromDisk(const ScheduleKey &key,
                            const std::string &path, bool &rejected) const
{
    rejected = false;
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec)
        return nullptr; // clean disk miss: nothing stored yet

    // Admission gate: the same validation chason_verify --artifact
    // runs. Any defect — bad magic, foreign version, truncation,
    // structural damage, checksum mismatch — rejects the file and the
    // caller falls back to rescheduling; a corrupt store can cost
    // time, never correctness.
    trace::HostSpan span("artifact.load");
    sched::ArtifactError error;
    const sched::ArtifactReader reader =
        sched::ArtifactReader::open(path, &error);
    if (!reader.ok()) {
        rejected = true;
        warn("schedule cache: rejecting artifact '%s': %s (%s); "
             "rescheduling",
             path.c_str(), sched::artifactStatusName(error.status),
             error.detail.c_str());
        return nullptr;
    }
    const sched::ArtifactKey want{key.matrix.lo, key.matrix.hi,
                                  key.scheduler};
    if (!(reader.info().key == want)) {
        rejected = true;
        warn("schedule cache: artifact '%s' carries a foreign key; "
             "rescheduling",
             path.c_str());
        return nullptr;
    }
    if (!reader.payloadIntact(&error)) {
        rejected = true;
        warn("schedule cache: rejecting artifact '%s': %s (%s); "
             "rescheduling",
             path.c_str(), sched::artifactStatusName(error.status),
             error.detail.c_str());
        return nullptr;
    }
    // Zero-copy promotion: the schedule's beats alias the mapping.
    return std::make_shared<const sched::Schedule>(reader.load());
}

namespace {

/** A fresh schedule of @p a under @p scheduler, in a host span. */
std::shared_ptr<const sched::Schedule>
buildSchedule(const sched::Scheduler &scheduler, const sparse::CsrMatrix &a)
{
    trace::HostSpan span("schedule:" + scheduler.name());
    return std::make_shared<const sched::Schedule>(scheduler.schedule(a));
}

} // namespace

std::shared_ptr<CachedSchedule>
ScheduleCache::lookup(const sched::Scheduler &scheduler,
                      const sparse::CsrMatrix &a,
                      const MatrixFingerprint &fp)
{
    Fill fill;
    fill.key = scheduleKey(scheduler, fp);
    std::shared_future<EntryPtr> hit_future;
    {
        common::MutexLock lock(mutex_);
        const auto it = entries_.find(fill.key);
        if (it != entries_.end()) {
            // Resident or in flight: either way the scheduling work is
            // amortized, so both count as hits.
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            hit_future = it->second.future;
        } else {
            reserveLocked(fill);
        }
    }
    if (hit_future.valid()) {
        // Blocking on the future happens outside the critical section:
        // an in-flight fill must not serialize unrelated lookups.
        if (trace::TraceSink *sink = trace::activeSink()) {
            sink->addCounter("schedule_cache.hits");
            sink->recordInstant("cache_hit", trace::hostTrack(),
                                sink->nowUs());
        }
        return hit_future.get();
    }

    probe(fill);
    // Schedule outside the lock: this is the expensive part and the
    // whole point of running jobs concurrently.
    if (!fill.diskHit)
        fill.schedule = buildSchedule(scheduler, a);
    const EntryPtr entry = publish(fill);
    persist(fill);
    return entry;
}

std::pair<std::shared_ptr<CachedSchedule>, std::shared_ptr<CachedSchedule>>
ScheduleCache::lookupPair(const sched::CrhcsScheduler &crhcs,
                          const sparse::CsrMatrix &a,
                          const MatrixFingerprint &fp)
{
    const sched::PeAwareScheduler baseline = crhcs.baseline();
    Fill fills[2];
    fills[0].key = scheduleKey(crhcs, fp);
    fills[1].key = scheduleKey(baseline, fp);
    bool reserved = false;
    {
        common::MutexLock lock(mutex_);
        if (entries_.count(fills[0].key) == 0 &&
            entries_.count(fills[1].key) == 0) {
            reserveLocked(fills[0]);
            reserveLocked(fills[1]);
            reserved = true;
        }
    }
    if (!reserved)
        return {lookup(crhcs, a, fp), lookup(baseline, a, fp)};

    probe(fills[0]);
    probe(fills[1]);
    if (!fills[0].diskHit && !fills[1].diskHit) {
        trace::HostSpan span("schedule:" + crhcs.name() + "+" +
                             baseline.name());
        sched::SchedulePair pair = crhcs.scheduleWithBaseline(a);
        fills[0].schedule =
            std::make_shared<const sched::Schedule>(std::move(pair.crhcs));
        fills[1].schedule = std::make_shared<const sched::Schedule>(
            std::move(pair.peAware));
    } else if (!fills[0].diskHit) {
        fills[0].schedule = buildSchedule(crhcs, a);
    } else if (!fills[1].diskHit) {
        fills[1].schedule = buildSchedule(baseline, a);
    }
    const EntryPtr chason = publish(fills[0]);
    const EntryPtr serpens = publish(fills[1]);
    persist(fills[0]);
    persist(fills[1]);
    return {chason, serpens};
}

void
ScheduleCache::reserveLocked(Fill &fill)
{
    ++misses_;
    Entry entry;
    entry.future = fill.promise.get_future().share();
    lru_.push_front(fill.key);
    entry.lruIt = lru_.begin();
    entries_.emplace(fill.key, std::move(entry));
}

void
ScheduleCache::probe(Fill &fill)
{
    trace::TraceSink *sink = trace::activeSink();
    if (sink) {
        sink->addCounter("schedule_cache.misses");
        sink->recordInstant("cache_miss", trace::hostTrack(),
                            sink->nowUs());
    }
    if (artifactDir_.empty())
        return;

    // Disk tier: probe the artifact store before paying for CrHCS. The
    // probe runs without the lock for the same reason scheduling does —
    // its latency must not serialize unrelated lookups.
    const ScheduleKey &key = fill.key;
    fill.path = artifactDir_ + "/" +
        sched::artifactFileName(
            {key.matrix.lo, key.matrix.hi, key.scheduler});
    fill.schedule = loadFromDisk(key, fill.path, fill.diskRejected);
    fill.diskHit = fill.schedule != nullptr;
    if (sink) {
        sink->addCounter(fill.diskHit ? "schedule_cache.disk_hit"
                                      : "schedule_cache.disk_miss");
        sink->recordInstant(fill.diskHit ? "cache_disk_hit"
                                         : "cache_disk_miss",
                            trace::hostTrack(), sink->nowUs());
    }
}

ScheduleCache::EntryPtr
ScheduleCache::publish(Fill &fill)
{
    const std::size_t bytes = fill.schedule->memoryBytes();
    const EntryPtr entry =
        std::make_shared<CachedSchedule>(fill.key, fill.schedule);
    {
        common::MutexLock lock(mutex_);
        const auto it = entries_.find(fill.key);
        // The filling thread owns the pending entry until this point:
        // neither clear() nor eviction touches a !ready entry, so the
        // lookup must succeed. Guard re-insertion anyway — if a future
        // change makes an entry ready twice, adding its bytes twice
        // would corrupt residentBytes_ permanently.
        chason_assert(it != entries_.end(),
                      "in-flight cache entry disappeared");
        if (!it->second.ready) {
            it->second.ready = true;
            it->second.value = entry.get();
            it->second.bytes = bytes;
            residentBytes_ += bytes;
            enforceBudgetLocked();
        }
        if (!fill.path.empty()) {
            fill.diskHit ? ++diskHits_ : ++diskMisses_;
            if (fill.diskRejected)
                ++corrupt_;
        }
        debugCheckConsistencyLocked();
    }
    fill.promise.set_value(entry);
    return entry;
}

void
ScheduleCache::persist(const Fill &fill)
{
    // Write-behind persistence: waiters are already unblocked; losing
    // the write costs a future reschedule, never a wrong result. A
    // rejected (corrupt) artifact is overwritten here, healing the
    // store in place.
    if (fill.path.empty() || fill.diskHit)
        return;
    const ScheduleKey &key = fill.key;
    sched::ArtifactError error;
    if (!sched::writeArtifactFile(
            *fill.schedule, {key.matrix.lo, key.matrix.hi, key.scheduler},
            fill.path, &error)) {
        warn("schedule cache: cannot persist artifact '%s': %s (%s)",
             fill.path.c_str(), sched::artifactStatusName(error.status),
             error.detail.c_str());
        return;
    }
    {
        common::MutexLock lock(mutex_);
        ++persisted_;
    }
    if (trace::TraceSink *sink = trace::activeSink()) {
        sink->addCounter("schedule_cache.persist");
        sink->recordInstant("cache_persist", trace::hostTrack(),
                            sink->nowUs());
    }
}

const arch::StreamPlan *
ScheduleCache::planForRun(CachedSchedule &entry, unsigned migration_depth)
{
    // The first simulation runs unplanned: a plan costs about as much
    // to build as one unplanned run, so it only pays from the second.
    if (entry.simulations_.fetch_add(1, std::memory_order_acq_rel) == 0)
        return nullptr;
    std::call_once(entry.planOnce_, [&] {
        {
            // A plan that cannot stay resident beside its schedule
            // would be dropped at the entry's next eviction: build none.
            common::MutexLock lock(mutex_);
            if (entry.schedule_->memoryBytes() +
                    arch::StreamPlan::bytesFor(*entry.schedule_) >
                budgetBytes_)
                return;
        }
        trace::HostSpan span("stream_plan.build");
        entry.plan_ = std::make_unique<const arch::StreamPlan>(
            *entry.schedule_, migration_depth);
        const std::size_t bytes = entry.plan_->memoryBytes();
        {
            common::MutexLock lock(mutex_);
            ++plansBuilt_;
            // Charge the plan to the entry only while this very
            // instance is resident; an evicted (or evicted and
            // re-filled) entry's plan lives with its last holders.
            const auto it = entries_.find(entry.key_);
            if (it != entries_.end() && it->second.value == &entry) {
                it->second.bytes += bytes;
                it->second.planBytes = bytes;
                residentBytes_ += bytes;
                planBytes_ += bytes;
                lru_.splice(lru_.begin(), lru_, it->second.lruIt);
                enforceBudgetLocked();
            }
            debugCheckConsistencyLocked();
        }
    });
    // call_once orders the plan's construction before this read in
    // every thread that gets here.
    const arch::StreamPlan *plan = entry.plan_.get();
    return plan && plan->migrationDepth() == migration_depth ? plan
                                                             : nullptr;
}

void
ScheduleCache::enforceBudgetLocked()
{
    trace::TraceSink *sink = trace::activeSink();
    auto it = lru_.end();
    while (residentBytes_ > budgetBytes_ && it != lru_.begin()) {
        --it;
        if (it == lru_.begin())
            break; // always keep the most recently used entry
        const auto entryIt = entries_.find(*it);
        chason_assert(entryIt != entries_.end(), "LRU/map out of sync");
        if (!entryIt->second.ready)
            continue; // in flight: bytes unknown, cannot evict
        chason_assert(residentBytes_ >= entryIt->second.bytes,
                      "resident bytes underflow on eviction");
        residentBytes_ -= entryIt->second.bytes;
        planBytes_ -= entryIt->second.planBytes;
        it = lru_.erase(it);
        entries_.erase(entryIt);
        ++evictions_;
        if (sink) {
            sink->addCounter("schedule_cache.evictions");
            sink->recordInstant("cache_evict", trace::hostTrack(),
                                sink->nowUs());
        }
    }
}

void
ScheduleCache::debugCheckConsistencyLocked() const
{
#ifndef NDEBUG
    std::size_t ready_bytes = 0;
    std::size_t plan_bytes = 0;
    for (const auto &[key, entry] : entries_) {
        (void)key;
        if (entry.ready) {
            ready_bytes += entry.bytes;
            plan_bytes += entry.planBytes;
        } else {
            chason_assert(entry.bytes == 0 && entry.planBytes == 0,
                          "in-flight entry carries resident bytes");
        }
    }
    chason_assert(ready_bytes == residentBytes_,
                  "residentBytes_ %zu != sum of ready entry bytes %zu",
                  residentBytes_, ready_bytes);
    chason_assert(plan_bytes == planBytes_,
                  "planBytes_ %zu != sum of entry plan bytes %zu",
                  planBytes_, plan_bytes);
    chason_assert(lru_.size() == entries_.size(),
                  "LRU list (%zu) and entry map (%zu) diverged",
                  lru_.size(), entries_.size());
    for (const ScheduleKey &key : lru_)
        chason_assert(entries_.count(key) == 1,
                      "LRU key missing from the entry map");
#endif
}

bool
ScheduleCache::debugCheckConsistency() const
{
    common::MutexLock lock(mutex_);
    std::size_t ready_bytes = 0;
    std::size_t plan_bytes = 0;
    for (const auto &[key, entry] : entries_) {
        (void)key;
        if (entry.ready) {
            ready_bytes += entry.bytes;
            plan_bytes += entry.planBytes;
        } else if (entry.bytes != 0 || entry.planBytes != 0) {
            return false;
        }
    }
    if (ready_bytes != residentBytes_ || plan_bytes != planBytes_)
        return false;
    if (lru_.size() != entries_.size())
        return false;
    for (const ScheduleKey &key : lru_)
        if (entries_.count(key) != 1)
            return false;
    return true;
}

ScheduleCacheStats
ScheduleCache::stats() const
{
    common::MutexLock lock(mutex_);
    ScheduleCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.diskHits = diskHits_;
    s.diskMisses = diskMisses_;
    s.persisted = persisted_;
    s.corrupt = corrupt_;
    s.plansBuilt = plansBuilt_;
    s.entries = entries_.size();
    s.bytes = residentBytes_;
    s.planBytes = planBytes_;
    s.budgetBytes = budgetBytes_;
    return s;
}

void
ScheduleCache::clear()
{
    common::MutexLock lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->second.ready) {
            lru_.erase(it->second.lruIt);
            it = entries_.erase(it);
        } else {
            ++it; // in flight: the filling thread still owns it
        }
    }
    // Only ready entries contribute to residentBytes_, and all of them
    // were just dropped; in-flight entries add their bytes when they
    // complete.
    residentBytes_ = 0;
    planBytes_ = 0;
    debugCheckConsistencyLocked();
}

} // namespace core
} // namespace chason
