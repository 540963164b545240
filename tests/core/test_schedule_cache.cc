/**
 * @file
 * Tests for the concurrent schedule cache: keying, LRU byte budget,
 * counters, multi-threaded hammering on shared and distinct keys, and
 * the pair lookup that fills the CrHCS and PE-aware keys from one
 * placement.
 */

#include "core/schedule_cache.h"

#include <filesystem>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "sparse/generators.h"
#include "trace/trace.h"

namespace chason {
namespace core {
namespace {

arch::ArchConfig
smallConfig()
{
    arch::ArchConfig cfg;
    cfg.sched.channels = 4;
    cfg.sched.pesOverride = 4;
    cfg.sched.rawDistance = 4;
    cfg.sched.windowCols = 128;
    cfg.sched.rowsPerLanePerPass = 64;
    return cfg;
}

sparse::CsrMatrix
matrix(std::uint64_t seed)
{
    Rng rng(seed);
    return sparse::erdosRenyi(64, 128, 700, rng);
}

TEST(Fingerprint, DeterministicAndSensitive)
{
    const sparse::CsrMatrix a = matrix(1);
    EXPECT_EQ(fingerprint(a), fingerprint(a));
    EXPECT_FALSE(fingerprint(a) == fingerprint(matrix(2)));

    // A single value change must alter the fingerprint.
    sparse::CooMatrix coo1(4, 4), coo2(4, 4);
    coo1.add(1, 2, 1.0f);
    coo2.add(1, 2, 1.5f);
    EXPECT_FALSE(fingerprint(coo1.toCsr()) ==
                 fingerprint(coo2.toCsr()));

    // A structure change (same nnz) too.
    sparse::CooMatrix coo3(4, 4);
    coo3.add(2, 1, 1.0f);
    EXPECT_FALSE(fingerprint(coo1.toCsr()) ==
                 fingerprint(coo3.toCsr()));
}

TEST(ScheduleKeyTest, SchedulerIdentityAndConfigAreKeyed)
{
    const sparse::CsrMatrix a = matrix(1);
    const sched::SchedConfig cfg = smallConfig().sched;

    // Same scheduler + config + matrix: same key.
    EXPECT_EQ(scheduleKey(sched::PeAwareScheduler(cfg), a),
              scheduleKey(sched::PeAwareScheduler(cfg), a));

    // Different algorithm on the same matrix: different key.
    sched::SchedConfig crhcsCfg = cfg;
    crhcsCfg.migrationDepth = 1;
    EXPECT_FALSE(scheduleKey(sched::PeAwareScheduler(cfg), a) ==
                 scheduleKey(sched::CrhcsScheduler(crhcsCfg), a));

    // Different geometry: different key.
    sched::SchedConfig wide = cfg;
    wide.rawDistance = 8;
    EXPECT_FALSE(scheduleKey(sched::PeAwareScheduler(cfg), a) ==
                 scheduleKey(sched::PeAwareScheduler(wide), a));

    // Different matrix: different key.
    EXPECT_FALSE(scheduleKey(sched::PeAwareScheduler(cfg), a) ==
                 scheduleKey(sched::PeAwareScheduler(cfg), matrix(2)));
}

TEST(ScheduleCache, HitsAfterFirstMiss)
{
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    const sparse::CsrMatrix a = matrix(3);

    const auto first = cache.get(engine, a);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);
    const auto second = cache.get(engine, a);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(first.get(), second.get()); // same resident object
    EXPECT_GT(cache.stats().bytes, 0u);
    EXPECT_EQ(cache.stats().bytes, first->memoryBytes());
}

TEST(ScheduleCache, EnginesWithEqualConfigShareEntries)
{
    Engine e1(Engine::Kind::Chason, smallConfig());
    Engine e2(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    const sparse::CsrMatrix a = matrix(3);

    cache.get(e1, a);
    cache.get(e2, a);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);

    // The Serpens engine schedules differently: separate entry.
    Engine serpens(Engine::Kind::Serpens, smallConfig());
    cache.get(serpens, a);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ScheduleCache, EvictsLeastRecentlyUsedOverByteBudget)
{
    Engine engine(Engine::Kind::Serpens, smallConfig());
    const sparse::CsrMatrix a = matrix(4);
    const sparse::CsrMatrix b = matrix(5);

    // Budget of exactly one schedule: inserting the second must evict
    // the least recently used first, whatever b's exact size.
    ScheduleCache probe;
    const std::size_t one = probe.get(engine, a)->memoryBytes();

    ScheduleCache cache(one);
    const auto sa = cache.get(engine, a);
    cache.get(engine, b); // over budget: evicts a
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);

    // Shared ownership: the evicted schedule we still hold is intact.
    EXPECT_EQ(sa->memoryBytes(), one);

    cache.get(engine, b); // most recent: still resident
    EXPECT_EQ(cache.stats().hits, 1u);
    cache.get(engine, a); // was evicted: schedules again
    EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(ScheduleCache, OversizedEntryIsStillAdmitted)
{
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache(1); // 1-byte budget: everything is oversized
    const sparse::CsrMatrix a = matrix(6);

    cache.get(engine, a);
    EXPECT_EQ(cache.stats().entries, 1u); // MRU entry is never evicted
    cache.get(engine, a);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ScheduleCache, ByteAccountingSurvivesOversizedInserts)
{
    // Every insert exceeds the 1-byte budget; resident bytes must track
    // exactly the MRU survivor, never accumulate ghosts of evicted
    // entries (the residentBytes_ / lru_ consistency contract).
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache(1);
    const sparse::CsrMatrix a = matrix(20);
    const sparse::CsrMatrix b = matrix(21);

    const auto sa = cache.get(engine, a);
    EXPECT_EQ(cache.stats().bytes, sa->memoryBytes());
    EXPECT_TRUE(cache.debugCheckConsistency());

    const auto sb = cache.get(engine, b); // evicts a, admits b
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().bytes, sb->memoryBytes());
    EXPECT_TRUE(cache.debugCheckConsistency());
}

TEST(ScheduleCache, ReinsertAfterEvictionAccountsCurrentSize)
{
    // a is inserted, evicted, then rescheduled: the second insert must
    // account the fresh instance's size, not double-count or reuse the
    // first accounting.
    Engine engine(Engine::Kind::Serpens, smallConfig());
    const sparse::CsrMatrix a = matrix(22);
    const sparse::CsrMatrix b = matrix(23);

    ScheduleCache probe;
    const std::size_t a_bytes = probe.get(engine, a)->memoryBytes();

    ScheduleCache cache(a_bytes);
    cache.get(engine, a);
    cache.get(engine, b); // evicts a
    EXPECT_TRUE(cache.debugCheckConsistency());
    const auto again = cache.get(engine, a); // evicts b, re-admits a
    EXPECT_EQ(cache.stats().bytes, again->memoryBytes());
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_TRUE(cache.debugCheckConsistency());
}

TEST(ScheduleCache, ConsistentAfterClearAndConcurrentRefill)
{
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    cache.get(engine, matrix(24));
    cache.clear();
    EXPECT_TRUE(cache.debugCheckConsistency());

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            cache.get(engine, matrix(30 + t % 2));
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_TRUE(cache.debugCheckConsistency());
}

TEST(ScheduleCache, ClearKeepsCounters)
{
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    cache.get(engine, matrix(9));
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
    cache.get(engine, matrix(9));
    EXPECT_EQ(cache.stats().misses, 2u); // refilled after clear
}

TEST(ScheduleCache, CachedScheduleRunsCorrectly)
{
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    const sparse::CsrMatrix a = matrix(7);
    Rng rng(8);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);

    const SpmvReport direct = engine.run(a, x);
    const SpmvReport via_cache =
        engine.runScheduled(*cache.get(engine, a), a, x);
    EXPECT_EQ(direct.cycles, via_cache.cycles);
    EXPECT_LE(via_cache.functionalError, 1.0);
}

TEST(ScheduleCache, ConcurrentSameKeyCoalescesToOneScheduling)
{
    Engine engine(Engine::Kind::Chason, smallConfig());
    ScheduleCache cache;
    const sparse::CsrMatrix a = matrix(10);

    constexpr unsigned kThreads = 8;
    constexpr unsigned kRounds = 16;
    std::vector<std::shared_ptr<const sched::Schedule>> seen(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned r = 0; r < kRounds; ++r)
                seen[t] = cache.get(engine, a);
        });
    }
    for (std::thread &th : threads)
        th.join();

    const ScheduleCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 1u); // exactly one thread scheduled
    EXPECT_EQ(s.hits, kThreads * kRounds - 1u);
    EXPECT_EQ(s.entries, 1u);
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[0].get(), seen[t].get());
}

TEST(ScheduleCache, ConcurrentDistinctKeysAllResident)
{
    Engine engine(Engine::Kind::Serpens, smallConfig());
    ScheduleCache cache;

    constexpr unsigned kThreads = 8;
    std::vector<sparse::CsrMatrix> matrices;
    for (unsigned t = 0; t < kThreads; ++t)
        matrices.push_back(matrix(100 + t));

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Each thread first fills its own key, then hits the
            // others' (or coalesces with their in-flight fill).
            cache.get(engine, matrices[t]);
            for (unsigned o = 0; o < kThreads; ++o)
                cache.get(engine, matrices[o]);
        });
    }
    for (std::thread &th : threads)
        th.join();

    const ScheduleCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, kThreads);
    EXPECT_EQ(s.hits, kThreads * (kThreads + 1) - kThreads);
    EXPECT_EQ(s.entries, kThreads);
    EXPECT_EQ(s.evictions, 0u);
}

/** The CrHCS scheduler of a Chason engine (always CrHCS). */
const sched::CrhcsScheduler &
crhcsOf(const Engine &engine)
{
    return static_cast<const sched::CrhcsScheduler &>(engine.scheduler());
}

/** The "schedule:<name>" spans @p sink recorded, in order. */
std::vector<std::string>
scheduleSpans(const trace::TraceSink &sink)
{
    std::vector<std::string> names;
    for (const trace::SpanEvent &span : sink.spans())
        if (span.name.rfind("schedule:", 0) == 0)
            names.push_back(span.name);
    return names;
}

/** What a schedule's bytes must reproduce: its cycles and beat count. */
void
expectSameSchedule(const Engine &engine, const sched::Schedule &want,
                   const sched::Schedule &got, const sparse::CsrMatrix &a)
{
    EXPECT_EQ(want.scheduler, got.scheduler);
    EXPECT_EQ(want.config.migrationDepth, got.config.migrationDepth);
    EXPECT_EQ(want.totalAlignedBeats(), got.totalAlignedBeats());
    EXPECT_EQ(want.memoryBytes(), got.memoryBytes());
    Rng rng(21);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    EXPECT_EQ(engine.runScheduled(want, a, x).cycles,
              engine.runScheduled(got, a, x).cycles);
}

TEST(ScheduleCache, ColdPairLookupFillsBothKeysFromOneBuild)
{
    const Engine chason(Engine::Kind::Chason, smallConfig());
    const Engine serpens(Engine::Kind::Serpens, smallConfig());
    ScheduleCache cache;
    const sparse::CsrMatrix a = matrix(30);
    const MatrixFingerprint fp = fingerprint(a);

    trace::TraceSink sink;
    std::shared_ptr<CachedSchedule> crhcs, pe_aware;
    {
        const trace::ScopedSink scope(sink);
        std::tie(crhcs, pe_aware) =
            cache.lookupPair(crhcsOf(chason), a, fp);
    }
    ScheduleCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.bytes, crhcs->schedule()->memoryBytes() +
                           pe_aware->schedule()->memoryBytes());
    if (trace::kEnabled) {
        EXPECT_EQ(scheduleSpans(sink),
                  std::vector<std::string>{"schedule:crhcs+pe-aware"});
    }
    EXPECT_TRUE(cache.debugCheckConsistency());

    // Each kind's own lookup now hits the entry the pair build filled,
    // and that entry holds what the kind's scheduler builds alone.
    EXPECT_EQ(cache.lookup(chason.scheduler(), a, fp), crhcs);
    EXPECT_EQ(cache.lookup(serpens.scheduler(), a, fp), pe_aware);
    expectSameSchedule(chason, chason.schedule(a), *crhcs->schedule(), a);
    expectSameSchedule(serpens, serpens.schedule(a),
                       *pe_aware->schedule(), a);

    // A warm pair lookup is two hits.
    const auto warm = cache.lookupPair(crhcsOf(chason), a, fp);
    EXPECT_EQ(warm.first, crhcs);
    EXPECT_EQ(warm.second, pe_aware);
    s = cache.stats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.hits, 4u);
}

TEST(ScheduleCache, PairLookupRacingSingleLookupBuildsEachKeyOnce)
{
    const Engine chason(Engine::Kind::Chason, smallConfig());
    const Engine serpens(Engine::Kind::Serpens, smallConfig());
    const sparse::CsrMatrix a = matrix(31);
    const MatrixFingerprint fp = fingerprint(a);
    const sched::Schedule want = serpens.schedule(a);

    // Either side may reserve first; every interleaving schedules each
    // key exactly once and hands both threads the same entry.
    for (int round = 0; round < 8; ++round) {
        SCOPED_TRACE(round);
        ScheduleCache cache;
        std::shared_ptr<CachedSchedule> from_pair, alone;
        std::thread pair([&] {
            from_pair = cache.lookupPair(crhcsOf(chason), a, fp).second;
        });
        std::thread single(
            [&] { alone = cache.lookup(serpens.scheduler(), a, fp); });
        pair.join();
        single.join();
        const ScheduleCacheStats s = cache.stats();
        EXPECT_EQ(s.misses, 2u);
        EXPECT_EQ(s.hits, 1u);
        EXPECT_EQ(s.entries, 2u);
        EXPECT_EQ(from_pair, alone);
        expectSameSchedule(serpens, want, *alone->schedule(), a);
    }
}

TEST(ScheduleCache, PairLookupLoadsTheStoredKindAndBuildsTheOther)
{
    const Engine chason(Engine::Kind::Chason, smallConfig());
    const Engine serpens(Engine::Kind::Serpens, smallConfig());
    const sparse::CsrMatrix a = matrix(32);
    const MatrixFingerprint fp = fingerprint(a);
    const std::string dir =
        ::testing::TempDir() + "chason_cache_pair_one_kind";
    std::filesystem::remove_all(dir);

    {
        // Store only the PE-aware kind.
        ScheduleCache writer;
        writer.setArtifactDir(dir);
        writer.lookup(serpens.scheduler(), a, fp);
        ASSERT_EQ(writer.stats().persisted, 1u);
    }

    ScheduleCache cache;
    cache.setArtifactDir(dir);
    trace::TraceSink sink;
    std::shared_ptr<CachedSchedule> crhcs, pe_aware;
    {
        const trace::ScopedSink scope(sink);
        std::tie(crhcs, pe_aware) =
            cache.lookupPair(crhcsOf(chason), a, fp);
    }
    ScheduleCacheStats s = cache.stats();
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.diskHits, 1u);
    EXPECT_EQ(s.diskMisses, 1u);
    EXPECT_EQ(s.persisted, 1u); // the CrHCS kind, built alone
    if (trace::kEnabled) {
        EXPECT_EQ(scheduleSpans(sink),
                  std::vector<std::string>{"schedule:crhcs"});
    }
    expectSameSchedule(chason, chason.schedule(a), *crhcs->schedule(), a);
    expectSameSchedule(serpens, serpens.schedule(a),
                       *pe_aware->schedule(), a);

    // Both kinds are stored now: a fresh cache schedules nothing.
    ScheduleCache reader;
    reader.setArtifactDir(dir);
    reader.lookupPair(crhcsOf(chason), a, fp);
    s = reader.stats();
    EXPECT_EQ(s.diskHits, 2u);
    EXPECT_EQ(s.diskMisses, 0u);
    EXPECT_EQ(s.persisted, 0u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace core
} // namespace chason
