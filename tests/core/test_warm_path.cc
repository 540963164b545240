/**
 * @file
 * The warm-hit fast path: matrix handles that carry their cache key,
 * cache entries that keep their ScheduleStats and lazily attach a
 * StreamPlan, and the plan-taking Accelerator::run.
 *
 * The contract is that none of it changes one bit of any result: the
 * 1st (unplanned), 2nd (plan-building) and 5th (plan-replaying) run of
 * a cached schedule all reproduce the unplanned Engine::runScheduled —
 * y bits, cycles and report JSON — on both datapaths. Around it: the
 * plan is built only from an entry's second simulation, exactly once
 * under concurrency, its bytes are charged to the cache, and every
 * model check still fires when a plan is used.
 */

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "arch/serpens_accel.h"
#include "arch/stream_soa.h"
#include "common/rng.h"
#include "core/batch_engine.h"
#include "core/report_json.h"
#include "sched/crhcs.h"
#include "sparse/generators.h"
#include "trace/trace.h"

namespace chason {
namespace core {
namespace {

struct Tier
{
    const char *name;
    std::uint32_t scale;
    std::size_t nnzTarget;
};

/** Single-window, multi-window and multi-pass territory. */
const Tier kTiers[] = {
    {"tiny", 8, 1u << 12},
    {"small", 10, 1u << 14},
    {"medium", 12, 1u << 16},
};

sparse::CsrMatrix
tierMatrix(const Tier &tier)
{
    Rng rng = Rng::forStream(0x3A12, tier.scale);
    return sparse::rmat(tier.scale, tier.nnzTarget, rng);
}

std::vector<float>
tierX(const Tier &tier, std::uint32_t cols)
{
    Rng rng = Rng::forStream(0x3A12F00D, tier.scale);
    return sparse::randomVector(cols, rng);
}

/** A one-worker batch engine's options. */
BatchOptions
oneWorker()
{
    BatchOptions options;
    options.workers = 1;
    return options;
}

/** What a run must reproduce bit for bit. */
struct Outcome
{
    std::vector<float> y;
    std::uint64_t cycles = 0;
    std::string json;
};

Outcome
cachedRun(BatchEngine &batch, const Engine &engine,
          const sparse::CsrMatrix &a, const std::vector<float> &x)
{
    Outcome out;
    const SpmvReport report = batch.run(engine, a, x, "warm", &out.y);
    out.cycles = report.cycles;
    out.json = toJson(report);
    return out;
}

void
expectSame(const Outcome &want, const Outcome &got)
{
    // operator== on the vectors is the bit check on y.
    EXPECT_TRUE(want.y == got.y);
    EXPECT_EQ(want.cycles, got.cycles);
    EXPECT_EQ(want.json, got.json);
}

TEST(WarmPath, CachedRunsMatchUnplannedOnBothDatapaths)
{
    for (const Engine::Kind kind :
         {Engine::Kind::Chason, Engine::Kind::Serpens}) {
        const Engine engine(kind);
        SCOPED_TRACE(engine.accelerator().name());
        for (const Tier &tier : kTiers) {
            SCOPED_TRACE(tier.name);
            const sparse::CsrMatrix a = tierMatrix(tier);
            const std::vector<float> x = tierX(tier, a.cols());

            Outcome unplanned;
            const SpmvReport report = engine.runScheduled(
                engine.schedule(a), a, x, "warm", &unplanned.y);
            unplanned.cycles = report.cycles;
            unplanned.json = toJson(report);

            BatchEngine batch(oneWorker());
            std::vector<Outcome> runs;
            for (int run = 1; run <= 5; ++run) {
                runs.push_back(cachedRun(batch, engine, a, x));
                // The plan attaches on the entry's second simulation.
                EXPECT_EQ(batch.cache().stats().plansBuilt,
                          run >= 2 ? 1u : 0u);
            }
            expectSame(unplanned, runs[0]);
            expectSame(unplanned, runs[1]);
            expectSame(unplanned, runs[4]);
        }
    }
}

TEST(WarmPath, LookedUpTwiceSimulatedOnceBuildsNoPlan)
{
    // The sweep's shape: compare() simulates each kind once, then the
    // amortization step looks the schedule up again without a run.
    const Tier &tier = kTiers[1];
    const sparse::CsrMatrix a = tierMatrix(tier);
    const std::vector<float> x = tierX(tier, a.cols());
    BatchEngine batch(oneWorker());
    batch.compare(a, x, "sweep");
    batch.schedule(Engine(Engine::Kind::Chason), a);
    batch.schedule(Engine(Engine::Kind::Serpens), a);

    const ScheduleCacheStats stats = batch.cache().stats();
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.plansBuilt, 0u);
    EXPECT_EQ(stats.planBytes, 0u);
}

TEST(WarmPath, ColdCompareFillsBothKindsFromOnePairBuild)
{
    const Tier &tier = kTiers[1];
    const sparse::CsrMatrix a = tierMatrix(tier);
    const std::vector<float> x = tierX(tier, a.cols());
    BatchEngine batch(oneWorker());
    trace::TraceSink sink;
    Comparison cmp;
    {
        const trace::ScopedSink scope(sink);
        cmp = batch.compare(a, x, "cold");
    }
    const ScheduleCacheStats stats = batch.cache().stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 2u);
    if (trace::kEnabled) {
        std::vector<std::string> builds;
        for (const trace::SpanEvent &span : sink.spans())
            if (span.name.rfind("schedule:", 0) == 0)
                builds.push_back(span.name);
        EXPECT_EQ(builds,
                  std::vector<std::string>{"schedule:crhcs+pe-aware"});
    }

    // Both reports equal the uncached comparison's, bit for bit.
    const Comparison direct = compare(a, x, "cold");
    EXPECT_EQ(toJson(cmp.chason), toJson(direct.chason));
    EXPECT_EQ(toJson(cmp.serpens), toJson(direct.serpens));
    const Engine chason(Engine::Kind::Chason), serpens(Engine::Kind::Serpens);
    EXPECT_EQ(toJson(cmp.chason),
              toJson(chason.runScheduled(chason.schedule(a), a, x, "cold")));
    EXPECT_EQ(toJson(cmp.serpens), toJson(serpens.runScheduled(
                                       serpens.schedule(a), a, x, "cold")));
}

TEST(WarmPath, CompareRacingSerpensScheduleBuildsEachKeyOnce)
{
    const Tier &tier = kTiers[0];
    const sparse::CsrMatrix a = tierMatrix(tier);
    const std::vector<float> x = tierX(tier, a.cols());
    const Engine serpens(Engine::Kind::Serpens);
    const sched::Schedule want = serpens.schedule(a);
    const SpmvReport want_report = serpens.runScheduled(want, a, x, "race");
    for (int round = 0; round < 8; ++round) {
        SCOPED_TRACE(round);
        BatchEngine batch(oneWorker());
        Comparison cmp;
        std::shared_ptr<const sched::Schedule> alone;
        std::thread comparer([&] { cmp = batch.compare(a, x, "race"); });
        std::thread scheduler([&] { alone = batch.schedule(serpens, a); });
        comparer.join();
        scheduler.join();
        const ScheduleCacheStats stats = batch.cache().stats();
        EXPECT_EQ(stats.misses, 2u);
        EXPECT_EQ(stats.hits, 1u);
        EXPECT_EQ(stats.entries, 2u);
        EXPECT_EQ(alone->totalAlignedBeats(), want.totalAlignedBeats());
        EXPECT_EQ(alone->memoryBytes(), want.memoryBytes());
        EXPECT_EQ(toJson(serpens.runScheduled(*alone, a, x, "race")),
                  toJson(want_report));
        EXPECT_EQ(toJson(cmp.serpens), toJson(want_report));
    }
}

TEST(WarmPath, ConcurrentFirstRunsBuildExactlyOnePlan)
{
    const Tier &tier = kTiers[2];
    const sparse::CsrMatrix a = tierMatrix(tier);
    const std::vector<float> x = tierX(tier, a.cols());
    const Engine engine(Engine::Kind::Chason);
    std::vector<float> reference;
    engine.runScheduled(engine.schedule(a), a, x, "", &reference);

    BatchEngine batch(oneWorker());
    batch.schedule(engine, a); // resident, never simulated
    constexpr int kThreads = 8;
    std::vector<std::vector<float>> ys(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back(
            [&, t] { batch.run(engine, a, x, "", &ys[t]); });
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(batch.cache().stats().plansBuilt, 1u);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_TRUE(ys[t] == reference) << "thread " << t;
    EXPECT_TRUE(batch.cache().debugCheckConsistency());
}

TEST(WarmPath, PlanBytesAreChargedToTheCache)
{
    const sparse::CsrMatrix a = tierMatrix(kTiers[2]);
    const Engine engine(Engine::Kind::Chason);
    ScheduleCache cache;
    const MatrixHandle handle(a);

    const auto entry = cache.lookup(engine.scheduler(), *handle,
                                     handle.fingerprint());
    const std::size_t scheduleBytes = entry->schedule()->memoryBytes();
    const unsigned depth = engine.accelerator().migrationDepth();
    EXPECT_EQ(cache.planForRun(*entry, depth), nullptr); // 1st: unplanned
    EXPECT_EQ(cache.stats().bytes, scheduleBytes);

    const arch::StreamPlan *plan = cache.planForRun(*entry, depth);
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(cache.planForRun(*entry, depth), plan); // replayed
    // A request for another depth never gets a mismatched plan.
    EXPECT_EQ(cache.planForRun(*entry, depth + 1), nullptr);

    const ScheduleCacheStats stats = cache.stats();
    EXPECT_TRUE(cache.debugCheckConsistency());
    EXPECT_EQ(stats.plansBuilt, 1u);
    EXPECT_EQ(stats.planBytes, plan->memoryBytes());
    EXPECT_EQ(stats.bytes, scheduleBytes + plan->memoryBytes());
    // The arena layout: 13 bytes per non-zero plus lane offsets.
    EXPECT_LE(plan->memoryBytes(), 14 * a.nnz());

    cache.clear();
    EXPECT_TRUE(cache.debugCheckConsistency());
    EXPECT_EQ(cache.stats().planBytes, 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST(WarmPath, NoPlanWhenItCannotStayResident)
{
    // A budget that holds the schedule but not its plan: the entry
    // keeps running unplanned rather than build a plan the next
    // eviction would drop.
    const sparse::CsrMatrix a = tierMatrix(kTiers[2]);
    const Engine engine(Engine::Kind::Chason);
    const std::size_t scheduleBytes =
        ScheduleCache().get(engine, a)->memoryBytes();
    ScheduleCache cache(scheduleBytes + 1);
    const auto entry = cache.lookup(engine.scheduler(), a, fingerprint(a));
    const unsigned depth = engine.accelerator().migrationDepth();
    for (int run = 0; run < 3; ++run)
        EXPECT_EQ(cache.planForRun(*entry, depth), nullptr);
    EXPECT_EQ(cache.stats().plansBuilt, 0u);
    EXPECT_EQ(cache.stats().bytes, scheduleBytes);
}

TEST(WarmPath, HandleKeyEqualsScheduleKey)
{
    const sparse::CsrMatrix a = tierMatrix(kTiers[0]);
    const MatrixHandle copied(a);
    sparse::CsrMatrix moved_from = a;
    const MatrixHandle moved(std::move(moved_from));
    const Engine engine(Engine::Kind::Chason);
    EXPECT_EQ(scheduleKey(engine.scheduler(), copied.fingerprint()),
              scheduleKey(engine.scheduler(), *copied));
    EXPECT_EQ(copied.fingerprint(), fingerprint(a));
    EXPECT_EQ(moved.fingerprint(), fingerprint(a));

    // A lookup by the handle's key and get() share one entry.
    ScheduleCache cache;
    const auto viaHandle =
        cache.lookup(engine.scheduler(), *copied, copied.fingerprint());
    EXPECT_EQ(cache.get(engine, a), viaHandle->schedule());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

/** A CrHCS schedule that migrates work across channels. */
sched::Schedule
migratedSchedule(const sched::SchedConfig &config,
                 sparse::CsrMatrix &a)
{
    // One long row plus neighbour-channel work.
    sparse::CooMatrix coo(64, 128);
    for (std::uint32_t c = 0; c < 64; ++c)
        coo.add(0, c, 1.0f);
    for (std::uint32_t r = 4; r < 8; ++r)
        coo.add(r, r, 1.0f);
    a = coo.toCsr();
    return sched::CrhcsScheduler(config).schedule(a);
}

arch::ArchConfig
smallArch(unsigned depth)
{
    arch::ArchConfig cfg;
    cfg.sched.channels = 4;
    cfg.sched.pesOverride = 4;
    cfg.sched.rawDistance = 4;
    cfg.sched.windowCols = 128;
    cfg.sched.rowsPerLanePerPass = 64;
    cfg.sched.migrationDepth = depth;
    return cfg;
}

TEST(WarmPathDeath, SerpensRejectsMigratedSlotsWithAPlan)
{
    sparse::CsrMatrix a;
    const sched::Schedule sch = migratedSchedule(smallArch(1).sched, a);
    const arch::SerpensAccelerator serpens(smallArch(0));
    const std::vector<float> x(a.cols(), 1.0f);
    // A plan for the Serpens datapath (depth 0) cannot be packed...
    EXPECT_DEATH(arch::StreamPlan(sch, serpens.migrationDepth()),
                 "migrated");
    // ...and a plan packed for a deeper datapath is refused.
    const arch::StreamPlan chasonPlan(sch, 1);
    EXPECT_DEATH(serpens.run(sch, chasonPlan, x), "stream plan");
}

} // namespace
} // namespace core
} // namespace chason
