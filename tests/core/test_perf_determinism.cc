/**
 * @file
 * Determinism regressions for the offline fast paths.
 *
 * The rewrite's contract is that none of its speed mechanisms —
 * parallel phase scheduling (jobs > 1), the SoA/AVX2 streaming core,
 * the precomputed StreamPlan, PEG pooling, the channel-parallel
 * simulation and row-parallel reference check, the blocked column
 * scatter — may change one bit of any result. These tests pin that
 * contract on three R-MAT tiers: parallel CrHCS must serialize to the
 * exact bytes of the sequential schedule, the planned simulation must
 * reproduce run() exactly (y, every cycle counter, the report JSON),
 * every simulation must be identical at every CHASON_JOBS value, and
 * the cache-blocked scatter must produce the direct scatter's arrays.
 * The pair build (one placement for both the PE-aware and the CrHCS
 * schedule) must equal the separate builds on every Table-2, serving
 * catalog and sampled sweep matrix, at every jobs count.
 *
 * The setenv calls are sound with respect to env.cc's getenv note: the
 * test bodies run single-threaded between fan-outs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "arch/chason_accel.h"
#include "arch/stream_soa.h"
#include "common/env.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/report_json.h"
#include "sched/analyzer.h"
#include "sched/artifact.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "sched/schedule_io.h"
#include "sparse/csc.h"
#include "sparse/dataset.h"
#include "sparse/generators.h"

namespace chason {
namespace {

struct Tier
{
    const char *name;
    std::uint32_t scale;
    std::size_t nnzTarget;
};

/** Three sizes: single-window, multi-window, multi-pass territory. */
const Tier kTiers[] = {
    {"tiny", 8, 1u << 12},
    {"small", 10, 1u << 14},
    {"medium", 12, 1u << 16},
};

sparse::CsrMatrix
tierMatrix(const Tier &tier)
{
    Rng rng = Rng::forStream(0xD373, tier.scale);
    return sparse::rmat(tier.scale, tier.nnzTarget, rng);
}

std::string
scheduleBytes(const sched::Schedule &schedule)
{
    std::ostringstream out;
    sched::writeSchedule(schedule, out);
    return out.str();
}

TEST(PerfDeterminism, ParallelSchedulingIsBitIdentical)
{
    const sched::SchedConfig config;
    for (const Tier &tier : kTiers) {
        SCOPED_TRACE(tier.name);
        const sparse::CsrMatrix a = tierMatrix(tier);

        sched::CrhcsScheduler sequential(config);
        sequential.setJobs(1);
        const std::string bytes1 =
            scheduleBytes(sequential.schedule(a));
        // Oversubscribed worker counts on small machines are fine —
        // and exactly the point: the (pass, window) fan-out, the
        // work-stealing pool and the sharded migration setup must
        // serialize to the same bytes at *every* jobs value.
        for (const unsigned jobs : {3u, 8u}) {
            SCOPED_TRACE(jobs);
            sched::CrhcsScheduler parallel(config);
            parallel.setJobs(jobs);
            EXPECT_EQ(bytes1, scheduleBytes(parallel.schedule(a)));
        }
    }
}

/**
 * A schedule's identity for bit-identity checks: its metadata, its
 * resident size (what the cache charges) and a digest of every
 * channel's raw beat bytes, phase by phase.
 */
std::string
scheduleIdentity(const sched::Schedule &s)
{
    std::ostringstream out;
    const sched::SchedConfig &c = s.config;
    out << s.scheduler << ' ' << c.channels << ' '
        << static_cast<int>(c.precision) << ' ' << c.pesOverride << ' '
        << c.rawDistance << ' ' << c.windowCols << ' '
        << c.rowsPerLanePerPass << ' ' << c.migrationDepth << ' ' << s.rows
        << ' ' << s.cols << ' ' << s.nnz << ' ' << s.memoryBytes() << '\n';
    for (const sched::WindowSchedule &phase : s.phases) {
        out << phase.pass << ' ' << phase.window << ' '
            << phase.alignedBeats;
        for (const sched::ChannelWindowSchedule &ch : phase.channels)
            out << ' ' << ch.length() << ':'
                << sched::artifactHash(ch.beats.data(),
                                       ch.length() * sizeof(sched::Beat));
        out << '\n';
    }
    return out.str();
}

/** A named matrix, generated on demand. */
struct NamedMatrix
{
    std::string name;
    std::function<sparse::CsrMatrix()> generate;
};

/**
 * The pair build's corpus: Table 2, the serving catalog's six R-MAT
 * shapes (the e2e serve workloads' catalog) and every 100th entry of
 * the 800-matrix sweep corpus.
 */
std::vector<NamedMatrix>
pairCorpus()
{
    std::vector<NamedMatrix> corpus;
    for (const sparse::DatasetEntry &entry : sparse::table2())
        corpus.push_back({entry.id, entry.generate});
    struct Shape
    {
        std::uint32_t scale;
        std::size_t edges;
    };
    constexpr Shape kCatalog[] = {
        {16, 1000000}, {15, 500000}, {17, 2000000},
        {14, 250000},  {16, 700000}, {17, 1400000},
    };
    for (std::size_t i = 0; i < std::size(kCatalog); ++i) {
        const Shape shape = kCatalog[i];
        corpus.push_back({"catalog_" + std::to_string(i), [shape, i] {
                              Rng rng(0xca7a1060u + i);
                              return sparse::rmat(shape.scale, shape.edges,
                                                  rng);
                          }});
    }
    const std::vector<sparse::SweepEntry> sweep = sparse::sweepCorpus();
    for (std::size_t i = 0; i < sweep.size(); i += 100)
        corpus.push_back({sweep[i].name, sweep[i].generate});
    return corpus;
}

TEST(PerfDeterminism, PairBuildMatchesSeparateBuildsAtEveryJobsCount)
{
    // The configurations compare() schedules with.
    const core::Engine chason(core::Engine::Kind::Chason);
    const core::Engine serpens(core::Engine::Kind::Serpens);
    for (const NamedMatrix &m : pairCorpus()) {
        SCOPED_TRACE(m.name);
        const sparse::CsrMatrix a = m.generate();
        sched::CrhcsScheduler crhcs(chason.config().sched);
        sched::PeAwareScheduler pe_aware(serpens.config().sched);
        crhcs.setJobs(1);
        pe_aware.setJobs(1);
        const std::string want_crhcs = scheduleIdentity(crhcs.schedule(a));
        const std::string want_pe = scheduleIdentity(pe_aware.schedule(a));
        for (const unsigned jobs : {1u, 2u, 4u}) {
            SCOPED_TRACE(jobs);
            crhcs.setJobs(jobs);
            const sched::SchedulePair pair = crhcs.scheduleWithBaseline(a);
            EXPECT_EQ(want_crhcs, scheduleIdentity(pair.crhcs));
            EXPECT_EQ(want_pe, scheduleIdentity(pair.peAware));
            if (jobs > 1) {
                pe_aware.setJobs(jobs);
                EXPECT_EQ(want_pe, scheduleIdentity(pe_aware.schedule(a)));
            }
        }
    }
}

TEST(PerfDeterminism, PlannedSimulationMatchesRunExactly)
{
    arch::ArchConfig ac;
    const arch::ChasonAccelerator accel(ac);
    const sched::CrhcsScheduler scheduler(ac.sched);
    for (const Tier &tier : kTiers) {
        SCOPED_TRACE(tier.name);
        const sparse::CsrMatrix a = tierMatrix(tier);
        Rng rng = Rng::forStream(0xD373F00D, tier.scale);
        const std::vector<float> x = sparse::randomVector(a.cols(), rng);

        const sched::Schedule schedule = scheduler.schedule(a);
        const arch::StreamPlan plan(schedule, accel.migrationDepth());

        const arch::RunResult ref = accel.run(schedule, x);
        const arch::RunResult planned =
            accel.run(schedule, plan, x);

        ASSERT_EQ(ref.y.size(), planned.y.size());
        // operator== on the vectors is the bit check: equal floats,
        // including signed zeros behaving identically downstream.
        EXPECT_TRUE(ref.y == planned.y);
        EXPECT_EQ(ref.cycles.total(), planned.cycles.total());
        EXPECT_EQ(ref.cycles.matrixStream, planned.cycles.matrixStream);
        EXPECT_EQ(ref.cycles.xLoad, planned.cycles.xLoad);
        EXPECT_EQ(ref.cycles.pipelineFill, planned.cycles.pipelineFill);
        EXPECT_EQ(ref.cycles.reduction, planned.cycles.reduction);
        EXPECT_EQ(ref.cycles.writeback, planned.cycles.writeback);
        EXPECT_DOUBLE_EQ(ref.latencyUs, planned.latencyUs);
    }
}

TEST(PerfDeterminism, ReportJsonUnchangedByParallelScheduling)
{
    const core::Engine engine(core::Engine::Kind::Chason);
    for (const Tier &tier : kTiers) {
        SCOPED_TRACE(tier.name);
        const sparse::CsrMatrix a = tierMatrix(tier);
        Rng rng = Rng::forStream(0xD373F00D, tier.scale);
        const std::vector<float> x = sparse::randomVector(a.cols(), rng);

        sched::CrhcsScheduler sequential(engine.config().sched);
        sequential.setJobs(1);
        const std::string json1 = core::toJson(engine.runScheduled(
            sequential.schedule(a), a, x, tier.name));
        for (const unsigned jobs : {3u, 8u}) {
            SCOPED_TRACE(jobs);
            sched::CrhcsScheduler parallel(engine.config().sched);
            parallel.setJobs(jobs);
            const std::string jsonN = core::toJson(engine.runScheduled(
                parallel.schedule(a), a, x, tier.name));
            EXPECT_EQ(json1, jsonN);
        }
    }
}

/** Sets CHASON_JOBS for one scope, restoring the previous value. */
class ScopedJobs
{
  public:
    explicit ScopedJobs(unsigned jobs)
        : wasSet_(common::envIsSet("CHASON_JOBS")),
          previous_(common::envString("CHASON_JOBS"))
    {
        ::setenv("CHASON_JOBS", std::to_string(jobs).c_str(), 1);
    }

    ~ScopedJobs()
    {
        if (wasSet_)
            ::setenv("CHASON_JOBS", previous_.c_str(), 1);
        else
            ::unsetenv("CHASON_JOBS");
    }

    ScopedJobs(const ScopedJobs &) = delete;
    ScopedJobs &operator=(const ScopedJobs &) = delete;

  private:
    bool wasSet_;
    std::string previous_;
};

/** Everything one simulation produces that a fan-out could disturb. */
struct SimOutcome
{
    std::vector<float> y;
    arch::CycleBreakdown cycles;
    std::vector<std::uint64_t> traffic; ///< per channel: 4 counters
    double functionalError = 0.0;
    std::vector<float> engineY; ///< y as the Engine reports it
};

SimOutcome
simulate(const core::Engine &engine, const sched::Schedule &schedule,
         const arch::StreamPlan *plan, const sparse::CsrMatrix &a,
         const std::vector<float> &x, const arch::SpmvParams &params)
{
    const arch::Accelerator &accel = engine.accelerator();
    const arch::RunResult run = plan
        ? accel.run(schedule, *plan, x, params)
        : accel.run(schedule, x, params);
    SimOutcome out;
    out.y = run.y;
    out.cycles = run.cycles;
    for (unsigned ch = 0; ch < run.traffic.channels(); ++ch) {
        const hbm::ChannelCounter &c = run.traffic.channel(ch);
        out.traffic.insert(out.traffic.end(),
                           {c.readBeats(), c.writeBeats(),
                            c.readBytes(), c.writeBytes()});
    }
    const core::SpmvReport report =
        engine.runScheduled(schedule, sched::analyze(schedule), plan, a,
                            x, "", &out.engineY, params);
    out.functionalError = report.functionalError;
    return out;
}

void
expectIdentical(const SimOutcome &want, const SimOutcome &got)
{
    // operator== on the float vectors is the bit check.
    EXPECT_TRUE(want.y == got.y);
    EXPECT_TRUE(want.engineY == got.engineY);
    EXPECT_EQ(want.cycles.matrixStream, got.cycles.matrixStream);
    EXPECT_EQ(want.cycles.xLoad, got.cycles.xLoad);
    EXPECT_EQ(want.cycles.pipelineFill, got.cycles.pipelineFill);
    EXPECT_EQ(want.cycles.reduction, got.cycles.reduction);
    EXPECT_EQ(want.cycles.writeback, got.cycles.writeback);
    EXPECT_EQ(want.cycles.instStream, got.cycles.instStream);
    EXPECT_EQ(want.cycles.launch, got.cycles.launch);
    EXPECT_TRUE(want.traffic == got.traffic);
    // Bitwise, NaN included.
    EXPECT_EQ(std::memcmp(&want.functionalError, &got.functionalError,
                          sizeof(double)),
              0);
}

/** One matrix under one architecture for the jobs-count sweep. */
struct SimCase
{
    std::string name;
    arch::ArchConfig config;
    sparse::CsrMatrix matrix;
};

/** The three tiers, plus a narrow geometry that forces three passes. */
std::vector<SimCase>
simCases()
{
    std::vector<SimCase> cases;
    for (const Tier &tier : kTiers)
        cases.push_back({tier.name, arch::ArchConfig{}, tierMatrix(tier)});
    arch::ArchConfig narrow;
    narrow.sched.channels = 4;
    narrow.sched.pesOverride = 4;
    narrow.sched.windowCols = 128;
    narrow.sched.rowsPerLanePerPass = 64;
    Rng rng = Rng::forStream(0xD373, 99);
    cases.push_back(
        {"multipass", narrow, sparse::erdosRenyi(2200, 500, 8000, rng)});
    return cases;
}

TEST(PerfDeterminism, SimulationIsIdenticalAtEveryJobsCount)
{
    for (const SimCase &c : simCases()) {
        SCOPED_TRACE(c.name);
        const sparse::CsrMatrix &a = c.matrix;
        Rng rng = Rng::forStream(0xD373F00D, a.nnz());
        const std::vector<float> x = sparse::randomVector(a.cols(), rng);
        const std::vector<float> y_in =
            sparse::randomVector(a.rows(), rng);
        arch::SpmvParams params;
        params.alpha = 1.5f;
        params.beta = -0.75f;
        params.yIn = &y_in;
        for (const core::Engine::Kind kind :
             {core::Engine::Kind::Chason, core::Engine::Kind::Serpens}) {
            const core::Engine engine(kind, c.config);
            SCOPED_TRACE(engine.accelerator().name());
            const sched::Schedule schedule = engine.schedule(a);
            std::vector<SimOutcome> baseline;
            for (const unsigned jobs : {1u, 3u, 8u}) {
                SCOPED_TRACE(jobs);
                const ScopedJobs scoped(jobs);
                const arch::StreamPlan plan(
                    schedule, engine.accelerator().migrationDepth());
                const SimOutcome unplanned =
                    simulate(engine, schedule, nullptr, a, x, params);
                const SimOutcome planned =
                    simulate(engine, schedule, &plan, a, x, params);
                expectIdentical(unplanned, planned);
                if (baseline.empty()) {
                    baseline.push_back(unplanned);
                    EXPECT_LE(unplanned.functionalError, 1.0);
                } else {
                    expectIdentical(baseline.front(), unplanned);
                }
            }
        }
    }
}

TEST(PerfDeterminism, BlockedColumnScatterMatchesDirect)
{
    for (const Tier &tier : kTiers) {
        SCOPED_TRACE(tier.name);
        const sparse::CsrMatrix a = tierMatrix(tier);
        const std::vector<std::size_t> col_ptr =
            sparse::columnPointers(a);

        std::vector<std::uint32_t> direct_idx(a.nnz());
        std::vector<float> direct_val(a.nnz());
        // block_cols >= cols forces the direct path.
        sparse::scatterByColumn(a, col_ptr, direct_idx.data(),
                                direct_val.data(), a.cols());

        for (std::uint32_t block_cols : {16u, 64u, 1024u}) {
            std::vector<std::uint32_t> blocked_idx(a.nnz());
            std::vector<float> blocked_val(a.nnz());
            sparse::scatterByColumn(a, col_ptr, blocked_idx.data(),
                                    blocked_val.data(), block_cols);
            EXPECT_TRUE(direct_idx == blocked_idx);
            EXPECT_TRUE(direct_val == blocked_val);
        }

        // And the conversions built on it still round-trip.
        const sparse::CsrMatrix t2 = a.transpose().transpose();
        EXPECT_TRUE(a.rowPtr() == t2.rowPtr());
        EXPECT_TRUE(a.colIdx() == t2.colIdx());
        EXPECT_TRUE(a.values() == t2.values());
        const sparse::CsrMatrix round =
            sparse::CscMatrix::fromCsr(a).toCsr();
        EXPECT_TRUE(a.colIdx() == round.colIdx());
        EXPECT_TRUE(a.values() == round.values());
    }
}

} // namespace
} // namespace chason
