/**
 * @file
 * Unit and integration tests for the Serpens and Chasoň datapaths.
 */

#include <gtest/gtest.h>

#include <thread>

#include "arch/chason_accel.h"
#include "arch/serpens_accel.h"
#include "arch/stream_soa.h"
#include "common/rng.h"
#include "sched/crhcs.h"
#include "sched/pe_aware.h"
#include "sparse/generators.h"
#include "verify/mutate.h"

namespace chason {
namespace arch {
namespace {

ArchConfig
smallArch(unsigned depth)
{
    ArchConfig cfg;
    cfg.sched.channels = 4;
    cfg.sched.pesOverride = 4;
    cfg.sched.rawDistance = 4;
    cfg.sched.windowCols = 128;
    cfg.sched.rowsPerLanePerPass = 64;
    cfg.sched.migrationDepth = depth;
    return cfg;
}

sparse::CsrMatrix
randomMatrix(std::uint64_t seed, std::uint32_t rows = 100,
             std::uint32_t cols = 300, std::size_t nnz = 1200)
{
    Rng rng(seed);
    return sparse::erdosRenyi(rows, cols, nnz, rng);
}

TEST(Serpens, FunctionallyCorrectOnPeAwareSchedule)
{
    const ArchConfig cfg = smallArch(0);
    const sparse::CsrMatrix a = randomMatrix(1);
    Rng rng(2);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const sched::Schedule sch =
        sched::PeAwareScheduler(cfg.sched).schedule(a);

    const RunResult result = SerpensAccelerator(cfg).run(sch, x);
    const std::vector<double> ref = sparse::spmvReference(a, x);
    EXPECT_LE(sparse::maxRelativeError(result.y, ref), 1.0);
}

TEST(Chason, FunctionallyCorrectOnCrhcsSchedule)
{
    const ArchConfig cfg = smallArch(1);
    const sparse::CsrMatrix a = randomMatrix(3);
    Rng rng(4);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const sched::Schedule sch =
        sched::CrhcsScheduler(cfg.sched).schedule(a);

    const RunResult result = ChasonAccelerator(cfg).run(sch, x);
    const std::vector<double> ref = sparse::spmvReference(a, x);
    EXPECT_LE(sparse::maxRelativeError(result.y, ref), 1.0);
}

TEST(SerpensDeath, RejectsMigratedSchedules)
{
    const ArchConfig cfg = smallArch(1);
    // A matrix that certainly triggers migration: one long row plus
    // neighbour-channel work.
    sparse::CooMatrix coo(64, 128);
    for (std::uint32_t c = 0; c < 64; ++c)
        coo.add(0, c, 1.0f);
    for (std::uint32_t r = 4; r < 8; ++r)
        coo.add(r, r, 1.0f);
    const sparse::CsrMatrix a = coo.toCsr();
    const sched::Schedule sch =
        sched::CrhcsScheduler(cfg.sched).schedule(a);

    ArchConfig serpens_cfg = smallArch(0);
    std::vector<float> x(a.cols(), 1.0f);
    EXPECT_DEATH(SerpensAccelerator(serpens_cfg).run(sch, x),
                 "migrated");
    // A plan makes the same check once, when it is built.
    const unsigned serpens_depth =
        SerpensAccelerator(serpens_cfg).migrationDepth();
    EXPECT_DEATH(StreamPlan(sch, serpens_depth), "migrated");
}

/** A CrHCS schedule with one write moved into another's RAW window. */
sched::Schedule
rawHazardSchedule()
{
    Rng rng(21);
    const sparse::CsrMatrix a =
        sparse::zipfRows(1500, 1500, 12000, 1.25, rng);
    sched::Schedule sch =
        sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a);
    const bool corrupted =
        verify::corruptSchedule(sch, verify::Corruption::kRawDistance);
    chason_assert(corrupted, "no RAW corruption site in the sample");
    return sch;
}

TEST(ChasonDeath, RawHazardPanicsAtPlanBuild)
{
    const sched::Schedule sch = rawHazardSchedule();
    const ChasonAccelerator accel{ArchConfig{}};
    EXPECT_DEATH(StreamPlan(sch, accel.migrationDepth()), "RAW");
}

TEST(ChasonDeath, RawHazardPanicsInUnplannedRun)
{
    const sched::Schedule sch = rawHazardSchedule();
    const ChasonAccelerator accel{ArchConfig{}};
    const std::vector<float> x(sch.cols, 1.0f);
    EXPECT_DEATH(accel.run(sch, x), "RAW");
}

TEST(Chason, ConcurrentReplaysOfOnePlanMatchSequential)
{
    // A StreamPlan is immutable after construction: two threads may
    // replay it at once, each with its own x, while both runs also fan
    // out over the process-wide pool.
    const ArchConfig cfg = smallArch(1);
    Rng rng(22);
    const sparse::CsrMatrix a = sparse::erdosRenyi(2200, 900, 9000, rng);
    const sched::Schedule sch =
        sched::CrhcsScheduler(cfg.sched).schedule(a);
    const ChasonAccelerator accel(cfg);
    const StreamPlan plan(sch, accel.migrationDepth());
    const std::vector<float> x0 = sparse::randomVector(a.cols(), rng);
    const std::vector<float> x1 = sparse::randomVector(a.cols(), rng);
    const RunResult want0 = accel.run(sch, x0);
    const RunResult want1 = accel.run(sch, x1);

    RunResult got0;
    RunResult got1;
    std::thread t0([&] {
        for (int i = 0; i < 4; ++i)
            got0 = accel.run(sch, plan, x0);
    });
    std::thread t1([&] {
        for (int i = 0; i < 4; ++i)
            got1 = accel.run(sch, plan, x1);
    });
    t0.join();
    t1.join();
    EXPECT_TRUE(got0.y == want0.y);
    EXPECT_TRUE(got1.y == want1.y);
    EXPECT_EQ(got0.cycles.total(), want0.cycles.total());
    EXPECT_EQ(got1.cycles.total(), want1.cycles.total());
}

TEST(Chason, RunsSerpensSchedulesToo)
{
    // A pure PE-aware schedule contains no migrated slots; Chasoň's
    // datapath is a superset and must execute it correctly.
    const ArchConfig cfg = smallArch(1);
    const sparse::CsrMatrix a = randomMatrix(5);
    Rng rng(6);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    sched::SchedConfig pe_cfg = cfg.sched;
    pe_cfg.migrationDepth = 0;
    const sched::Schedule sch =
        sched::PeAwareScheduler(pe_cfg).schedule(a);
    const RunResult result = ChasonAccelerator(cfg).run(sch, x);
    const std::vector<double> ref = sparse::spmvReference(a, x);
    EXPECT_LE(sparse::maxRelativeError(result.y, ref), 1.0);
}

TEST(Accelerators, ChasonIsFasterOnStallHeavyMatrix)
{
    const ArchConfig cfg_c = smallArch(1);
    const ArchConfig cfg_s = smallArch(0);
    // Arrowhead structure: dense rows serialize on Serpens.
    Rng rng(7);
    const sparse::CsrMatrix a = sparse::arrowBanded(128, 4, 0.3, 2, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);

    const sched::Schedule pe =
        sched::PeAwareScheduler(cfg_s.sched).schedule(a);
    const sched::Schedule cr =
        sched::CrhcsScheduler(cfg_c.sched).schedule(a);

    const RunResult serpens = SerpensAccelerator(cfg_s).run(pe, x);
    const RunResult chason = ChasonAccelerator(cfg_c).run(cr, x);
    EXPECT_LT(chason.latencyUs, serpens.latencyUs);
    // And it moves less matrix data (fewer padded beats).
    std::uint64_t serpens_matrix = 0, chason_matrix = 0;
    for (unsigned ch = 0; ch < cfg_s.sched.channels; ++ch) {
        serpens_matrix += serpens.traffic.channel(ch).readBytes();
        chason_matrix += chason.traffic.channel(ch).readBytes();
    }
    EXPECT_LT(chason_matrix, serpens_matrix);
}

TEST(Accelerators, CycleBreakdownIsConsistent)
{
    const ArchConfig cfg = smallArch(1);
    const sparse::CsrMatrix a = randomMatrix(8);
    Rng rng(9);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const sched::Schedule sch =
        sched::CrhcsScheduler(cfg.sched).schedule(a);
    const RunResult r = ChasonAccelerator(cfg).run(sch, x);
    EXPECT_GT(r.cycles.matrixStream, 0u);
    EXPECT_GT(r.cycles.xLoad, 0u);
    EXPECT_GT(r.cycles.reduction, 0u);
    EXPECT_GT(r.cycles.writeback, 0u);
    EXPECT_EQ(r.cycles.total(),
              r.cycles.matrixStream + r.cycles.xLoad +
                  r.cycles.pipelineFill + r.cycles.reduction +
                  r.cycles.writeback + r.cycles.instStream +
                  r.cycles.launch);
    EXPECT_GT(r.latencyUs, 0.0);
    EXPECT_GE(r.memStallFactor, 1.0);
}

TEST(Accelerators, SerpensHasNoReductionCycles)
{
    const ArchConfig cfg = smallArch(0);
    const sparse::CsrMatrix a = randomMatrix(10);
    Rng rng(11);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const sched::Schedule sch =
        sched::PeAwareScheduler(cfg.sched).schedule(a);
    const RunResult r = SerpensAccelerator(cfg).run(sch, x);
    EXPECT_EQ(r.cycles.reduction, 0u);
}

TEST(Accelerators, MultiPassMatrixIsCorrect)
{
    // 4 x 4 lanes x 64 rows per lane = 1024 rows per pass; 2200 rows
    // forces three passes.
    const ArchConfig cfg = smallArch(1);
    Rng rng(12);
    const sparse::CsrMatrix a = sparse::erdosRenyi(2200, 500, 8000, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const sched::Schedule sch =
        sched::CrhcsScheduler(cfg.sched).schedule(a);
    EXPECT_GT(sch.passes(), 1u);
    const RunResult r = ChasonAccelerator(cfg).run(sch, x);
    const std::vector<double> ref = sparse::spmvReference(a, x);
    EXPECT_LE(sparse::maxRelativeError(r.y, ref), 1.0);
}

TEST(Accelerators, MultiWindowMatrixIsCorrect)
{
    const ArchConfig cfg = smallArch(1);
    Rng rng(13);
    const sparse::CsrMatrix a = sparse::erdosRenyi(100, 1000, 6000, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const sched::Schedule sch =
        sched::CrhcsScheduler(cfg.sched).schedule(a);
    EXPECT_GT(sch.windowsPerPass(), 1u);
    const RunResult r = ChasonAccelerator(cfg).run(sch, x);
    const std::vector<double> ref = sparse::spmvReference(a, x);
    EXPECT_LE(sparse::maxRelativeError(r.y, ref), 1.0);
}

TEST(Accelerators, TrafficRolesAreSeparated)
{
    const ArchConfig cfg = smallArch(1);
    const sparse::CsrMatrix a = randomMatrix(14);
    Rng rng(15);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const sched::Schedule sch =
        sched::CrhcsScheduler(cfg.sched).schedule(a);
    const RunResult r = ChasonAccelerator(cfg).run(sch, x);
    // x channel read-only; y channel write-only (beta = 0); inst
    // channel tiny.
    EXPECT_GT(r.traffic.channel(cfg.xChannel()).readBytes(), 0u);
    EXPECT_EQ(r.traffic.channel(cfg.xChannel()).writeBytes(), 0u);
    EXPECT_GT(r.traffic.channel(cfg.yChannel()).writeBytes(), 0u);
    EXPECT_EQ(r.traffic.channel(cfg.yChannel()).readBytes(), 0u);
    EXPECT_EQ(r.traffic.channel(cfg.instChannel()).readBeats(),
              sch.phases.size());
}

TEST(Accelerators, FrequenciesMatchPaper)
{
    EXPECT_NEAR(ChasonAccelerator(smallArch(1)).frequencyMhz(), 301.0,
                0.5);
    EXPECT_NEAR(SerpensAccelerator(smallArch(0)).frequencyMhz(), 223.0,
                0.5);
}

} // namespace
} // namespace arch
} // namespace chason
