/**
 * @file
 * Tests for the JSON report emitter.
 */

#include "core/report_json.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sparse/generators.h"

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

TEST(ToJson, SpmvReportFields)
{
    Rng rng(1);
    const sparse::CsrMatrix a = sparse::erdosRenyi(32, 64, 256, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const SpmvReport r =
        Engine(Engine::Kind::Chason, smallConfig()).run(a, x, "js\"on");
    const std::string json = toJson(r);

    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"kind\":\"spmv\""), std::string::npos);
    EXPECT_NE(json.find("\"accelerator\":\"chason\""),
              std::string::npos);
    EXPECT_NE(json.find("\"dataset\":\"js\\\"on\""), std::string::npos);
    EXPECT_NE(json.find("\"nnz\":" + std::to_string(a.nnz())),
              std::string::npos);
    EXPECT_NE(json.find("\"per_peg_underutilization\":["),
              std::string::npos);
    // No raw control characters or NaNs.
    EXPECT_EQ(json.find("nan"), std::string::npos);
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(ToJson, CycleBreakdownEmbeddedAndReconciles)
{
    Rng rng(6);
    const sparse::CsrMatrix a = sparse::erdosRenyi(48, 48, 300, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const SpmvReport r =
        Engine(Engine::Kind::Chason, smallConfig()).run(a, x, "bd");
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"cycle_breakdown\":{"), std::string::npos);
    EXPECT_NE(json.find("\"matrix_stream\":" +
                        std::to_string(r.cycleBreakdown.matrixStream)),
              std::string::npos);
    // The embedded total equals the report's top-level cycle count.
    EXPECT_NE(json.find("\"total\":" + std::to_string(r.cycles)),
              std::string::npos);

    const std::string breakdown = toJson(r.cycleBreakdown);
    EXPECT_NE(breakdown.find("\"reduction\":"), std::string::npos);
    EXPECT_NE(breakdown.find("\"launch\":"), std::string::npos);
}

TEST(ToJson, ComparisonNestsBothReports)
{
    Rng rng(2);
    const sparse::CsrMatrix a = sparse::arrowBanded(64, 4, 0.3, 1, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const Comparison cmp = compare(a, x, "cmp", smallConfig());
    const std::string json = toJson(cmp);
    EXPECT_NE(json.find("\"chason\":{"), std::string::npos);
    EXPECT_NE(json.find("\"serpens\":{"), std::string::npos);
    EXPECT_NE(json.find("\"speedup\":"), std::string::npos);
    EXPECT_NE(json.find("\"transfer_reduction\":"), std::string::npos);
}

TEST(ToJson, ScheduleStats)
{
    Rng rng(3);
    const sparse::CsrMatrix a = sparse::erdosRenyi(32, 64, 200, rng);
    Engine engine(Engine::Kind::Serpens, smallConfig());
    const sched::ScheduleStats stats =
        sched::analyze(engine.schedule(a));
    const std::string json = toJson(stats);
    EXPECT_NE(json.find("\"stalls\":"), std::string::npos);
    EXPECT_NE(json.find("\"matrix_bytes\":"), std::string::npos);
}

TEST(ToJson, SpmmReport)
{
    Rng rng(4);
    const sparse::CsrMatrix a = sparse::erdosRenyi(32, 64, 256, rng);
    std::vector<float> b(static_cast<std::size_t>(a.cols()) * 4, 0.5f);
    const SpmmReport r =
        SpmmEngine(Engine::Kind::Chason, SpmmConfig{}, smallConfig())
            .run(a, b, 4);
    const std::string json = toJson(r);
    EXPECT_NE(json.find("\"kind\":\"spmm\""), std::string::npos);
    EXPECT_NE(json.find("\"n_cols\":4"), std::string::npos);
    EXPECT_NE(json.find("\"tiles\":1"), std::string::npos);
}

TEST(ToJson, BalancedBraces)
{
    Rng rng(5);
    const sparse::CsrMatrix a = sparse::erdosRenyi(16, 16, 64, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const Comparison cmp = compare(a, x, "", smallConfig());
    const std::string json = toJson(cmp);
    int depth = 0;
    for (char c : json) {
        if (c == '{')
            ++depth;
        if (c == '}')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

} // namespace
} // namespace core
} // namespace chason
