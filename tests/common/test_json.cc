/**
 * @file
 * Tests for common/json: the writer's contract (escaping, numbers,
 * nesting, layouts) and its round trip through the parser, then every
 * emitter in the repository, each of which must produce a document
 * parseJson accepts — including the inputs that once broke the
 * daemon's result line (a long path, a NaN functional error).
 */

#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/rng.h"
#include "core/report_json.h"
#include "perf_emit.h"
#include "serve/daemon.h"
#include "serve/net.h"
#include "serve/protocol.h"
#include "sparse/generators.h"
#include "trace/chrome_export.h"
#include "verify/sarif.h"

namespace chason {
namespace common {
namespace {

/** @p json parsed; an unparsable document fails the test. */
JsonValue
parsed(const std::string &json)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(parseJson(json, doc, error)) << error << "\n" << json;
    return doc;
}

std::string
written(double number)
{
    JsonWriter out;
    out.value(number);
    return out.str();
}

std::string
written(std::string_view text)
{
    JsonWriter out;
    out.value(text);
    return out.str();
}

// ---- writer contract ----------------------------------------------

TEST(JsonWriter, EscapesQuoteBackslashAndEveryControlByte)
{
    EXPECT_EQ(written("plain"), "\"plain\"");
    EXPECT_EQ(written("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(written("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(written("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
    EXPECT_EQ(written(std::string(1, '\x01')), "\"\\u0001\"");
    EXPECT_EQ(written(std::string(1, '\x1f')), "\"\\u001f\"");
    EXPECT_EQ(written(std::string_view("\0", 1)), "\"\\u0000\"");

    std::string all = "\"\\";
    for (int c = 0; c < 0x20; ++c)
        all += static_cast<char>(c);
    all += "tail \xc3\xa9"; // bytes >= 0x20 (UTF-8 included) pass as is
    const std::string json = written(all);
    for (std::size_t i = 0; i < json.size(); ++i)
        EXPECT_GE(static_cast<unsigned char>(json[i]), 0x20u) << i;
    const JsonValue back = parsed(json);
    ASSERT_TRUE(back.isString());
    EXPECT_EQ(back.text, all);
}

TEST(JsonWriter, NonFiniteNumbersBecomeNull)
{
    EXPECT_EQ(written(std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(written(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(written(-std::numeric_limits<double>::infinity()), "null");

    JsonWriter out;
    out.object([&] {
        out.field("nan", std::nan(""))
            .field("ys", std::vector<double>{
                             1.0, std::numeric_limits<double>::infinity()});
    });
    EXPECT_EQ(out.str(), "{\"nan\":null,\"ys\":[1,null]}");
    EXPECT_TRUE(parsed(out.str()).find("nan")->isNull());
}

TEST(JsonWriter, IntegersAreExact)
{
    JsonWriter out;
    out.beginArray()
        .value(std::numeric_limits<std::uint64_t>::max())
        .value(std::numeric_limits<std::int64_t>::min())
        .value((std::uint64_t{1} << 53) + 1)
        .value(0u)
        .value(-7)
        .endArray();
    EXPECT_EQ(out.str(), "[18446744073709551615,-9223372036854775808,"
                         "9007199254740993,0,-7]");
}

TEST(JsonWriter, DoublesAreShortestAndRoundTrip)
{
    EXPECT_EQ(written(0.1), "0.1");
    EXPECT_EQ(written(1.5), "1.5");
    EXPECT_EQ(written(100.0), "100");
    EXPECT_EQ(written(-0.0), "-0");

    const double samples[] = {
        0.1,     1.0 / 3.0, 2.0 / 3.0, 1e-300, 1e300, 5e-324,
        -0.0,    123456789.123456789,  6.02214076e23,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::epsilon(),
    };
    for (const double v : samples) {
        const JsonValue back = parsed(written(v));
        ASSERT_TRUE(back.isNumber()) << v;
        EXPECT_EQ(std::memcmp(&back.number, &v, sizeof(v)), 0)
            << written(v);
    }
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t bits = rng.next();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        if (!std::isfinite(v))
            continue;
        const JsonValue back = parsed(written(v));
        EXPECT_EQ(std::memcmp(&back.number, &v, sizeof(v)), 0)
            << written(v);
    }
}

TEST(JsonWriter, NestingAndCommasCompact)
{
    JsonWriter out;
    out.object([&] {
        out.field("a", 1).field("b", "x");
        out.object("empty", [] {});
        out.array("none", [] {});
        out.array("list", [&] {
            out.value(true).value(false).null();
            out.object([&] { out.field("k", 2.5); });
            out.beginArray().value(1).value(2).endArray();
        });
        out.object("nested",
                   [&] { out.object("deeper", [&] { out.field("z", 0); }); });
    });
    EXPECT_EQ(out.str(),
              "{\"a\":1,\"b\":\"x\",\"empty\":{},\"none\":[],"
              "\"list\":[true,false,null,{\"k\":2.5},[1,2]],"
              "\"nested\":{\"deeper\":{\"z\":0}}}");
}

TEST(JsonWriter, MultiLineLayoutIndentsTwoSpaces)
{
    JsonWriter out(JsonWriter::Layout::MultiLine);
    out.object([&] {
        out.field("name", "run");
        out.array("items", [&] {
            out.object([&] { out.field("id", 1); });
            out.value(2);
        });
        out.object("empty", [] {});
    });
    EXPECT_EQ(out.str(), "{\n"
                         "  \"name\": \"run\",\n"
                         "  \"items\": [\n"
                         "    {\n"
                         "      \"id\": 1\n"
                         "    },\n"
                         "    2\n"
                         "  ],\n"
                         "  \"empty\": {}\n"
                         "}");
}

TEST(JsonWriter, ParseOfWriteRoundTrips)
{
    std::string weird = "k\"\\\n";
    weird += '\x02';
    JsonWriter out(JsonWriter::Layout::MultiLine);
    out.object([&] {
        out.field(weird, weird)
            .field("u", std::uint64_t{9007199254740992})
            .field("d", 0.30000000000000004)
            .field("b", true);
        out.array("a", [&] { out.value("x").null().value(-1.25); });
    });
    const JsonValue doc = parsed(out.str());
    ASSERT_TRUE(doc.isObject());
    ASSERT_EQ(doc.members.size(), 5u);
    EXPECT_EQ(doc.members[0].first, weird);
    EXPECT_EQ(doc.members[0].second.text, weird);
    std::uint64_t u = 0;
    EXPECT_TRUE(doc.getUint("u", u));
    EXPECT_EQ(u, 9007199254740992u);
    EXPECT_EQ(doc.find("d")->number, 0.30000000000000004);
    EXPECT_TRUE(doc.find("b")->boolean);
    const JsonValue *a = doc.find("a");
    ASSERT_EQ(a->items.size(), 3u);
    EXPECT_EQ(a->items[0].text, "x");
    EXPECT_TRUE(a->items[1].isNull());
    EXPECT_EQ(a->items[2].number, -1.25);

    // Compact and multi-line layouts carry the same document.
    JsonWriter compact;
    compact.object([&] { compact.field(weird, weird); });
    EXPECT_EQ(compact.str().find('\n'), std::string::npos);
    EXPECT_EQ(parsed(compact.str()).members[0].second.text, weird);
}

TEST(JsonWriterDeathTest, MisuseIsAProgrammerError)
{
    EXPECT_DEATH(
        {
            JsonWriter out;
            out.beginObject().value(1);
        },
        "without a key");
    EXPECT_DEATH(
        {
            JsonWriter out;
            out.beginArray().endObject();
        },
        "unbalanced");
}

// ---- every emitter parses -----------------------------------------

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

TEST(EveryEmitterParses, ReportToJsonOverloads)
{
    Rng rng(3);
    const sparse::CsrMatrix a = sparse::erdosRenyi(32, 64, 256, rng);
    const std::vector<float> x = sparse::randomVector(a.cols(), rng);
    const core::Engine engine(core::Engine::Kind::Chason, smallConfig());
    core::SpmvReport spmv = engine.run(a, x, "q\"uote\\\n\x01");
    spmv.functionalError = std::nan("");

    const JsonValue report = parsed(core::toJson(spmv));
    EXPECT_EQ(report.find("dataset")->text, spmv.dataset);
    EXPECT_TRUE(report.find("functional_error")->isNull());
    std::uint64_t cycles = 0;
    EXPECT_TRUE(report.getUint("cycles", cycles));
    EXPECT_EQ(cycles, spmv.cycles);

    parsed(core::toJson(spmv.cycleBreakdown));
    parsed(core::toJson(sched::analyze(engine.schedule(a))));
    parsed(core::toJson(core::compare(a, x, "cmp", smallConfig())));

    std::vector<float> b(static_cast<std::size_t>(a.cols()) * 4, 0.5f);
    parsed(core::toJson(
        core::SpmmEngine(core::Engine::Kind::Chason, core::SpmmConfig{},
                         smallConfig())
            .run(a, b, 4)));

    core::ScheduleCacheStats cache;
    cache.diskHits = 3;
    cache.diskMisses = 1;
    const JsonValue stats = parsed(core::toJson(cache));
    EXPECT_EQ(stats.find("disk_hit_rate")->number, 0.75);
    EXPECT_EQ(stats.find("hit_rate")->number, 0.0);
}

TEST(EveryEmitterParses, ChromeTraceAndCounters)
{
    trace::TraceSink sink;
    trace::SpanEvent span;
    span.name = "odd \"span\"\\\n\x02";
    span.device = true;
    span.begin = 1e12 + 0.5; // beyond %.9g's precision
    span.dur = 3.0;
    span.argName0 = "beats";
    span.argVal0 = std::numeric_limits<std::uint64_t>::max();
    sink.recordSpan(span);
    sink.addCounter("odd\tcounter", 3);

    const JsonValue traceDoc = parsed(trace::chromeTraceJson(sink));
    bool found = false;
    for (const JsonValue &event : traceDoc.find("traceEvents")->items) {
        if (event.find("name")->text != span.name)
            continue;
        found = true;
        EXPECT_EQ(event.find("ts")->number, span.begin);
    }
    EXPECT_TRUE(found);

    const JsonValue counters = parsed(trace::countersJson(sink));
    EXPECT_NE(counters.find("counters")->find("odd\tcounter"), nullptr);
}

TEST(EveryEmitterParses, SarifDocument)
{
    verify::SarifRun run;
    run.toolName = "tool \"x\"";
    run.addRule({"CHL001", "Name", "short\nsummary", "", "error"});
    verify::SarifFinding f;
    f.ruleId = "CHL001";
    f.message = "msg with \"quotes\", \\ and \x03";
    f.uri = "dir with space/file.cc";
    f.line = 4;
    f.column = 2;
    f.fingerprint = verify::lintFingerprint(f.ruleId, f.uri, f.message);
    run.results.push_back(f);
    verify::SarifDocument doc;
    doc.addRun(run);

    const std::string json = doc.toJson();
    const JsonValue sarif = parsed(json);
    const JsonValue &result =
        sarif.find("runs")->items.at(0).find("results")->items.at(0);
    EXPECT_EQ(result.find("message")->find("text")->text, f.message);
    EXPECT_EQ(verify::sarifFingerprints(json),
              std::vector<std::string>{f.fingerprint});
}

TEST(EveryEmitterParses, DaemonStatsAndResponses)
{
    serve::DaemonOptions options;
    options.socketPath = ::testing::TempDir() + "chason_json_stats.sock";
    options.workers = 1;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // A tenant name that needs escaping reaches the stats document.
    const std::string tenant = "te\"n\\ant\x01";
    JsonWriter request;
    request.object([&] {
        request.field("id", 1).field("tenant", tenant);
        request.object("rmat", [&] {
            request.field("scale", 7).field("edges", 1500).field("seed",
                                                                  11);
        });
    });
    const int fd = serve::connectUnixSocket(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(serve::sendAll(fd, request.str() + "\n"));
    serve::LineReader reader(fd);
    std::string line;
    ASSERT_TRUE(reader.readLine(line));
    EXPECT_TRUE(parsed(line).find("ok")->boolean) << line;
    ::close(fd);

    const JsonValue stats = parsed(daemon.statsJson());
    EXPECT_NE(stats.find("tenants")->find(tenant), nullptr);
    EXPECT_NE(stats.find("cache")->find("disk_hit_rate"), nullptr);
    daemon.shutdown();

    const JsonValue bad = parsed(serve::errorResponse(
        false, 0, serve::kErrBadRequest, "bad \"byte\" \x04 here"));
    EXPECT_TRUE(bad.find("id")->isNull());
    EXPECT_EQ(bad.find("detail")->text, "bad \"byte\" \x04 here");
}

TEST(EveryEmitterParses, ResultLineWithLongPathAndNanError)
{
    serve::Request request;
    request.id = 42;
    request.source = serve::Request::Source::Path;
    request.path = "/" + std::string(599, 'p');
    core::SpmvReport report;
    report.dataset = request.matrixKey();
    report.accelerator = "chason";
    report.functionalError = std::nan("");
    report.latencyMs = 0.1;

    const std::string line = serve::resultResponse(
        request, report, 0x0123456789abcdefull, 1.25);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    const JsonValue result = parsed(line);
    EXPECT_EQ(result.find("dataset")->text, report.dataset);
    EXPECT_TRUE(result.find("functional_error")->isNull());
    EXPECT_EQ(result.find("ydigest")->text, "0123456789abcdef");
    EXPECT_EQ(result.find("latency_ms")->number, 0.1);
    EXPECT_EQ(result.find("service_ms")->number, 1.25);
}

TEST(EveryEmitterParses, PerfReport)
{
    bench::PerfSample measured;
    measured.tier = "small";
    measured.rows = 16;
    measured.cols = 16;
    measured.nnz = 100;
    measured.medianMs = 1.5;
    measured.throughputPerS = 2e6;
    measured.checksum = 9007199254740991.0;
    measured.cycles = 77;
    bench::PerfSample batch;
    batch.tier = "jobs1";
    batch.checksum = 46441472.0;
    batch.jobsCount = 1;
    batch.scalingEfficiency = 1.0;

    const std::string path = ::testing::TempDir() + "chason_perf.json";
    bench::writePerfJson(path, "sched", "nnz_per_s", {measured, batch});
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    const JsonValue doc = parsed(text.str());
    EXPECT_EQ(doc.find("bench")->text, "sched");
    const JsonValue *tiers = doc.find("tiers");
    ASSERT_EQ(tiers->items.size(), 2u);
    EXPECT_EQ(tiers->items[0].find("checksum")->number,
              measured.checksum);
    EXPECT_EQ(tiers->items[0].find("rows")->number, 16.0);
    EXPECT_EQ(tiers->items[0].find("cycles")->number, 77.0);
    // Unmeasured optional fields are left out, rows/cols included.
    EXPECT_EQ(tiers->items[1].find("rows"), nullptr);
    EXPECT_EQ(tiers->items[1].find("cols"), nullptr);
    EXPECT_EQ(tiers->items[1].find("cycles"), nullptr);
    EXPECT_EQ(tiers->items[1].find("jobs")->number, 1.0);
}

} // namespace
} // namespace common
} // namespace chason
