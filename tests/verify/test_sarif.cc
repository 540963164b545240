/**
 * @file
 * Tests for the SARIF 2.1.0 exporter: document structure, rule catalog
 * embedding and result attribution, asserted on the parsed document
 * (common::parseJson), so the layout's whitespace is free to change.
 * run_all.sh additionally validates emitted files with python3's json
 * module when available.
 */

#include "verify/sarif.h"

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "sched/crhcs.h"
#include "sparse/generators.h"
#include "verify/mutate.h"
#include "verify/rules.h"

namespace chason {
namespace verify {
namespace {

using common::JsonValue;

/** @p json parsed; an unparsable document fails the test. */
JsonValue
parsed(const std::string &json)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(common::parseJson(json, doc, error)) << error;
    return doc;
}

/** The string at @p key of @p object, or "" when absent. */
std::string
text(const JsonValue *object, const std::string &key)
{
    std::string out;
    if (object != nullptr)
        object->getString(key, out);
    return out;
}

/** runs[0] of a parsed document (an empty object when absent). */
const JsonValue &
firstRun(const JsonValue &doc)
{
    static const JsonValue kNone;
    const JsonValue *runs = doc.find("runs");
    return runs != nullptr && !runs->items.empty() ? runs->items[0]
                                                   : kNone;
}

const JsonValue *
driverOf(const JsonValue &run)
{
    const JsonValue *tool = run.find("tool");
    return tool != nullptr ? tool->find("driver") : nullptr;
}

VerifyResult
corruptedResult(const sparse::CsrMatrix &a, Corruption kind)
{
    sched::Schedule sch =
        sched::CrhcsScheduler(sched::SchedConfig{}).schedule(a);
    corruptSchedule(sch, kind);
    VerifyOptions options;
    options.matrix = &a;
    return verifySchedule(sch, options);
}

TEST(Sarif, EmptyLogIsAWellFormedDocument)
{
    const SarifLog log;
    const JsonValue doc = parsed(log.toJson());
    EXPECT_EQ(text(&doc, "version"), "2.1.0");
    EXPECT_NE(text(&doc, "$schema").find("sarif-2.1.0.json"),
              std::string::npos);
    const JsonValue &run = firstRun(doc);
    EXPECT_EQ(text(driverOf(run), "name"), "chason_verify");
    const JsonValue *results = run.find("results");
    ASSERT_NE(results, nullptr);
    EXPECT_TRUE(results->isArray());
    EXPECT_TRUE(results->items.empty());
}

TEST(Sarif, EmbedsTheFullRuleCatalog)
{
    const SarifLog log;
    const JsonValue doc = parsed(log.toJson());
    const JsonValue *driver = driverOf(firstRun(doc));
    ASSERT_NE(driver, nullptr);
    const JsonValue *table = driver->find("rules");
    ASSERT_NE(table, nullptr);
    std::size_t count = 0;
    const RuleInfo *rules = ruleCatalog(&count);
    ASSERT_EQ(table->items.size(), count);
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(text(&table->items[i], "id"), rules[i].id);
}

TEST(Sarif, ResultsCarryRuleLevelAndLocations)
{
    Rng rng(11);
    const sparse::CsrMatrix a =
        sparse::zipfRows(1500, 1500, 12000, 1.25, rng);
    const VerifyResult result =
        corruptedResult(a, Corruption::kRawDistance);
    ASSERT_FALSE(result.clean());

    SarifLog log;
    log.addResult(result, "schedules/test.crhcs.sched");
    EXPECT_EQ(log.size(), result.diagnostics.size());

    const JsonValue doc = parsed(log.toJson());
    const JsonValue *results = firstRun(doc).find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->items.size(), result.diagnostics.size());
    bool sawChv004 = false;
    for (const JsonValue &r : results->items) {
        if (text(&r, "ruleId") != "CHV004")
            continue;
        sawChv004 = true;
        EXPECT_EQ(text(&r, "level"), "error");
        // ruleIndex must reference the catalog position of CHV004 (3).
        std::uint64_t index = 0;
        EXPECT_TRUE(r.getUint("ruleIndex", index));
        EXPECT_EQ(index, 3u);
        const JsonValue *locations = r.find("locations");
        ASSERT_NE(locations, nullptr);
        ASSERT_EQ(locations->items.size(), 1u);
        const JsonValue &location = locations->items[0];
        const JsonValue *physical = location.find("physicalLocation");
        ASSERT_NE(physical, nullptr);
        EXPECT_EQ(text(physical->find("artifactLocation"), "uri"),
                  "schedules/test.crhcs.sched");
        const JsonValue *logical = location.find("logicalLocations");
        ASSERT_NE(logical, nullptr);
        ASSERT_EQ(logical->items.size(), 1u);
        EXPECT_FALSE(
            text(&logical->items[0], "fullyQualifiedName").empty());
    }
    EXPECT_TRUE(sawChv004);
}

TEST(Sarif, AggregatesSeveralArtifactsIntoOneRun)
{
    Rng rng(12);
    const sparse::CsrMatrix a =
        sparse::zipfRows(1500, 1500, 12000, 1.25, rng);

    SarifLog log;
    log.addResult(corruptedResult(a, Corruption::kValueTamper),
                  "schedules/one.sched");
    log.addResult(corruptedResult(a, Corruption::kDropElement),
                  "schedules/two.sched");
    ASSERT_GE(log.size(), 2u);

    const std::string json = log.toJson();
    EXPECT_NE(json.find("schedules/one.sched"), std::string::npos);
    EXPECT_NE(json.find("schedules/two.sched"), std::string::npos);
    // Exactly one run aggregates everything.
    const JsonValue doc = parsed(json);
    const JsonValue *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    EXPECT_EQ(runs->items.size(), 1u);
}

TEST(Sarif, ArtifactUriSpacesAreEscaped)
{
    Rng rng(13);
    const sparse::CsrMatrix a =
        sparse::zipfRows(1500, 1500, 12000, 1.25, rng);
    SarifLog log;
    log.addResult(corruptedResult(a, Corruption::kValueTamper),
                  "my schedules/a b.sched");
    const std::string json = log.toJson();
    EXPECT_NE(json.find("my%20schedules/a%20b.sched"), std::string::npos);
    EXPECT_EQ(json.find("my schedules"), std::string::npos);
}

} // namespace
} // namespace verify
} // namespace chason
