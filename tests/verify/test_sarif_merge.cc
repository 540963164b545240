/**
 * @file
 * Tests for the multi-run SARIF layer underneath chason_lint: run
 * merging into one document, stable rule de-duplication, tool
 * metadata (semanticVersion + properties.revision), fingerprint
 * stability and extraction, and the baseline diff semantics the
 * ratchet is built on (new-finding detection, shrink-only updates).
 * Document assertions parse the SARIF text (common::parseJson) like
 * test_sarif.cc; run_all.sh additionally validates emitted files with
 * python3's json module.
 */

#include "verify/sarif.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"

namespace chason {
namespace verify {
namespace {

std::size_t
countOf(const std::string &haystack, const std::string &needle)
{
    std::size_t count = 0;
    std::size_t pos = 0;
    while ((pos = haystack.find(needle, pos)) != std::string::npos) {
        ++count;
        pos += needle.size();
    }
    return count;
}

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

/** runs[@p i].tool.driver, or null. */
const JsonValue *
driverOf(const JsonValue &doc, std::size_t i)
{
    const JsonValue *runs = doc.find("runs");
    if (runs == nullptr || i >= runs->items.size())
        return nullptr;
    const JsonValue *tool = runs->items[i].find("tool");
    return tool != nullptr ? tool->find("driver") : nullptr;
}

/** runs[@p i].results[@p j], or null. */
const JsonValue *
resultOf(const JsonValue &doc, std::size_t i, std::size_t j)
{
    const JsonValue *runs = doc.find("runs");
    if (runs == nullptr || i >= runs->items.size())
        return nullptr;
    const JsonValue *results = runs->items[i].find("results");
    return results != nullptr && j < results->items.size()
        ? &results->items[j]
        : nullptr;
}

SarifRun
lintRun(const std::string &tool,
        const std::vector<SarifFinding> &findings)
{
    SarifRun run;
    run.toolName = tool;
    run.toolVersion = "1.0.0";
    run.semanticVersion = "1.0.0";
    run.informationUri = "https://github.com/chason-sim/chason";
    run.revision = "abc1234";
    run.addRule({"CHL001", "UnbalancedTraceSpan", "span dies at once",
                 "", "error"});
    run.addRule({"CHL002", "HotLoopAllocation", "growth in hot loop",
                 "", "error"});
    run.results = findings;
    return run;
}

SarifFinding
finding(const std::string &rule, const std::string &uri,
        const std::string &message, int line)
{
    SarifFinding f;
    f.ruleId = rule;
    f.level = "error";
    f.message = message;
    f.uri = uri;
    f.line = line;
    f.fingerprint = lintFingerprint(rule, uri, message);
    return f;
}

TEST(SarifMerge, TwoRunsShareOneRunsArray)
{
    SarifDocument doc;
    doc.addRun(lintRun("chason_lint",
                       {finding("CHL001", "a.cc", "m1", 4)}));
    doc.addRun(lintRun("clang-tidy",
                       {finding("CHL002", "b.cc", "m2", 9)}));
    ASSERT_EQ(doc.runCount(), 2u);
    EXPECT_EQ(doc.resultCount(), 2u);

    const std::string json = doc.toJson();
    // One document, one "runs" key, both drivers inside it.
    EXPECT_EQ(countOf(json, "\"runs\""), 1u);
    const JsonValue parsedDoc = parsed(json);
    EXPECT_EQ(parsedDoc.find("runs")->items.size(), 2u);
    EXPECT_EQ(text(driverOf(parsedDoc, 0), "name"), "chason_lint");
    EXPECT_EQ(text(driverOf(parsedDoc, 1), "name"), "clang-tidy");
    EXPECT_EQ(text(resultOf(parsedDoc, 0, 0), "ruleId"), "CHL001");
    EXPECT_EQ(text(resultOf(parsedDoc, 1, 0), "ruleId"), "CHL002");
}

TEST(SarifMerge, RuleDeDupIsStable)
{
    SarifRun run;
    const int a = run.addRule({"CHL001", "A", "first", "", "error"});
    const int b = run.addRule({"CHL002", "B", "second", "", "error"});
    // Re-adding an id returns the original index and does not grow
    // the table — results referencing it keep a stable ruleIndex.
    const int a2 = run.addRule({"CHL001", "A", "changed text", "",
                                "warning"});
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
    EXPECT_EQ(a2, a);
    EXPECT_EQ(run.rules.size(), 2u);
    EXPECT_EQ(run.ruleIndexOf("CHL002"), 1);
    EXPECT_EQ(run.ruleIndexOf("CHL999"), -1);
}

TEST(SarifMerge, ResultsReferenceTheirRuleIndex)
{
    SarifDocument doc;
    doc.addRun(lintRun("chason_lint",
                       {finding("CHL002", "x.cc", "grew", 3)}));
    const JsonValue parsedDoc = parsed(doc.toJson());
    const JsonValue *result = resultOf(parsedDoc, 0, 0);
    ASSERT_NE(result, nullptr);
    // CHL002 is the second rule of the run's table.
    std::uint64_t index = 0;
    EXPECT_TRUE(result->getUint("ruleIndex", index));
    EXPECT_EQ(index, 1u);
    const JsonValue *region = result->find("locations")
                                  ->items.at(0)
                                  .find("physicalLocation")
                                  ->find("region");
    ASSERT_NE(region, nullptr);
    ASSERT_EQ(region->members.size(), 1u); // no column: no startColumn
    std::uint64_t line = 0;
    EXPECT_TRUE(region->getUint("startLine", line));
    EXPECT_EQ(line, 3u);
}

TEST(SarifMerge, ToolMetadataIsEmittedPerRun)
{
    SarifDocument doc;
    doc.addRun(lintRun("chason_lint", {}));
    const JsonValue parsedDoc = parsed(doc.toJson());
    const JsonValue *driver = driverOf(parsedDoc, 0);
    ASSERT_NE(driver, nullptr);
    EXPECT_EQ(text(driver, "semanticVersion"), "1.0.0");
    EXPECT_EQ(text(driver->find("properties"), "revision"), "abc1234");
    EXPECT_FALSE(text(driver, "informationUri").empty());
}

TEST(SarifMerge, VerifyFacadeCarriesMetadataToo)
{
    const SarifLog log;
    const JsonValue parsedDoc = parsed(log.toJson());
    const JsonValue *driver = driverOf(parsedDoc, 0);
    ASSERT_NE(driver, nullptr);
    EXPECT_EQ(text(driver, "name"), "chason_verify");
    EXPECT_FALSE(text(driver, "semanticVersion").empty());
    // The revision value depends on the checkout; only its presence
    // as a string is asserted.
    const JsonValue *properties = driver->find("properties");
    ASSERT_NE(properties, nullptr);
    ASSERT_NE(properties->find("revision"), nullptr);
    EXPECT_TRUE(properties->find("revision")->isString());
}

TEST(SarifMerge, FingerprintIsStableAndLineFree)
{
    const std::string fp1 = lintFingerprint("CHL001", "a.cc", "msg");
    const std::string fp2 = lintFingerprint("CHL001", "a.cc", "msg");
    EXPECT_EQ(fp1, fp2);
    EXPECT_EQ(fp1.size(), 16u);
    // Identity excludes the line on purpose: two findings differing
    // only by position hash identically, so unrelated edits that shift
    // code do not churn the baseline...
    SarifFinding at_4 = finding("CHL001", "a.cc", "msg", 4);
    SarifFinding at_90 = finding("CHL001", "a.cc", "msg", 90);
    EXPECT_EQ(at_4.fingerprint, at_90.fingerprint);
    // ...but any of rule, file or message changes the identity.
    EXPECT_NE(fp1, lintFingerprint("CHL002", "a.cc", "msg"));
    EXPECT_NE(fp1, lintFingerprint("CHL001", "b.cc", "msg"));
    EXPECT_NE(fp1, lintFingerprint("CHL001", "a.cc", "other"));
}

TEST(SarifMerge, FingerprintsRoundTripThroughTheDocument)
{
    SarifDocument doc;
    doc.addRun(lintRun("chason_lint",
                       {finding("CHL001", "a.cc", "one", 1),
                        finding("CHL002", "a.cc", "two", 2)}));
    doc.addRun(lintRun("clang-tidy",
                       {finding("CHL002", "b.cc", "three", 3)}));
    const std::vector<std::string> fps =
        sarifFingerprints(doc.toJson());
    ASSERT_EQ(fps.size(), 3u);
    EXPECT_EQ(fps[0], lintFingerprint("CHL001", "a.cc", "one"));
    EXPECT_EQ(fps[1], lintFingerprint("CHL002", "a.cc", "two"));
    EXPECT_EQ(fps[2], lintFingerprint("CHL002", "b.cc", "three"));
    // A finding without a fingerprint emits no partialFingerprints.
    SarifFinding bare;
    bare.ruleId = "CHL001";
    bare.message = "no fp";
    bare.uri = "c.cc";
    SarifDocument doc2;
    doc2.addRun(lintRun("chason_lint", {bare}));
    EXPECT_TRUE(sarifFingerprints(doc2.toJson()).empty());
}

/** The ratchet's set algebra, exactly as chason_lint computes it. */
struct BaselineDiff
{
    std::size_t fresh = 0;
    std::size_t stale = 0;
};

BaselineDiff
diffAgainstBaseline(const std::string &currentJson,
                    const std::string &baselineJson)
{
    const auto cur_v = sarifFingerprints(currentJson);
    const auto base_v = sarifFingerprints(baselineJson);
    const std::set<std::string> cur(cur_v.begin(), cur_v.end());
    const std::set<std::string> base(base_v.begin(), base_v.end());
    BaselineDiff d;
    for (const std::string &fp : cur)
        d.fresh += base.count(fp) == 0 ? 1 : 0;
    for (const std::string &fp : base)
        d.stale += cur.count(fp) == 0 ? 1 : 0;
    return d;
}

TEST(SarifMerge, NewFindingIsDetectedAgainstTheBaseline)
{
    SarifDocument baseline;
    baseline.addRun(lintRun("chason_lint",
                            {finding("CHL001", "a.cc", "old", 1)}));
    SarifDocument current;
    current.addRun(lintRun("chason_lint",
                           {finding("CHL001", "a.cc", "old", 1),
                            finding("CHL002", "b.cc", "new", 2)}));
    const BaselineDiff d =
        diffAgainstBaseline(current.toJson(), baseline.toJson());
    EXPECT_EQ(d.fresh, 1u);
    EXPECT_EQ(d.stale, 0u);
}

TEST(SarifMerge, RatchetShrinkLeavesNoNewFindings)
{
    SarifDocument baseline;
    baseline.addRun(lintRun("chason_lint",
                            {finding("CHL001", "a.cc", "old", 1),
                             finding("CHL002", "b.cc", "fixed", 2)}));
    SarifDocument current;
    current.addRun(lintRun("chason_lint",
                           {finding("CHL001", "a.cc", "old", 1)}));
    const BaselineDiff d =
        diffAgainstBaseline(current.toJson(), baseline.toJson());
    // A fixed finding is ratchet slack, never a failure: the baseline
    // may be rewritten (it shrinks), and nothing is "new".
    EXPECT_EQ(d.fresh, 0u);
    EXPECT_EQ(d.stale, 1u);
}

TEST(SarifMerge, LineShiftDoesNotReadAsANewFinding)
{
    SarifDocument baseline;
    baseline.addRun(lintRun("chason_lint",
                            {finding("CHL001", "a.cc", "msg", 10)}));
    SarifDocument current;
    current.addRun(lintRun("chason_lint",
                           {finding("CHL001", "a.cc", "msg", 57)}));
    const BaselineDiff d =
        diffAgainstBaseline(current.toJson(), baseline.toJson());
    EXPECT_EQ(d.fresh, 0u);
    EXPECT_EQ(d.stale, 0u);
}

} // namespace
} // namespace verify
} // namespace chason
