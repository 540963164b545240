/**
 * @file
 * SARIF 2.1.0 writer.
 *
 * Rendered with common::JsonWriter in its multi-line layout (the
 * committed lint baseline is read as a diff). Property order follows
 * the SARIF spec's examples.
 */

#include "verify/sarif.h"

#include <cstdint>
#include <cstdio>

#include "common/buildinfo.h"
#include "common/json.h"
#include "verify/rules.h"

namespace chason {
namespace verify {

namespace {

constexpr const char *kSchemaUri =
    "https://json.schemastore.org/sarif-2.1.0.json";
constexpr const char *kToolName = "chason_verify";
constexpr const char *kToolVersion = "1.0.0";
constexpr const char *kInfoUri =
    "https://github.com/chason-sim/chason";
constexpr const char *kFingerprintKey = "chasonLint/v1";

std::string
uriEscape(const std::string &uri)
{
    std::string out;
    out.reserve(uri.size());
    for (char c : uri) {
        if (c == ' ')
            out += "%20";
        else
            out += c;
    }
    return out;
}

/** One result's members. */
void
writeFinding(common::JsonWriter &out, const SarifRun &run,
             const SarifFinding &f)
{
    out.field("ruleId", f.ruleId);
    const int index = run.ruleIndexOf(f.ruleId);
    if (index >= 0)
        out.field("ruleIndex", index);
    out.field("level", f.level);
    out.object("message", [&] { out.field("text", f.message); });
    out.array("locations", [&] {
        out.object([&] {
            out.object("physicalLocation", [&] {
                out.object("artifactLocation",
                           [&] { out.field("uri", uriEscape(f.uri)); });
                if (f.line > 0) {
                    out.object("region", [&] {
                        out.field("startLine", f.line);
                        if (f.column > 0)
                            out.field("startColumn", f.column);
                    });
                }
            });
            if (!f.logicalName.empty()) {
                out.array("logicalLocations", [&] {
                    out.object([&] {
                        out.field("fullyQualifiedName", f.logicalName);
                    });
                });
            }
        });
    });
    if (!f.fingerprint.empty()) {
        out.object("partialFingerprints", [&] {
            out.field(kFingerprintKey, f.fingerprint);
        });
    }
}

/** One run object's members: tool.driver with its rule table, then
 *  results. */
void
writeRun(common::JsonWriter &out, const SarifRun &run)
{
    out.object("tool", [&] {
        out.object("driver", [&] {
            out.field("name", run.toolName);
            if (!run.toolVersion.empty())
                out.field("version", run.toolVersion);
            if (!run.semanticVersion.empty())
                out.field("semanticVersion", run.semanticVersion);
            if (!run.informationUri.empty())
                out.field("informationUri", run.informationUri);
            if (!run.revision.empty()) {
                out.object("properties",
                           [&] { out.field("revision", run.revision); });
            }
            out.array("rules", [&] {
                for (const SarifRule &r : run.rules) {
                    out.object([&] {
                        out.field("id", r.id).field("name", r.name);
                        out.object("shortDescription", [&] {
                            out.field("text", r.shortDescription);
                        });
                        out.object("fullDescription", [&] {
                            out.field("text", r.fullDescription.empty()
                                                  ? r.shortDescription
                                                  : r.fullDescription);
                        });
                        out.object("defaultConfiguration",
                                   [&] { out.field("level", r.level); });
                    });
                }
            });
        });
    });
    out.array("results", [&] {
        for (const SarifFinding &f : run.results)
            out.object([&] { writeFinding(out, run, f); });
    });
}

} // namespace

int
SarifRun::addRule(const SarifRule &rule)
{
    const int existing = ruleIndexOf(rule.id);
    if (existing >= 0)
        return existing;
    rules.push_back(rule);
    return static_cast<int>(rules.size()) - 1;
}

int
SarifRun::ruleIndexOf(const std::string &ruleId) const
{
    for (std::size_t i = 0; i < rules.size(); ++i) {
        if (rules[i].id == ruleId)
            return static_cast<int>(i);
    }
    return -1;
}

std::size_t
SarifDocument::resultCount() const
{
    std::size_t n = 0;
    for (const SarifRun &run : runs_)
        n += run.results.size();
    return n;
}

std::string
SarifDocument::toJson() const
{
    common::JsonWriter out(common::JsonWriter::Layout::MultiLine);
    out.object([&] {
        out.field("$schema", kSchemaUri).field("version", "2.1.0");
        out.array("runs", [&] {
            for (const SarifRun &run : runs_)
                out.object([&] { writeRun(out, run); });
        });
    });
    return out.str() + "\n";
}

void
SarifLog::addResult(const VerifyResult &result,
                    const std::string &artifactUri)
{
    for (const Diagnostic &d : result.diagnostics)
        results_.push_back({d, artifactUri});
}

SarifRun
SarifLog::toRun() const
{
    SarifRun run;
    run.toolName = kToolName;
    run.toolVersion = kToolVersion;
    run.semanticVersion = kToolVersion;
    run.informationUri = kInfoUri;
    // The emitting revision: lets a stored document answer "which tree
    // produced these findings" (same stamp the BENCH reports carry).
    run.revision = common::gitRevision();

    std::size_t rule_count = 0;
    const RuleInfo *rules = ruleCatalog(&rule_count);
    for (std::size_t i = 0; i < rule_count; ++i) {
        const RuleInfo &r = rules[i];
        SarifRule rule;
        rule.id = r.id;
        rule.name = r.name;
        rule.shortDescription = r.summary;
        rule.fullDescription =
            std::string(r.summary) + " Models: " + r.paperRef + ".";
        rule.level = severityName(r.defaultSeverity);
        run.addRule(rule);
    }

    for (const Entry &e : results_) {
        SarifFinding f;
        f.ruleId = e.diagnostic.ruleId;
        f.level = severityName(e.diagnostic.severity);
        f.message = e.diagnostic.message;
        f.uri = e.artifactUri;
        f.logicalName = e.diagnostic.loc.qualifiedName();
        run.results.push_back(std::move(f));
    }
    return run;
}

std::string
SarifLog::toJson() const
{
    SarifDocument doc;
    doc.addRun(toRun());
    return doc.toJson();
}

std::string
lintFingerprint(const std::string &ruleId, const std::string &uri,
                const std::string &message)
{
    const std::string key = ruleId + "|" + uri + "|" + message;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : key) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::vector<std::string>
sarifFingerprints(const std::string &sarifJson)
{
    std::vector<std::string> out;
    common::JsonValue doc;
    std::string error;
    if (!common::parseJson(sarifJson, doc, error))
        return out;
    const common::JsonValue *runs = doc.find("runs");
    if (runs == nullptr)
        return out;
    for (const common::JsonValue &run : runs->items) {
        const common::JsonValue *results = run.find("results");
        if (results == nullptr)
            continue;
        for (const common::JsonValue &result : results->items) {
            const common::JsonValue *fingerprints =
                result.find("partialFingerprints");
            std::string value;
            if (fingerprints != nullptr &&
                fingerprints->getString(kFingerprintKey, value))
                out.push_back(std::move(value));
        }
    }
    return out;
}

} // namespace verify
} // namespace chason
