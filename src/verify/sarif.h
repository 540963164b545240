/**
 * @file
 * SARIF 2.1.0 export for verifier and lint findings.
 *
 * The Static Analysis Results Interchange Format is what CI systems
 * (GitHub code scanning, Azure DevOps, VS Code SARIF viewers) ingest to
 * render findings inline. Two layers live here:
 *
 *  - SarifDocument / SarifRun: a generic multi-run writer. Each run
 *    carries its own tool.driver metadata (name, version,
 *    semanticVersion, informationUri and the emitting revision under
 *    properties.revision), a de-duplicated rule table, and results with
 *    optional source regions and stable partialFingerprints. This is
 *    the backend of tools/chason_lint, whose clang-tidy, thread-safety
 *    and invariant legs each contribute one run, merged into a single
 *    document the ratcheting baseline diff operates on.
 *
 *  - SarifLog: the original chason_verify facade. One SarifLog
 *    aggregates any number of verified artifacts into a single run of
 *    the "chason_verify" driver; the full CHV rule catalog is embedded
 *    as `tool.driver.rules`, and each finding's schedule coordinates
 *    are exported as a SARIF logicalLocation alongside the artifact
 *    URI. It renders through SarifDocument, so both emitters produce
 *    the same document shape.
 *
 * Baseline diffs compare fingerprints, not documents: lintFingerprint
 * hashes (ruleId, uri, message) — deliberately not the line number, so
 * unrelated edits that shift a finding a few lines do not churn the
 * baseline — and sarifFingerprints parses the set back out of a
 * stored document.
 */

#ifndef CHASON_VERIFY_SARIF_H_
#define CHASON_VERIFY_SARIF_H_

#include <string>
#include <vector>

#include "verify/verifier.h"

namespace chason {
namespace verify {

/** One reportingDescriptor of a run's tool.driver.rules table. */
struct SarifRule
{
    std::string id;              ///< stable rule id ("CHV004", "CHL001")
    std::string name;            ///< CamelCase rule name
    std::string shortDescription;
    std::string fullDescription; ///< falls back to shortDescription
    std::string level = "warning"; ///< defaultConfiguration.level
};

/** One result. Optional fields are omitted from the JSON when unset. */
struct SarifFinding
{
    std::string ruleId;
    std::string level = "warning"; ///< "error", "warning" or "note"
    std::string message;
    std::string uri;          ///< artifact location (spaces escaped)
    int line = 0;             ///< 1-based startLine; 0 = no region
    int column = 0;           ///< 1-based startColumn; 0 = omitted
    std::string logicalName;  ///< optional fullyQualifiedName
    /** Stable identity for baseline diffs; empty = no
     *  partialFingerprints object is emitted. */
    std::string fingerprint;
};

/** One SARIF run: a tool invocation with its rules and results. */
struct SarifRun
{
    std::string toolName;
    std::string toolVersion;
    std::string semanticVersion;  ///< optional
    std::string informationUri;   ///< optional
    std::string revision;         ///< optional; properties.revision

    std::vector<SarifRule> rules;
    std::vector<SarifFinding> results;

    /**
     * Add @p rule unless a rule with the same id is already present;
     * either way return the rule's (stable) index in `rules` — the
     * value results reference as ruleIndex.
     */
    int addRule(const SarifRule &rule);

    /** Index of @p ruleId in `rules`, or -1 when absent. */
    int ruleIndexOf(const std::string &ruleId) const;
};

/** A complete SARIF 2.1.0 document: one `runs` array, many runs. */
class SarifDocument
{
  public:
    void addRun(SarifRun run) { runs_.push_back(std::move(run)); }

    std::size_t runCount() const { return runs_.size(); }

    /** Total results across all runs. */
    std::size_t resultCount() const;

    /** Render the document as SARIF 2.1.0 JSON. */
    std::string toJson() const;

  private:
    std::vector<SarifRun> runs_;
};

/** Aggregates results from several artifacts into one SARIF run. */
class SarifLog
{
  public:
    /**
     * Append every diagnostic of @p result, attributed to the artifact
     * at @p artifactUri (a file path or a synthesized name like
     * "schedules/CM.crhcs"; spaces are percent-escaped).
     */
    void addResult(const VerifyResult &result,
                   const std::string &artifactUri);

    /** Findings added so far. */
    std::size_t size() const { return results_.size(); }

    /**
     * The findings as a single "chason_verify" run with the full CHV
     * catalog embedded — for callers merging verifier output into a
     * multi-run document.
     */
    SarifRun toRun() const;

    /** Render the complete SARIF 2.1.0 JSON document. */
    std::string toJson() const;

  private:
    struct Entry
    {
        Diagnostic diagnostic;
        std::string artifactUri;
    };
    std::vector<Entry> results_;
};

/**
 * Stable finding identity for baseline diffs: FNV-1a 64 over
 * "ruleId|uri|message", rendered as 16 hex digits. Line numbers are
 * deliberately excluded so edits elsewhere in a file do not re-key
 * every finding below them.
 */
std::string lintFingerprint(const std::string &ruleId,
                            const std::string &uri,
                            const std::string &message);

/**
 * Every result's "chasonLint/v1" partialFingerprint value in
 * @p sarifJson, in document order (duplicates preserved); empty when
 * the document does not parse.
 */
std::vector<std::string> sarifFingerprints(const std::string &sarifJson);

} // namespace verify
} // namespace chason

#endif // CHASON_VERIFY_SARIF_H_
