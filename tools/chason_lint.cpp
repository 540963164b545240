/**
 * @file
 * chason_lint — the unified static-analysis driver.
 *
 * One tool runs every compile-time gate the repo has and merges the
 * findings into a single SARIF 2.1.0 document, one run per leg:
 *
 *  - invariants (--check-invariants, always available): repo-specific
 *    source checks — statement-shaped RAII temporaries whose span or
 *    lock ends immediately (CHL001), allocation or container growth
 *    inside a marked hot region (CHL002), reinterpret_cast of
 *    mmap-derived bytes without a nearby chason_assert inside a marked
 *    mmap region (CHL003), and unbalanced region markers themselves
 *    (CHL004). Regions are delimited with `begin-hot`/`end-hot` and
 *    `begin-mmap-region`/`end-mmap-region` comment markers (prefixed
 *    by the tool name and a colon); a finding is suppressed by a
 *    trailing `allow(CHLnnn)` marker on its line.
 *
 *  - clang-tidy (--tidy): the full compilation database of
 *    --build-dir, run file-parallel on a worker pool — not the
 *    hand-picked directory subset run_all.sh used to cover.
 *
 *  - thread-safety (--thread-safety): configures and builds the tree
 *    under clang++ with -DCHASON_THREAD_SAFETY=ON, turning the
 *    thread_annotations.h capability annotations into build errors.
 *
 * --all runs every leg; legs needing clang tools soft-skip with a
 * notice when the toolchain lacks them, so the invariant gate still
 * runs on GCC-only machines.
 *
 * Findings are gated by a *ratcheting baseline* (--baseline, default
 * <root>/lint_baseline.sarif): each finding's stable fingerprint is
 * diffed against the fingerprints stored in the baseline document. Any
 * finding not in the baseline fails the run; findings that disappeared
 * are reported as ratchet slack. --update-baseline rewrites the
 * baseline only when it would shrink — the baseline can never grow
 * through the tool; --reset-baseline is the explicit bootstrap
 * escape hatch for intentional new debt.
 *
 * Exit status: 0 no new findings, 1 new findings vs the baseline,
 * 2 usage/environment error, 3 ratchet violation (--update-baseline
 * while new findings exist).
 */

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/buildinfo.h"
#include "common/json.h"
#include "core/thread_pool.h"
#include "tool_flags.h"
#include "verify/sarif.h"

namespace fs = std::filesystem;
using chason::verify::SarifDocument;
using chason::verify::SarifFinding;
using chason::verify::SarifRule;
using chason::verify::SarifRun;

namespace {

constexpr const char *kLintVersion = "1.0.0";
constexpr const char *kInfoUri = "https://github.com/chason-sim/chason";

constexpr const char *kHelpEpilogue =
    "\nlegs (default: --check-invariants; positional arguments restrict"
    "\nthe invariant leg to the listed files):\n"
    "  --check-invariants       CHL001-CHL004 source invariants\n"
    "  --tidy                   clang-tidy over the compilation "
    "database\n"
    "  --thread-safety          clang -Wthread-safety build of the "
    "tree\n"
    "  --all                    every leg above\n"
    "\nexit status:\n"
    "  0  no findings beyond the committed baseline\n"
    "  1  at least one finding not in the baseline\n"
    "  2  usage error, or a required input was unreadable\n"
    "  3  ratchet violation: --update-baseline would grow the "
    "baseline\n";

/** Marker prefix, assembled so this file never matches it itself. */
std::string
markerPrefix()
{
    return std::string("chason-") + "lint:";
}

/** One raw finding before SARIF conversion. */
struct Finding
{
    std::string ruleId;
    std::string level = "error";
    std::string message;
    std::string uri; ///< repo-relative path
    int line = 0;
    int column = 0;
};

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string
relativeUri(const fs::path &path, const fs::path &root)
{
    std::error_code ec;
    const fs::path abs = fs::weakly_canonical(path, ec);
    if (ec)
        return path.generic_string();
    const fs::path rel = abs.lexically_relative(root);
    if (rel.empty() || rel.generic_string().rfind("..", 0) == 0)
        return abs.generic_string();
    return rel.generic_string();
}

// ---------------------------------------------------------------------
// Invariant leg (CHL001-CHL004)
// ---------------------------------------------------------------------

struct LintRuleInfo
{
    const char *id;
    const char *name;
    const char *summary;
    const char *level;
};

constexpr LintRuleInfo kLintRules[] = {
    {"CHL001", "UnbalancedTraceSpan",
     "Statement-shaped RAII temporary (HostSpan, ScopedSink or "
     "MutexLock) is destroyed at the end of its own statement: the "
     "span or critical section it opens closes immediately. Name the "
     "object so its scope covers the work.",
     "error"},
    {"CHL002", "HotLoopAllocation",
     "Allocation or container growth inside a marked hot region (the "
     "simulator's per-channel streaming loop, the one MAC loop "
     "macChannel). Hoist the storage out of the region or justify it "
     "with an allow marker.",
     "error"},
    {"CHL003", "UncheckedMmapDereference",
     "reinterpret_cast of mmap-derived bytes without a chason_assert "
     "in the preceding lines of the marked mmap region: a truncated "
     "or corrupt artifact would be dereferenced unchecked.",
     "error"},
    {"CHL004", "UnterminatedLintRegion",
     "A lint region marker without its partner: begin without end (or "
     "end without begin) makes every region check downstream of it "
     "meaningless.",
     "error"},
};

/** True when @p comment carries `allow(<ruleId>)` for this line. */
bool
lineAllows(const std::string &comment, const char *ruleId)
{
    const std::string needle = std::string("allow(") + ruleId + ")";
    return comment.find(needle) != std::string::npos;
}

/** True when @p ch can be part of an identifier. */
bool
identChar(char ch)
{
    return std::isalnum(static_cast<unsigned char>(ch)) != 0 ||
           ch == '_';
}

/** Does @p code contain @p token with a non-identifier char before? */
bool
hasBoundedToken(const std::string &code, const std::string &token)
{
    std::size_t pos = 0;
    while ((pos = code.find(token, pos)) != std::string::npos) {
        if (pos == 0 || !identChar(code[pos - 1]))
            return true;
        pos += token.size();
    }
    return false;
}

/** Does @p code use `new` as a keyword (new Foo, new[] ...)? */
bool
hasNewExpression(const std::string &code)
{
    std::size_t pos = 0;
    while ((pos = code.find("new", pos)) != std::string::npos) {
        const bool left = pos == 0 || !identChar(code[pos - 1]);
        const std::size_t after = pos + 3;
        const bool right =
            after >= code.size() || !identChar(code[after]);
        if (left && right)
            return true;
        pos = after;
    }
    return false;
}

/** Member-call growth tokens; anchored on the preceding '.' or '>'. */
bool
hasGrowthCall(const std::string &code, std::string *which)
{
    static const std::array<const char *, 6> kCalls = {
        "push_back(", "emplace_back(", "resize(",
        "reserve(",   "insert(",       "emplace(",
    };
    for (const char *call : kCalls) {
        std::size_t pos = 0;
        while ((pos = code.find(call, pos)) != std::string::npos) {
            if (pos > 0 && (code[pos - 1] == '.' || code[pos - 1] == '>')) {
                *which = call;
                which->pop_back(); // drop the '('
                return true;
            }
            pos += std::strlen(call);
        }
    }
    return false;
}

/** Leading-whitespace- and namespace-stripped view of @p code. */
std::string
strippedStatement(const std::string &code)
{
    std::size_t begin = 0;
    while (begin < code.size() &&
           std::isspace(static_cast<unsigned char>(code[begin])) != 0)
        ++begin;
    std::string out = code.substr(begin);
    for (bool again = true; again;) {
        again = false;
        for (const char *ns : {"chason::", "trace::", "common::"}) {
            if (out.rfind(ns, 0) == 0) {
                out = out.substr(std::strlen(ns));
                again = true;
            }
        }
    }
    return out;
}

/** Run CHL001-CHL004 over one file; append findings. */
void
checkInvariants(const fs::path &path, const std::string &uri,
                std::vector<Finding> &findings)
{
    std::ifstream in(path);
    if (!in) {
        findings.push_back({"CHL004", "error",
                            "file listed for linting is unreadable",
                            uri, 0, 0});
        return;
    }
    const std::string prefix = markerPrefix();

    bool in_hot = false, in_mmap = false;
    int hot_begin = 0, mmap_begin = 0;
    int last_assert = -1000;
    constexpr int kAssertWindow = 8;

    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t slash = line.find("//");
        const std::string code =
            slash == std::string::npos ? line : line.substr(0, slash);
        const std::string comment =
            slash == std::string::npos ? std::string()
                                       : line.substr(slash);

        // Region markers.
        const std::size_t mark = comment.find(prefix);
        if (mark != std::string::npos) {
            const std::string rest =
                comment.substr(mark + prefix.size());
            if (rest.find("begin-hot") != std::string::npos) {
                if (in_hot)
                    findings.push_back({"CHL004", "error",
                                        "begin-hot inside an open hot "
                                        "region", uri, lineno, 0});
                in_hot = true;
                hot_begin = lineno;
            } else if (rest.find("end-hot") != std::string::npos) {
                if (!in_hot)
                    findings.push_back({"CHL004", "error",
                                        "end-hot without a begin-hot",
                                        uri, lineno, 0});
                in_hot = false;
            } else if (rest.find("begin-mmap-region") !=
                       std::string::npos) {
                if (in_mmap)
                    findings.push_back({"CHL004", "error",
                                        "begin-mmap-region inside an "
                                        "open mmap region", uri,
                                        lineno, 0});
                in_mmap = true;
                mmap_begin = lineno;
                last_assert = -1000;
            } else if (rest.find("end-mmap-region") !=
                       std::string::npos) {
                if (!in_mmap)
                    findings.push_back({"CHL004", "error",
                                        "end-mmap-region without a "
                                        "begin-mmap-region", uri,
                                        lineno, 0});
                in_mmap = false;
            }
        }

        // CHL001: unnamed RAII temporary as a whole statement. A
        // deleted/defaulted special member declaration has the same
        // shape (`HostSpan(const HostSpan &) = delete;`) — skip it.
        const std::string stmt = strippedStatement(code);
        const bool special_member =
            code.find("= delete") != std::string::npos ||
            code.find("= default") != std::string::npos;
        for (const char *cls : {"HostSpan(", "ScopedSink(",
                                "MutexLock("}) {
            if (stmt.rfind(cls, 0) == 0 && !special_member &&
                !lineAllows(comment, "CHL001")) {
                std::string name(cls);
                name.pop_back();
                findings.push_back(
                    {"CHL001", "error",
                     "unnamed " + name + " temporary: the RAII scope "
                     "ends at this statement — name the object",
                     uri, lineno, 0});
            }
        }

        // CHL002: allocation/growth inside a hot region.
        if (in_hot && !lineAllows(comment, "CHL002")) {
            std::string which;
            if (hasNewExpression(code))
                which = "new";
            else if (hasBoundedToken(code, "malloc(") ||
                     hasBoundedToken(code, "calloc(") ||
                     hasBoundedToken(code, "realloc("))
                which = "malloc";
            else
                (void)hasGrowthCall(code, &which);
            if (!which.empty()) {
                findings.push_back(
                    {"CHL002", "error",
                     which + " inside the hot region beginning at "
                     "line " + std::to_string(hot_begin),
                     uri, lineno, 0});
            }
        }

        // CHL003: unchecked reinterpret_cast inside an mmap region.
        if (in_mmap) {
            if (code.find("chason_assert") != std::string::npos)
                last_assert = lineno;
            if (code.find("reinterpret_cast") != std::string::npos &&
                last_assert < lineno - kAssertWindow &&
                !lineAllows(comment, "CHL003")) {
                findings.push_back(
                    {"CHL003", "error",
                     "reinterpret_cast of mmap-derived bytes with no "
                     "chason_assert in the preceding " +
                     std::to_string(kAssertWindow) + " lines (mmap "
                     "region beginning at line " +
                     std::to_string(mmap_begin) + ")",
                     uri, lineno, 0});
            }
        }
    }
    if (in_hot)
        findings.push_back({"CHL004", "error",
                            "hot region beginning at line " +
                            std::to_string(hot_begin) +
                            " is never closed", uri, hot_begin, 0});
    if (in_mmap)
        findings.push_back({"CHL004", "error",
                            "mmap region beginning at line " +
                            std::to_string(mmap_begin) +
                            " is never closed", uri, mmap_begin, 0});
}

/** Every lintable source file under the conventional top-level dirs. */
std::vector<fs::path>
discoverSources(const fs::path &root)
{
    std::vector<fs::path> out;
    for (const char *top : {"src", "tools", "tests", "bench",
                            "examples"}) {
        const fs::path dir = root / top;
        std::error_code ec;
        if (!fs::is_directory(dir, ec))
            continue;
        for (auto it = fs::recursive_directory_iterator(dir, ec);
             !ec && it != fs::recursive_directory_iterator(); ++it) {
            if (!it->is_regular_file())
                continue;
            const std::string ext = it->path().extension().string();
            if (ext != ".cc" && ext != ".cpp" && ext != ".h")
                continue;
            // Deliberately broken lint fixtures are linted by their
            // own ctest, not as part of the clean tree.
            const std::string generic = it->path().generic_string();
            if (generic.find("tests/lint/fixtures") !=
                std::string::npos)
                continue;
            out.push_back(it->path());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

SarifRun
invariantsRun(const std::vector<Finding> &findings)
{
    SarifRun run;
    run.toolName = "chason_lint";
    run.toolVersion = kLintVersion;
    run.semanticVersion = kLintVersion;
    run.informationUri = kInfoUri;
    run.revision = chason::common::gitRevision();
    for (const LintRuleInfo &r : kLintRules)
        run.addRule({r.id, r.name, r.summary, "", r.level});
    for (const Finding &f : findings) {
        SarifFinding out;
        out.ruleId = f.ruleId;
        out.level = f.level;
        out.message = f.message;
        out.uri = f.uri;
        out.line = f.line;
        out.column = f.column;
        out.fingerprint =
            chason::verify::lintFingerprint(f.ruleId, f.uri, f.message);
        run.results.push_back(std::move(out));
    }
    return run;
}

// ---------------------------------------------------------------------
// External-command legs
// ---------------------------------------------------------------------

/** Full stdout+stderr of @p command; exit status in @p status. */
std::string
commandOutput(const std::string &command, int *status)
{
    std::string out;
    FILE *p = popen((command + " 2>&1").c_str(), "r");
    if (p == nullptr) {
        *status = -1;
        return out;
    }
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        out.append(buf, n);
    *status = pclose(p);
    return out;
}

bool
haveCommand(const char *name)
{
    int status = 0;
    (void)commandOutput(std::string("command -v ") + name +
                        " >/dev/null", &status);
    return status == 0;
}

/**
 * Parse `path:line:col: level: message [check]` diagnostics out of
 * clang-tidy / clang build output into findings. Lines without the
 * full prefix (notes, progress, includes) are skipped. When
 * @p requireTag is non-null only diagnostics whose trailing [bracket]
 * contains it are kept (the thread-safety leg's filter).
 */
void
parseClangDiagnostics(const std::string &output, const fs::path &root,
                      const char *requireTag,
                      std::vector<Finding> &findings)
{
    std::istringstream in(output);
    std::string line;
    while (std::getline(in, line)) {
        // path:LINE:COL: level: ...
        const std::size_t c1 = line.find(':');
        if (c1 == std::string::npos || c1 == 0 || line[0] == ' ')
            continue;
        std::size_t pos = c1;
        int nums[2] = {0, 0};
        bool shaped = true;
        for (int k = 0; k < 2 && shaped; ++k) {
            const std::size_t start = pos + 1;
            std::size_t end = start;
            while (end < line.size() &&
                   std::isdigit(static_cast<unsigned char>(line[end])))
                ++end;
            if (end == start || end >= line.size() ||
                line[end] != ':') {
                shaped = false;
                break;
            }
            nums[k] = std::atoi(line.c_str() + start);
            pos = end;
        }
        if (!shaped)
            continue;
        const std::string tail = line.substr(pos + 1);
        std::string level;
        std::size_t msg_begin = 0;
        if (tail.rfind(" error: ", 0) == 0) {
            level = "error";
            msg_begin = 8;
        } else if (tail.rfind(" warning: ", 0) == 0) {
            level = "warning";
            msg_begin = 10;
        } else {
            continue;
        }
        std::string message = tail.substr(msg_begin);
        std::string rule = "diagnostic";
        const std::size_t rb = message.rfind(']');
        const std::size_t lb = message.rfind('[');
        if (lb != std::string::npos && rb != std::string::npos &&
            rb == message.size() - 1 && lb < rb) {
            rule = message.substr(lb + 1, rb - lb - 1);
            message = message.substr(0, lb);
            while (!message.empty() && message.back() == ' ')
                message.pop_back();
        }
        if (requireTag != nullptr &&
            rule.find(requireTag) == std::string::npos)
            continue;
        Finding f;
        f.ruleId = rule;
        f.level = level;
        f.message = message;
        f.uri = relativeUri(line.substr(0, c1), root);
        f.line = nums[0];
        f.column = nums[1];
        findings.push_back(std::move(f));
    }
}

/** Translation units of the compilation database at @p buildDir. */
std::vector<std::string>
compileDatabaseFiles(const fs::path &buildDir, const fs::path &root)
{
    chason::common::JsonValue db;
    std::string error;
    if (!chason::common::parseJson(
            readFile(buildDir / "compile_commands.json"), db, error)) {
        std::fprintf(stderr, "chason_lint: %s/compile_commands.json: "
                     "%s\n", buildDir.string().c_str(), error.c_str());
        return {};
    }
    std::vector<std::string> out;
    for (const chason::common::JsonValue &command : db.items) {
        std::string file;
        if (!command.getString("file", file))
            continue;
        const std::string generic = fs::path(file).generic_string();
        if (generic.rfind(root.generic_string(), 0) != 0)
            continue; // out-of-tree TU (_deps etc.)
        if (generic.find("tests/lint/fixtures") != std::string::npos)
            continue;
        out.push_back(std::move(file));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

SarifRun
makeClangRun(const char *toolName, const char *defaultRuleSummary,
             const std::vector<Finding> &findings)
{
    SarifRun run;
    run.toolName = toolName;
    run.toolVersion = kLintVersion;
    run.semanticVersion = kLintVersion;
    run.informationUri = kInfoUri;
    run.revision = chason::common::gitRevision();
    for (const Finding &f : findings) {
        run.addRule({f.ruleId, f.ruleId, defaultRuleSummary, "",
                     f.level});
        SarifFinding out;
        out.ruleId = f.ruleId;
        out.level = f.level;
        out.message = f.message;
        out.uri = f.uri;
        out.line = f.line;
        out.column = f.column;
        out.fingerprint =
            chason::verify::lintFingerprint(f.ruleId, f.uri, f.message);
        run.results.push_back(std::move(out));
    }
    return run;
}

/** Drop repeated diagnostics (headers seen from several TUs). */
void
dedupeFindings(std::vector<Finding> &findings)
{
    std::set<std::string> seen;
    std::vector<Finding> out;
    out.reserve(findings.size());
    for (Finding &f : findings) {
        const std::string key = f.ruleId + "|" + f.uri + "|" +
                                std::to_string(f.line) + "|" +
                                f.message;
        if (seen.insert(key).second)
            out.push_back(std::move(f));
    }
    findings.swap(out);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *root_arg = ".";
    const char *build_arg = nullptr;
    const char *ts_build_arg = nullptr;
    const char *sarif_arg = nullptr;
    const char *baseline_arg = nullptr;
    bool leg_invariants = false;
    bool leg_tidy = false;
    bool leg_tsafe = false;
    bool leg_all = false;
    bool update_baseline = false;
    bool reset_baseline = false;
    unsigned jobs = 0;

    using chason::tools::Flag;
    const Flag flags[] = {
        {"--root", Flag::Kind::kString, &root_arg, "DIR",
         "repository root (default .)"},
        {"--build-dir", Flag::Kind::kString, &build_arg, "DIR",
         "build tree with compile_commands.json (default ROOT/build)"},
        {"--ts-build-dir", Flag::Kind::kString, &ts_build_arg, "DIR",
         "thread-safety build tree (default ROOT/build-tsafe)"},
        {"--sarif", Flag::Kind::kString, &sarif_arg, "PATH",
         "write the merged SARIF document here"},
        {"--baseline", Flag::Kind::kString, &baseline_arg, "PATH",
         "ratchet baseline (default ROOT/lint_baseline.sarif)"},
        {"--check-invariants", Flag::Kind::kBool, &leg_invariants,
         nullptr, "run the CHL invariant leg"},
        {"--tidy", Flag::Kind::kBool, &leg_tidy, nullptr,
         "run the clang-tidy leg"},
        {"--thread-safety", Flag::Kind::kBool, &leg_tsafe, nullptr,
         "run the clang -Wthread-safety build leg"},
        {"--all", Flag::Kind::kBool, &leg_all, nullptr,
         "run every leg"},
        {"--update-baseline", Flag::Kind::kBool, &update_baseline,
         nullptr, "rewrite the baseline if (and only if) it shrinks"},
        {"--reset-baseline", Flag::Kind::kBool, &reset_baseline,
         nullptr, "rewrite the baseline unconditionally (bootstrap)"},
        {"--jobs", Flag::Kind::kUint, &jobs, "N",
         "parallel clang-tidy processes (default: hardware threads)"},
    };
    const auto parse = chason::tools::parseFlags(
        argc, argv, flags, std::size(flags));
    if (parse.help) {
        chason::tools::printFlagHelp(stdout, "chason_lint", flags,
                                     std::size(flags), kHelpEpilogue);
        return 0;
    }
    if (parse.error != nullptr) {
        std::fprintf(stderr, "chason_lint: bad argument '%s' "
                     "(--help for usage)\n", parse.error);
        return 2;
    }
    if (leg_all)
        leg_invariants = leg_tidy = leg_tsafe = true;
    if (!leg_invariants && !leg_tidy && !leg_tsafe)
        leg_invariants = true;

    std::error_code ec;
    const fs::path root = fs::weakly_canonical(root_arg, ec);
    if (ec || !fs::is_directory(root)) {
        std::fprintf(stderr, "chason_lint: --root %s is not a "
                     "directory\n", root_arg);
        return 2;
    }
    const fs::path build_dir =
        build_arg != nullptr ? fs::path(build_arg) : root / "build";
    const fs::path ts_build_dir = ts_build_arg != nullptr
        ? fs::path(ts_build_arg)
        : root / "build-tsafe";
    const fs::path baseline_path = baseline_arg != nullptr
        ? fs::path(baseline_arg)
        : root / "lint_baseline.sarif";

    SarifDocument doc;
    std::vector<std::string> current_fps;
    // fingerprint -> human-readable line for the failure report.
    std::vector<std::pair<std::string, std::string>> fp_descs;
    const auto describe = [&fp_descs](const std::vector<Finding> &fs) {
        for (const Finding &f : fs) {
            std::string where = f.uri;
            if (f.line > 0)
                where += ":" + std::to_string(f.line);
            fp_descs.emplace_back(
                chason::verify::lintFingerprint(f.ruleId, f.uri,
                                                f.message),
                f.ruleId + " " + where + ": " + f.message);
        }
    };

    // ---- invariants leg -------------------------------------------
    if (leg_invariants) {
        std::vector<fs::path> files;
        if (!parse.positional.empty()) {
            for (const char *p : parse.positional)
                files.emplace_back(p);
        } else {
            files = discoverSources(root);
        }
        std::vector<Finding> findings;
        for (const fs::path &file : files)
            checkInvariants(file, relativeUri(file, root), findings);
        std::printf("chason_lint: invariants leg: %zu files, %zu "
                    "findings\n", files.size(), findings.size());
        describe(findings);
        doc.addRun(invariantsRun(findings));
    }

    // ---- clang-tidy leg -------------------------------------------
    if (leg_tidy) {
        if (!haveCommand("clang-tidy")) {
            std::printf("chason_lint: tidy leg skipped (clang-tidy "
                        "not in PATH)\n");
        } else {
            const std::vector<std::string> tus =
                compileDatabaseFiles(build_dir, root);
            if (tus.empty()) {
                std::fprintf(stderr, "chason_lint: no translation "
                             "units in %s/compile_commands.json\n",
                             build_dir.string().c_str());
                return 2;
            }
            std::vector<std::vector<Finding>> per_tu(tus.size());
            chason::core::ThreadPool pool(jobs);
            pool.parallelForDynamic(
                tus.size(), 1, [&](std::size_t i) {
                    int status = 0;
                    const std::string out = commandOutput(
                        "clang-tidy -p '" + build_dir.string() +
                        "' --quiet '" + tus[i] + "'", &status);
                    parseClangDiagnostics(out, root, nullptr,
                                          per_tu[i]);
                });
            std::vector<Finding> findings;
            for (std::vector<Finding> &tu : per_tu)
                for (Finding &f : tu)
                    findings.push_back(std::move(f));
            dedupeFindings(findings);
            std::printf("chason_lint: tidy leg: %zu TUs, %zu "
                        "findings\n", tus.size(), findings.size());
            describe(findings);
            doc.addRun(makeClangRun(
                "clang-tidy",
                "clang-tidy check (see the clang-tidy docs for this "
                "id)", findings));
        }
    }

    // ---- thread-safety leg ----------------------------------------
    if (leg_tsafe) {
        if (!haveCommand("clang++")) {
            std::printf("chason_lint: thread-safety leg skipped "
                        "(clang++ not in PATH)\n");
        } else {
            int status = 0;
            const std::string configure = commandOutput(
                "cmake -S '" + root.string() + "' -B '" +
                ts_build_dir.string() +
                "' -DCMAKE_BUILD_TYPE=Release "
                "-DCMAKE_CXX_COMPILER=clang++ "
                "-DCHASON_THREAD_SAFETY=ON", &status);
            if (status != 0) {
                std::fprintf(stderr, "chason_lint: thread-safety "
                             "configure failed:\n%s\n",
                             configure.c_str());
                return 2;
            }
            const std::string build = commandOutput(
                "cmake --build '" + ts_build_dir.string() + "' -j " +
                std::to_string(
                    jobs != 0
                        ? jobs
                        : chason::core::ThreadPool::defaultWorkers()),
                &status);
            std::vector<Finding> findings;
            parseClangDiagnostics(build, root, "thread-safety",
                                  findings);
            dedupeFindings(findings);
            if (status != 0 && findings.empty()) {
                // The build broke for a non-annotation reason; surface
                // it as a finding so the gate cannot silently pass.
                findings.push_back(
                    {"thread-safety-build", "error",
                     "clang thread-safety build failed without a "
                     "parseable -Wthread-safety diagnostic; run the "
                     "build manually", "CMakeLists.txt", 0, 0});
            }
            std::printf("chason_lint: thread-safety leg: build %s, "
                        "%zu findings\n",
                        status == 0 ? "clean" : "FAILED",
                        findings.size());
            describe(findings);
            doc.addRun(makeClangRun(
                "clang-thread-safety",
                "Clang -Wthread-safety capability analysis "
                "diagnostic", findings));
        }
    }

    const std::string json = doc.toJson();
    current_fps = chason::verify::sarifFingerprints(json);
    if (sarif_arg != nullptr) {
        std::ofstream out(sarif_arg, std::ios::binary);
        out << json;
        if (!out) {
            std::fprintf(stderr, "chason_lint: cannot write %s\n",
                         sarif_arg);
            return 2;
        }
    }

    // ---- baseline ratchet -----------------------------------------
    const std::string baseline_text = readFile(baseline_path);
    const std::vector<std::string> baseline_fps =
        chason::verify::sarifFingerprints(baseline_text);
    const std::set<std::string> baseline_set(baseline_fps.begin(),
                                             baseline_fps.end());
    const std::set<std::string> current_set(current_fps.begin(),
                                            current_fps.end());

    std::size_t fresh = 0;
    for (const std::string &fp : current_set)
        if (baseline_set.count(fp) == 0)
            ++fresh;
    std::size_t stale = 0;
    for (const std::string &fp : baseline_set)
        if (current_set.count(fp) == 0)
            ++stale;

    if (reset_baseline) {
        std::ofstream out(baseline_path, std::ios::binary);
        out << json;
        if (!out) {
            std::fprintf(stderr, "chason_lint: cannot write %s\n",
                         baseline_path.string().c_str());
            return 2;
        }
        std::printf("chason_lint: baseline reset: %zu finding(s) "
                    "recorded in %s\n", current_set.size(),
                    baseline_path.string().c_str());
        return 0;
    }
    if (update_baseline) {
        if (fresh != 0) {
            std::fprintf(stderr, "chason_lint: refusing to update: "
                         "%zu finding(s) are not in the baseline — "
                         "the ratchet only shrinks. Fix them, or use "
                         "--reset-baseline for intentional new "
                         "debt.\n", fresh);
            return 3;
        }
        std::ofstream out(baseline_path, std::ios::binary);
        out << json;
        if (!out) {
            std::fprintf(stderr, "chason_lint: cannot write %s\n",
                         baseline_path.string().c_str());
            return 2;
        }
        std::printf("chason_lint: baseline updated: %zu -> %zu "
                    "finding(s)\n", baseline_set.size(),
                    current_set.size());
        return 0;
    }

    if (baseline_text.empty())
        std::printf("chason_lint: note: baseline %s is missing or "
                    "empty; gating against an empty baseline\n",
                    baseline_path.string().c_str());
    if (stale != 0)
        std::printf("chason_lint: %zu baseline finding(s) no longer "
                    "occur — run --update-baseline to ratchet down\n",
                    stale);
    if (fresh != 0) {
        std::printf("chason_lint: FAIL — %zu finding(s) not in the "
                    "baseline:\n", fresh);
        std::set<std::string> reported;
        std::size_t shown = 0;
        for (const auto &[fp, desc] : fp_descs) {
            if (baseline_set.count(fp) != 0 ||
                !reported.insert(fp).second)
                continue;
            std::printf("  NEW [%s] %s\n", fp.c_str(), desc.c_str());
            if (++shown >= 50) {
                std::printf("  ... (%zu more)\n", fresh - shown);
                break;
            }
        }
        return 1;
    }
    std::printf("chason_lint: PASS — %zu finding(s), all in the "
                "baseline\n", current_set.size());
    return 0;
}
