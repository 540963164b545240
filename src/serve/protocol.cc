/**
 * @file
 * Request parsing and response rendering for the serving protocol.
 */

#include "serve/protocol.h"

#include <cinttypes>
#include <cstdio>

#include "serve/json.h"

namespace chason {
namespace serve {

namespace {

/**
 * Geometry bounds enforced at parse time. SchedConfig::validate()
 * panics on nonsense, which would take the whole daemon down — a
 * hostile or buggy client must be stopped at the protocol boundary
 * with a typed error instead.
 */
constexpr std::uint64_t kMaxChannels = 64;
constexpr std::uint64_t kMaxPes = 8; // sched::kMaxPesPerGroup
constexpr std::uint64_t kMaxRawDistance = 256;
constexpr std::uint64_t kMaxWindow = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxRowsPerLane = 32768;
constexpr std::uint64_t kMaxRmatScale = 24;
constexpr std::uint64_t kMaxRmatEdges = std::uint64_t{1} << 28;
constexpr std::size_t kMaxTenantLength = 64;

bool
failParse(std::string &error, const std::string &reason)
{
    error = reason;
    return false;
}

/** Bounded uint field: absent keeps @p out, malformed fails. */
bool
boundedUint(const JsonValue &object, const char *key, std::uint64_t lo,
            std::uint64_t hi, std::uint64_t &out, std::string &error)
{
    if (object.find(key) == nullptr)
        return true;
    std::uint64_t value = 0;
    if (!object.getUint(key, value))
        return failParse(error, std::string("field '") + key +
                                    "' must be a non-negative integer");
    if (value < lo || value > hi)
        return failParse(error, std::string("field '") + key +
                                    "' out of range [" +
                                    std::to_string(lo) + ", " +
                                    std::to_string(hi) + "]");
    out = value;
    return true;
}

} // namespace

std::string
Request::matrixKey() const
{
    switch (source) {
    case Source::Dataset:
        return "dataset:" + dataset;
    case Source::Path:
        return "path:" + path;
    case Source::Rmat:
        break;
    }
    char buffer[96];
    std::snprintf(buffer, sizeof(buffer),
                  "rmat:s%" PRIu32 ":e%" PRIu64 ":seed%" PRIu64,
                  rmatScale, rmatEdges, rmatSeed);
    return buffer;
}

void
Request::applyConfig(arch::ArchConfig &config) const
{
    if (channels != 0)
        config.sched.channels = channels;
    if (window != 0)
        config.sched.windowCols = window;
    if (rowsPerLane != 0)
        config.sched.rowsPerLanePerPass = rowsPerLane;
    if (rawDistance != 0)
        config.sched.rawDistance = rawDistance;
    if (pes != 0)
        config.sched.pesOverride = pes;
}

bool
parseRequest(const std::string &line, Request &out, std::string &error)
{
    out = Request();
    JsonValue root;
    if (!parseJson(line, root, error))
        return false;
    if (!root.isObject())
        return failParse(error, "request must be a JSON object");

    if (root.find("id") != nullptr) {
        if (!root.getUint("id", out.id))
            return failParse(error,
                             "field 'id' must be a non-negative integer");
        out.hasId = true;
    } else {
        return failParse(error, "field 'id' is required");
    }

    // Strict key set: a typo must be a typed error, not a silently
    // ignored knob.
    for (const auto &member : root.members) {
        const std::string &key = member.first;
        if (key != "id" && key != "tenant" && key != "dataset" &&
            key != "path" && key != "rmat" && key != "xseed" &&
            key != "engine" && key != "config")
            return failParse(error, "unknown field '" + key + "'");
    }

    if (root.find("tenant") != nullptr) {
        if (!root.getString("tenant", out.tenant))
            return failParse(error, "field 'tenant' must be a string");
        if (out.tenant.empty() ||
            out.tenant.size() > kMaxTenantLength)
            return failParse(error, "field 'tenant' must be 1..64 chars");
    }

    const JsonValue *dataset = root.find("dataset");
    const JsonValue *path = root.find("path");
    const JsonValue *rmat = root.find("rmat");
    const int sources = (dataset != nullptr) + (path != nullptr) +
        (rmat != nullptr);
    if (sources != 1)
        return failParse(error, "exactly one of 'dataset', 'path', "
                                "'rmat' must name the matrix");
    if (dataset != nullptr) {
        out.source = Request::Source::Dataset;
        if (!root.getString("dataset", out.dataset) ||
            out.dataset.empty())
            return failParse(error,
                             "field 'dataset' must be a non-empty string");
    } else if (path != nullptr) {
        out.source = Request::Source::Path;
        if (!root.getString("path", out.path) || out.path.empty())
            return failParse(error,
                             "field 'path' must be a non-empty string");
    } else {
        out.source = Request::Source::Rmat;
        if (!rmat->isObject())
            return failParse(error, "field 'rmat' must be an object "
                                    "{scale, edges, seed}");
        std::uint64_t scale = 0;
        std::uint64_t edges = 0;
        if (!rmat->getUint("scale", scale) || scale < 1 ||
            scale > kMaxRmatScale)
            return failParse(error, "rmat.scale must be in [1, " +
                                        std::to_string(kMaxRmatScale) +
                                        "]");
        if (!rmat->getUint("edges", edges) || edges < 1 ||
            edges > kMaxRmatEdges)
            return failParse(error, "rmat.edges must be in [1, " +
                                        std::to_string(kMaxRmatEdges) +
                                        "]");
        out.rmatScale = static_cast<std::uint32_t>(scale);
        out.rmatEdges = edges;
        if (rmat->find("seed") != nullptr &&
            !rmat->getUint("seed", out.rmatSeed))
            return failParse(error,
                             "rmat.seed must be a non-negative integer");
        for (const auto &member : rmat->members) {
            if (member.first != "scale" && member.first != "edges" &&
                member.first != "seed")
                return failParse(error, "unknown rmat field '" +
                                            member.first + "'");
        }
    }

    if (root.find("xseed") != nullptr &&
        !root.getUint("xseed", out.xSeed))
        return failParse(error,
                         "field 'xseed' must be a non-negative integer");

    if (root.find("engine") != nullptr) {
        std::string engine;
        if (!root.getString("engine", engine))
            return failParse(error, "field 'engine' must be a string");
        if (engine == "chason")
            out.kind = core::Engine::Kind::Chason;
        else if (engine == "serpens")
            out.kind = core::Engine::Kind::Serpens;
        else
            return failParse(error, "field 'engine' must be 'chason' "
                                    "or 'serpens'");
    }

    const JsonValue *config = root.find("config");
    if (config != nullptr) {
        if (!config->isObject())
            return failParse(error, "field 'config' must be an object");
        for (const auto &member : config->members) {
            const std::string &key = member.first;
            if (key != "channels" && key != "window" &&
                key != "rows_per_lane" && key != "raw_distance" &&
                key != "pes")
                return failParse(error, "unknown config field '" + key +
                                            "'");
        }
        // migrationDepth defaults to 1, so channels needs >= 2.
        std::uint64_t value = 0;
        if (!boundedUint(*config, "channels", 2, kMaxChannels, value,
                         error))
            return false;
        out.channels = static_cast<std::uint32_t>(value);
        value = 0;
        if (!boundedUint(*config, "window", 1, kMaxWindow, value, error))
            return false;
        out.window = static_cast<std::uint32_t>(value);
        value = 0;
        if (!boundedUint(*config, "rows_per_lane", 1, kMaxRowsPerLane,
                         value, error))
            return false;
        out.rowsPerLane = static_cast<std::uint32_t>(value);
        value = 0;
        if (!boundedUint(*config, "raw_distance", 1, kMaxRawDistance,
                         value, error))
            return false;
        out.rawDistance = static_cast<std::uint32_t>(value);
        value = 0;
        if (!boundedUint(*config, "pes", 1, kMaxPes, value, error))
            return false;
        out.pes = static_cast<std::uint32_t>(value);
    }

    return true;
}

std::uint64_t
vectorDigest(const std::vector<float> &y)
{
    // FNV-1a over the raw float bits: bit-identical vectors — and only
    // those — share a digest, which is what the client's equivalence
    // check needs.
    std::uint64_t hash = 1469598103934665603ull;
    for (const float value : y) {
        std::uint32_t bits;
        static_assert(sizeof(bits) == sizeof(value));
        __builtin_memcpy(&bits, &value, sizeof(bits));
        for (int shift = 0; shift < 32; shift += 8) {
            hash ^= (bits >> shift) & 0xFFu;
            hash *= 1099511628211ull;
        }
    }
    return hash;
}

std::string
digestHex(std::uint64_t digest)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016" PRIx64, digest);
    return hex;
}

std::string
resultResponse(const Request &request, const core::SpmvReport &report,
               std::uint64_t ydigest, double serviceMs)
{
    common::JsonWriter out;
    out.object([&] {
        out.field("id", request.id)
            .field("ok", true)
            .field("dataset", report.dataset)
            .field("accelerator", report.accelerator)
            .field("rows", report.rows)
            .field("cols", report.cols)
            .field("nnz", report.nnz)
            .field("cycles", report.cycles)
            .field("latency_ms", report.latencyMs)
            .field("gflops", report.gflops)
            .field("functional_error", report.functionalError)
            .field("ydigest", digestHex(ydigest))
            .field("service_ms", serviceMs);
    });
    return out.str();
}

std::string
errorResponse(bool hasId, std::uint64_t id, const char *errorType,
              const std::string &detail)
{
    common::JsonWriter out;
    out.object([&] {
        out.key("id");
        if (hasId)
            out.value(id);
        else
            out.null();
        out.field("ok", false)
            .field("error", errorType)
            .field("detail", detail);
    });
    return out.str();
}

} // namespace serve
} // namespace chason
