/**
 * @file
 * chason_serve wire protocol: newline-delimited JSON requests and
 * responses (docs/SERVING.md has the full schema).
 *
 * One request per line. The matrix is named by exactly one of three
 * sources — a Table-2 dataset tag ("dataset"), a Matrix Market file
 * ("path"), or a deterministic R-MAT spec (an "rmat" object with
 * scale/edges/seed) — plus an optional x seed, engine selection and
 * scheduler-geometry overrides. Because every source is deterministic,
 * a client holding the same spec can recompute the exact run locally
 * and check the daemon's answer bit for bit (tools/chason_client does
 * exactly that with the y-vector digest).
 *
 * Responses are one JSON line per request, in request order per
 * connection: either a result line ("ok":true with the report fields)
 * or a typed error line ("ok":false, "error" one of kErrBadRequest /
 * kErrOverBudget / kErrQueueFull / kErrShuttingDown).
 */

#ifndef CHASON_SERVE_PROTOCOL_H_
#define CHASON_SERVE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"

namespace chason {
namespace serve {

/** Typed error identifiers carried in the "error" response field. */
inline constexpr const char *kErrBadRequest = "bad_request";
inline constexpr const char *kErrOverBudget = "over_budget";
inline constexpr const char *kErrQueueFull = "queue_full";
inline constexpr const char *kErrShuttingDown = "shutting_down";

/** One parsed request. */
struct Request
{
    /** Client-chosen correlation id (echoed in the response). */
    std::uint64_t id = 0;
    bool hasId = false;

    /** QoS accounting bucket; every tenant gets its own budget. */
    std::string tenant = "default";

    enum class Source
    {
        Dataset, ///< Table-2 tag or collection name
        Path,    ///< Matrix Market file on the daemon's filesystem
        Rmat,    ///< deterministic synthetic R-MAT
    };
    Source source = Source::Dataset;
    std::string dataset;          ///< Source::Dataset
    std::string path;             ///< Source::Path
    std::uint32_t rmatScale = 0;  ///< Source::Rmat
    std::uint64_t rmatEdges = 0;  ///< Source::Rmat: nnz target
    std::uint64_t rmatSeed = 0;   ///< Source::Rmat

    /** Seed of the dense input vector x (BatchJob default). */
    std::uint64_t xSeed = 0x57EE9;

    core::Engine::Kind kind = core::Engine::Kind::Chason;

    /** Scheduler-geometry overrides; 0 keeps the ArchConfig default. */
    std::uint32_t channels = 0;
    std::uint32_t window = 0;
    std::uint32_t rowsPerLane = 0;
    std::uint32_t rawDistance = 0;
    std::uint32_t pes = 0;

    /**
     * Canonical matrix-source key — the daemon's matrix-cache key and
     * the dataset label reported back (engine/x/geometry excluded;
     * they do not change the matrix).
     */
    std::string matrixKey() const;

    /** Apply the geometry overrides to @p config. */
    void applyConfig(arch::ArchConfig &config) const;
};

/**
 * Parse one request line. Returns true and fills @p out, or false
 * with a reason in @p error (the daemon wraps it in a kErrBadRequest
 * response). When the line carried a parsable "id", @p out.id /
 * out.hasId are valid even on failure so the error can be correlated.
 */
bool parseRequest(const std::string &line, Request &out,
                  std::string &error);

/** FNV-1a over the raw float bits — the response's y-vector digest. */
std::uint64_t vectorDigest(const std::vector<float> &y);

/** @p digest as the 16 lowercase hex digits of "ydigest". */
std::string digestHex(std::uint64_t digest);

/** Render a result response line (no trailing newline). */
std::string resultResponse(const Request &request,
                           const core::SpmvReport &report,
                           std::uint64_t ydigest, double serviceMs);

/**
 * Render a typed error response line (no trailing newline). A request
 * whose id never parsed gets "id":null.
 */
std::string errorResponse(bool hasId, std::uint64_t id,
                          const char *errorType,
                          const std::string &detail);

} // namespace serve
} // namespace chason

#endif // CHASON_SERVE_PROTOCOL_H_
