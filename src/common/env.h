/**
 * @file
 * The tree's single gateway to process environment variables.
 *
 * std::getenv returns a pointer into the environment block, which a
 * concurrent setenv may invalidate — the reason clang-tidy's
 * concurrency-mt-unsafe flags every call site. Chasoň never calls
 * setenv (tests do, from single-threaded test bodies), and lookups
 * happen at tool/bench startup, inside a once-per-thread constructor
 * or in core::resolveJobs when a fan-out sizes itself, but rather
 * than suppress the check tree-wide (which would also hide a future
 * rand() or strtok()), all reads funnel through these helpers: the
 * value is copied out under the single audited call, and the
 * suppression lives on exactly one line.
 */

#ifndef CHASON_COMMON_ENV_H_
#define CHASON_COMMON_ENV_H_

#include <cstdint>
#include <string>

namespace chason {
namespace common {

/**
 * Value of environment variable @p name, or @p fallback when unset.
 * An empty value is returned as-is (callers that treat empty as unset
 * check .empty() themselves).
 */
std::string envString(const char *name, const std::string &fallback = "");

/** True when @p name is set, even to an empty string. */
bool envIsSet(const char *name);

/**
 * Numeric value of @p name, or @p fallback on any failure to produce
 * one. Parsed with base-10 strtoll; the whole value must be one
 * non-negative integer (leading whitespace allowed, nothing after the
 * digits). Unset, empty, garbage, trailing junk ("4x"), negative and
 * out-of-range values all return @p fallback — a broken knob must
 * degrade to the documented default, never to a silent 0 that turns
 * the feature off (CHASON_JOBS=garbage used to disable parallelism).
 */
std::uint64_t envUint(const char *name, std::uint64_t fallback);

} // namespace common
} // namespace chason

#endif // CHASON_COMMON_ENV_H_
