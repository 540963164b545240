/**
 * @file
 * Trace exporters: Chrome trace_event JSON and flat counters JSON.
 *
 * The Chrome format (loadable in chrome://tracing and Perfetto) gets
 * two processes: pid 1 is the device timeline, where one trace
 * microsecond renders one simulated kernel cycle and each PEG is a
 * named thread; pid 2 is the host timeline in real microseconds
 * (scheduler phases, batch jobs, counter samples). The flat counters
 * JSON carries the monotonic counters plus per-category cycle totals,
 * shaped for merging into report JSON (see docs/TRACE_SCHEMA.md).
 */

#ifndef CHASON_TRACE_CHROME_EXPORT_H_
#define CHASON_TRACE_CHROME_EXPORT_H_

#include <string>

#include "common/json.h"
#include "trace/trace.h"

namespace chason {
namespace trace {

/** The complete Chrome trace_event JSON document for @p sink. */
std::string chromeTraceJson(const TraceSink &sink);

/** Write the Chrome trace to @p path; fatal() when unwritable. */
void writeChromeTraceFile(const TraceSink &sink, const std::string &path);

/**
 * The flat counters members — "counters": {...}, "category_cycles":
 * {...}, "peg_matrix_stream_cycles": [...] — written into the object
 * @p out has open, for embedding in a report object.
 */
void writeCounters(common::JsonWriter &out, const TraceSink &sink);

/** writeCounters() as one compact JSON object. */
std::string countersJson(const TraceSink &sink);

} // namespace trace
} // namespace chason

#endif // CHASON_TRACE_CHROME_EXPORT_H_
