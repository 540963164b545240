/**
 * @file
 * Trace exporter implementation.
 */

#include "trace/chrome_export.h"

#include <fstream>
#include <set>

#include "common/logging.h"

namespace chason {
namespace trace {

namespace {

constexpr int kDevicePid = 1;
constexpr int kHostPid = 2;

/** One "M" (metadata) event naming a process or, with tid >= 0, a
 *  thread. */
void
writeMetadata(common::JsonWriter &out, const char *kind, int pid,
              long long tid, const std::string &name)
{
    out.object([&] {
        out.field("name", kind).field("ph", "M").field("pid", pid);
        if (tid >= 0)
            out.field("tid", tid);
        out.object("args", [&] { out.field("name", name); });
    });
}

std::string
deviceTrackName(std::uint32_t track)
{
    if (track == kTrackSequencer)
        return "sequencer";
    return "PEG " + std::to_string(track);
}

} // namespace

std::string
chromeTraceJson(const TraceSink &sink)
{
    const auto spans = sink.spans();
    const auto instants = sink.instants();
    const auto samples = sink.samples();

    std::set<std::uint32_t> device_tracks, host_tracks;
    for (const SpanEvent &s : spans)
        (s.device ? device_tracks : host_tracks).insert(s.track);
    for (const InstantEvent &i : instants)
        host_tracks.insert(i.track);

    common::JsonWriter out;
    out.object([&] {
        out.field("displayTimeUnit", "ms");
        out.array("traceEvents", [&] {
            writeMetadata(out, "process_name", kDevicePid, -1,
                          "chason device (1 us = 1 kernel cycle)");
            writeMetadata(out, "process_name", kHostPid, -1,
                          "chason host");
            for (std::uint32_t t : device_tracks)
                writeMetadata(out, "thread_name", kDevicePid, t,
                              deviceTrackName(t));
            for (std::uint32_t t : host_tracks)
                writeMetadata(out, "thread_name", kHostPid, t,
                              "host thread " + std::to_string(t));

            for (const SpanEvent &s : spans) {
                out.object([&] {
                    out.field("ph", "X").field("name", s.name);
                    out.field("cat", categoryName(s.cat))
                        .field("pid", s.device ? kDevicePid : kHostPid)
                        .field("tid", s.track);
                    out.field("ts", s.begin).field("dur", s.dur);
                    if (s.argName0) {
                        out.object("args", [&] {
                            out.field(s.argName0, s.argVal0);
                            if (s.argName1)
                                out.field(s.argName1, s.argVal1);
                        });
                    }
                });
            }

            for (const InstantEvent &i : instants) {
                out.object([&] {
                    out.field("ph", "i").field("name", i.name);
                    out.field("s", "t").field("pid", kHostPid);
                    out.field("tid", i.track).field("ts", i.tsUs);
                });
            }

            for (const CounterSample &c : samples) {
                out.object([&] {
                    out.field("ph", "C").field("name", c.name);
                    out.field("pid", kHostPid).field("tid", 0);
                    out.field("ts", c.tsUs);
                    out.object("args", [&] { out.field("value", c.value); });
                });
            }
        });
    });
    return out.str();
}

void
writeChromeTraceFile(const TraceSink &sink, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        chason_fatal("cannot create trace file '%s'", path.c_str());
    out << chromeTraceJson(sink);
    if (!out.good())
        chason_fatal("failed writing trace file '%s'", path.c_str());
}

void
writeCounters(common::JsonWriter &out, const TraceSink &sink)
{
    out.object("counters", [&] {
        for (const auto &[name, value] : sink.counters())
            out.field(name, value);
    });
    out.object("category_cycles", [&] {
        for (const auto &[name, value] : sink.categoryCycles())
            out.field(name, value);
    });
    out.array("peg_matrix_stream_cycles", [&] {
        for (const auto &[track, value] : sink.pegStreamCycles()) {
            (void)track;
            out.value(value);
        }
    });
}

std::string
countersJson(const TraceSink &sink)
{
    common::JsonWriter out;
    out.object([&] { writeCounters(out, sink); });
    return out.str();
}

} // namespace trace
} // namespace chason
