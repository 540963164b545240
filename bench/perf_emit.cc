/**
 * @file
 * Perf emitter implementation.
 */

#include "perf_emit.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>

#include "common/buildinfo.h"
#include "common/env.h"
#include "common/json.h"
#include "common/logging.h"

namespace chason {
namespace bench {

namespace {

/** The first "model name" of /proc/cpuinfo; "unknown" off Linux. */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon != std::string::npos && colon + 2 <= line.size())
            return line.substr(colon + 2);
    }
    return "unknown";
}

} // namespace

const std::vector<PerfTier> &
perfTiers()
{
    // Iteration counts are sized so the full ladder stays in the low
    // tens of seconds on one core; the large tier matches the R-MAT
    // workload PERFORMANCE.md quotes its before/after numbers on.
    static const std::vector<PerfTier> tiers = {
        {"small", 14, 1u << 17, 1, 9},
        {"medium", 17, 1u << 20, 1, 5},
        {"large", 19, 1u << 22, 1, 3},
    };
    return tiers;
}

std::vector<PerfTier>
selectedPerfTiers()
{
    const std::string list = common::envString("CHASON_PERF_TIERS");
    if (list.empty())
        return perfTiers();
    std::vector<PerfTier> out;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        const std::string name = list.substr(pos, comma - pos);
        if (!name.empty()) {
            bool found = false;
            for (const PerfTier &t : perfTiers()) {
                if (name == t.name) {
                    out.push_back(t);
                    found = true;
                    break;
                }
            }
            chason_assert(found, "CHASON_PERF_TIERS names unknown tier "
                          "'%s'", name.c_str());
        }
        pos = comma + 1;
    }
    chason_assert(!out.empty(), "CHASON_PERF_TIERS selected no tiers");
    return out;
}

bool
keepTiming(const PerfTier &tier, const std::vector<double> &times_ms)
{
    if (times_ms.size() < tier.iterations)
        return true;
    if (times_ms.size() >= kMaxTimedIterations)
        return false;
    double total = 0.0;
    for (const double t : times_ms)
        total += t;
    return total < kMinMeasuredMs;
}

double
nowMs()
{
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration<double, std::milli>(t).count();
}

double
medianOf(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    if (n % 2 == 1)
        return samples[n / 2];
    return 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string
gitRevision()
{
    // Resolution (override env var, live git query with -dirty marking,
    // configure-time fallback) lives in common/buildinfo.cc so the
    // SARIF emitters stamp the same revision string the BENCH reports
    // carry.
    return common::gitRevision();
}

void
writePerfJson(const std::string &path, const std::string &bench,
              const std::string &unit,
              const std::vector<PerfSample> &samples)
{
    // Fields a bench does not measure are left out, not written as a
    // misleading 0 (a zero cycle count means "does not simulate").
    common::JsonWriter out(common::JsonWriter::Layout::MultiLine);
    out.object([&] {
        out.field("bench", bench)
            .field("unit", unit)
            .field("git_rev", gitRevision());
        out.object("host", [&] {
            out.field("nproc", std::thread::hardware_concurrency())
                .field("cpu_model", cpuModel())
                .field("compiler", __VERSION__);
        });
        out.array("tiers", [&] {
            for (const PerfSample &s : samples) {
                out.object([&] {
                    out.field("tier", s.tier);
                    if (s.rows != 0)
                        out.field("rows", s.rows);
                    if (s.cols != 0)
                        out.field("cols", s.cols);
                    out.field("nnz", s.nnz)
                        .field("warmups", s.warmups)
                        .field("iterations", s.iterations)
                        .field("median_ms", s.medianMs)
                        .field("throughput_per_s", s.throughputPerS);
                    if (s.cycles != 0)
                        out.field("cycles", s.cycles);
                    out.field("checksum", s.checksum);
                    if (s.coldMedianMs > 0.0)
                        out.field("cold_median_ms", s.coldMedianMs);
                    if (s.jobsCount > 0)
                        out.field("jobs", s.jobsCount);
                    if (s.scalingEfficiency >= 0.0)
                        out.field("scaling_efficiency",
                                  s.scalingEfficiency);
                    if (s.cacheHitRate >= 0.0)
                        out.field("cache_hit_rate", s.cacheHitRate);
                    if (s.nsPerNnz > 0.0)
                        out.field("ns_per_nnz", s.nsPerNnz);
                    if (s.unplannedMs > 0.0)
                        out.field("unplanned_ms", s.unplannedMs);
                    if (s.planBuildMs > 0.0)
                        out.field("plan_build_ms", s.planBuildMs);
                    if (s.separateMs > 0.0)
                        out.field("separate_ms", s.separateMs);
                    if (s.pairMs > 0.0)
                        out.field("pair_ms", s.pairMs);
                });
            }
        });
    });
    std::ofstream file(path);
    file << out.str() << '\n';
    chason_assert(file.good(), "cannot write %s", path.c_str());
}

} // namespace bench
} // namespace chason
