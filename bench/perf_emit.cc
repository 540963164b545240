/**
 * @file
 * Perf emitter implementation.
 */

#include "perf_emit.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/buildinfo.h"
#include "common/env.h"
#include "common/logging.h"

namespace chason {
namespace bench {

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
    FILE *f = std::fopen(path.c_str(), "w");
    chason_assert(f != nullptr, "cannot write %s", path.c_str());
    std::fprintf(f, "{\"bench\":\"%s\",\"unit\":\"%s\",\"git_rev\":\"%s\","
                 "\n \"tiers\":[\n", bench.c_str(), unit.c_str(),
                 gitRevision().c_str());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const PerfSample &s = samples[i];
        std::fprintf(
            f,
            "  {\"tier\":\"%s\",\"rows\":%u,\"cols\":%u,\"nnz\":%zu,"
            "\"warmups\":%u,\"iterations\":%u,\"median_ms\":%.6g,"
            "\"throughput_per_s\":%.6g",
            s.tier.c_str(), s.rows, s.cols, s.nnz, s.warmups,
            s.iterations, s.medianMs, s.throughputPerS);
        // A zero cycle count means "this bench does not simulate", not
        // "it simulated nothing" — leave the field out rather than
        // emit a misleading number.
        if (s.cycles != 0)
            std::fprintf(f, ",\"cycles\":%llu",
                         static_cast<unsigned long long>(s.cycles));
        std::fprintf(f, ",\"checksum\":%.17g", s.checksum);
        if (s.coldMedianMs > 0.0)
            std::fprintf(f, ",\"cold_median_ms\":%.6g", s.coldMedianMs);
        if (s.jobsCount > 0)
            std::fprintf(f, ",\"jobs\":%u", s.jobsCount);
        if (s.scalingEfficiency >= 0.0)
            std::fprintf(f, ",\"scaling_efficiency\":%.6g",
                         s.scalingEfficiency);
        if (s.cacheHitRate >= 0.0)
            std::fprintf(f, ",\"cache_hit_rate\":%.6g", s.cacheHitRate);
        if (s.nsPerNnz > 0.0)
            std::fprintf(f, ",\"ns_per_nnz\":%.6g", s.nsPerNnz);
        std::fprintf(f, "}%s\n", i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(f, " ]}\n");
    std::fclose(f);
}

} // namespace bench
} // namespace chason
