/**
 * @file
 * Perf trajectory, scheduling leg: CrHCS throughput over the R-MAT
 * ladder, emitted as BENCH_sched.json.
 *
 * Measures CrhcsScheduler::schedule end to end (PE-aware construction +
 * beat-synchronous migration + placement) in steady state. Throughput
 * is nnz scheduled per second; the checksum is the schedule's exact
 * artifact byte count, so an A/B pair can prove both sides scheduled
 * the identical workload into the identical schedule.
 *
 * The pair row: per tier, the median of the two separate builds the
 * paper's comparison needs (CrHCS, then its PE-aware baseline) as
 * `separate_ms` against one scheduleWithBaseline() build as `pair_ms`.
 * Before timing, both schedules of the pair build must digest exactly
 * like the separate builds, or the bench exits 1.
 *
 * Knobs: CHASON_PERF_TIERS picks tiers, CHASON_JOBS (or the more
 * specific CHASON_SCHED_JOBS) sets the phase-level worker count, --out
 * changes the report path.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "perf_emit.h"
#include "sched/artifact.h"
#include "sched/crhcs.h"
#include "sched/schedule_io.h"
#include "sparse/generators.h"
#include "support.h"

using namespace chason;

namespace {

/** Digest of every beat byte of @p s, phase by phase and channel by
 *  channel, plus its metadata. */
std::uint64_t
scheduleDigest(const sched::Schedule &s)
{
    std::uint64_t h = sched::artifactHash(s.scheduler.data(),
                                          s.scheduler.size()) ^
        s.config.migrationDepth;
    for (const sched::WindowSchedule &phase : s.phases)
        for (const sched::ChannelWindowSchedule &ch : phase.channels)
            h = h * 0x100000001b3ull ^
                sched::artifactHash(ch.beats.data(),
                                    ch.length() * sizeof(sched::Beat));
    return h;
}

/** Median of timed runs of @p body under the tier's policy. */
template <typename Body>
double
timeMedian(const bench::PerfTier &tier, Body body)
{
    for (unsigned w = 0; w < tier.warmups; ++w)
        body();
    std::vector<double> times_ms;
    while (bench::keepTiming(tier, times_ms)) {
        const double t0 = bench::nowMs();
        body();
        times_ms.push_back(bench::nowMs() - t0);
    }
    return bench::medianOf(times_ms);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_sched.json";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0)
            out = argv[i + 1];
    }

    bench::printHeader("Perf trajectory: CrHCS scheduling throughput",
                       "docs/PERFORMANCE.md (BENCH_sched.json)");

    const sched::SchedConfig config;
    const sched::CrhcsScheduler scheduler(config);
    const sched::PeAwareScheduler baseline = scheduler.baseline();

    std::vector<bench::PerfSample> samples;
    for (const bench::PerfTier &tier : bench::selectedPerfTiers()) {
        Rng rng = bench::tierRng(tier.name);
        const sparse::CsrMatrix a =
            sparse::rmat(tier.scale, tier.nnzTarget, rng);

        for (unsigned w = 0; w < tier.warmups; ++w)
            (void)scheduler.schedule(a);

        std::vector<double> times_ms;
        std::uint64_t artifact = 0;
        while (bench::keepTiming(tier, times_ms)) {
            const double t0 = bench::nowMs();
            const sched::Schedule s = scheduler.schedule(a);
            times_ms.push_back(bench::nowMs() - t0);
            artifact = sched::scheduleArtifactBytes(s);
        }

        bench::PerfSample s;
        s.tier = tier.name;
        s.rows = a.rows();
        s.cols = a.cols();
        s.nnz = a.nnz();
        s.warmups = tier.warmups;
        s.iterations = static_cast<unsigned>(times_ms.size());
        s.medianMs = bench::medianOf(times_ms);
        s.throughputPerS =
            static_cast<double>(a.nnz()) / (s.medianMs / 1000.0);
        s.checksum = static_cast<double>(artifact);

        // The pair row: proven identical first, then timed.
        const sched::SchedulePair pair = scheduler.scheduleWithBaseline(a);
        if (scheduleDigest(pair.crhcs) !=
                scheduleDigest(scheduler.schedule(a)) ||
            scheduleDigest(pair.peAware) !=
                scheduleDigest(baseline.schedule(a))) {
            std::fprintf(stderr,
                         "%s: the pair build differs from the separate "
                         "builds\n",
                         tier.name);
            return 1;
        }
        s.separateMs = timeMedian(tier, [&] {
            (void)scheduler.schedule(a);
            (void)baseline.schedule(a);
        });
        s.pairMs = timeMedian(
            tier, [&] { (void)scheduler.scheduleWithBaseline(a); });
        samples.push_back(s);

        std::printf("%-7s %9zu nnz  median %8.2f ms  %10.3g nnz/s  "
                    "separate %8.2f ms  pair %8.2f ms\n",
                    s.tier.c_str(), s.nnz, s.medianMs, s.throughputPerS,
                    s.separateMs, s.pairMs);
    }

    bench::writePerfJson(out, "sched", "nnz_per_s", samples);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
