/**
 * @file
 * Perf trajectory, fleet leg: BatchEngine scheduling throughput over a
 * zipf-weighted R-MAT catalog, emitted as BENCH_batch.json.
 *
 * The paper's economics amortize CrHCS preprocessing over many SpMV
 * launches, which only works if the scheduler can feed a whole fleet
 * of matrices at batch rates. This bench drives core::BatchEngine the
 * way the serving daemon would: a catalog of distinct R-MAT matrices,
 * a job list that revisits them with zipf-weighted popularity (hot
 * matrices dominate, the tail stays cold — the cache's workload), and
 * one shared ScheduleCache per batch. Every batch starts from a fresh
 * engine so each iteration pays the same mix of real scheduling work
 * and cache hits instead of devolving into a pure hit-rate loop.
 *
 * Per jobs tier (workers = 1, 2, 4 and the machine's default) the
 * report carries schedules/sec (jobs served per wall second),
 * scaling_efficiency — throughput relative to jobs=1 normalized by the
 * *effective* parallelism min(jobs, hardware workers), so the number
 * reads as pool overhead rather than punishing small machines for not
 * having cores — and the cache hit rate. The checksum sums every
 * job's schedule-artifact byte count and is asserted identical across
 * all jobs tiers: worker count must never change one scheduled byte.
 *
 * Knobs: --out changes the report path.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/batch_engine.h"
#include "perf_emit.h"
#include "sched/crhcs.h"
#include "sched/schedule_io.h"
#include "sparse/generators.h"
#include "support.h"

using namespace chason;

namespace {

/** Catalog ranks, hottest first; sizes mix so a batch interleaves a
 *  medium schedule with a tail of small ones. */
constexpr std::uint32_t kCatalogScales[] = {13, 13, 12, 12, 12,
                                            11, 11, 11};
constexpr std::size_t kCatalogSize =
    sizeof(kCatalogScales) / sizeof(kCatalogScales[0]);

/** Jobs per batch; zipf-weighted picks over the catalog. */
constexpr std::size_t kJobsPerBatch = 32;

/** Zipf popularity exponent for the job list. */
constexpr double kZipfS = 1.1;

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_batch.json";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0)
            out = argv[i + 1];
    }

    bench::printHeader(
        "Perf trajectory: batch scheduling throughput (BatchEngine)",
        "docs/PERFORMANCE.md (BENCH_batch.json)");

    // Catalog and job list are pinned: every tier, iteration and
    // machine schedules the identical workload.
    Rng rng = bench::tierRng("batch");
    std::vector<sparse::CsrMatrix> catalog;
    for (std::size_t r = 0; r < kCatalogSize; ++r) {
        const std::uint32_t scale = kCatalogScales[r];
        catalog.push_back(
            sparse::rmat(scale, std::size_t{8} << scale, rng));
    }
    std::vector<std::size_t> job_matrix(kJobsPerBatch);
    std::size_t batch_nnz = 0;
    for (std::size_t j = 0; j < kJobsPerBatch; ++j) {
        job_matrix[j] = static_cast<std::size_t>(
            rng.nextZipf(kCatalogSize, kZipfS));
        batch_nnz += catalog[job_matrix[j]].nnz();
    }

    const sched::SchedConfig config;
    const sched::CrhcsScheduler scheduler(config);
    const unsigned hw = core::ThreadPool::defaultWorkers();

    std::vector<unsigned> jobs_tiers = {1, 2, 4, hw > 0 ? hw : 1};
    const char *tier_names[] = {"jobs1", "jobs2", "jobs4", "jobsN"};

    std::vector<bench::PerfSample> samples;
    double base_throughput = 0.0;
    std::uint64_t ref_checksum = 0;
    for (std::size_t ti = 0; ti < jobs_tiers.size(); ++ti) {
        const unsigned jobs = jobs_tiers[ti];
        const bench::PerfTier tier{tier_names[ti], 0, 0, 1, 3};

        // One batch = a fresh engine (cold cache) serving the whole
        // job list through the cache-backed scheduling path.
        std::uint64_t checksum = 0;
        double hit_rate = 0.0;
        const auto runBatch = [&]() {
            core::BatchOptions opts;
            opts.workers = jobs;
            core::BatchEngine engine(opts);
            std::vector<std::uint64_t> bytes(kJobsPerBatch, 0);
            engine.parallelFor(kJobsPerBatch, [&](std::size_t j) {
                const auto s = engine.schedule(
                    scheduler, catalog[job_matrix[j]]);
                bytes[j] = sched::scheduleArtifactBytes(*s);
            });
            std::uint64_t sum = 0;
            for (const std::uint64_t b : bytes)
                sum += b;
            checksum = sum;
            hit_rate = engine.cache().stats().hitRate();
        };

        for (unsigned w = 0; w < tier.warmups; ++w)
            runBatch();
        std::vector<double> times_ms;
        while (bench::keepTiming(tier, times_ms)) {
            const double t0 = bench::nowMs();
            runBatch();
            times_ms.push_back(bench::nowMs() - t0);
        }

        if (ti == 0)
            ref_checksum = checksum;
        chason_assert(checksum == ref_checksum,
                      "schedules differ at jobs=%u (checksum %llu vs "
                      "%llu)", jobs,
                      static_cast<unsigned long long>(checksum),
                      static_cast<unsigned long long>(ref_checksum));

        bench::PerfSample s;
        s.tier = tier.name;
        s.nnz = batch_nnz;
        s.warmups = tier.warmups;
        s.iterations = static_cast<unsigned>(times_ms.size());
        s.medianMs = bench::medianOf(times_ms);
        s.throughputPerS = static_cast<double>(kJobsPerBatch) /
            (s.medianMs / 1000.0);
        s.checksum = static_cast<double>(checksum);
        s.jobsCount = jobs;
        if (ti == 0)
            base_throughput = s.throughputPerS;
        const double effective =
            static_cast<double>(jobs < hw ? jobs : hw);
        s.scalingEfficiency = base_throughput > 0.0
            ? s.throughputPerS / (base_throughput * effective)
            : 0.0;
        s.cacheHitRate = hit_rate;
        samples.push_back(s);

        std::printf("%-6s (%2u workers)  median %8.2f ms  %8.2f "
                    "sched/s  eff %.2f  hit %.2f\n",
                    s.tier.c_str(), jobs, s.medianMs, s.throughputPerS,
                    s.scalingEfficiency, s.cacheHitRate);
    }

    bench::writePerfJson(out, "batch", "schedules_per_s", samples);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
