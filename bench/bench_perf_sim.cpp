/**
 * @file
 * Perf trajectory, simulation leg: streaming-simulation throughput over
 * the R-MAT ladder, emitted as BENCH_sim.json.
 *
 * Measures Accelerator::run with a StreamPlan — the fast path an
 * offline schedule amortizes over many SpMV invocations — in simulated
 * cycles per wall second. Before timing, each tier once asserts that
 * the planned run is bit-identical (y and every cycle counter) to the
 * plain run(), so the reported speed provably changes no simulated
 * result. The checksum is the double sum of y. Each tier also records
 * what the plan replaces and costs — the unplanned run() and the plan
 * build as `unplanned_ms` / `plan_build_ms`, beside the `jobs` the
 * channel fan-out ran at — and prints the plan's bytes per non-zero.
 * None of the three is gated.
 *
 * Knobs: CHASON_PERF_TIERS picks tiers, CHASON_JOBS the simulator's
 * fan-out width, --out changes the report path.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/chason_accel.h"
#include "arch/stream_soa.h"
#include "common/logging.h"
#include "core/thread_pool.h"
#include "perf_emit.h"
#include "sched/crhcs.h"
#include "sparse/generators.h"
#include "support.h"

using namespace chason;

namespace {

/** Repetitions behind the unplanned-run and plan-build medians. */
constexpr unsigned kSideRuns = 5;

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_sim.json";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0)
            out = argv[i + 1];
    }

    bench::printHeader("Perf trajectory: streaming simulation throughput",
                       "docs/PERFORMANCE.md (BENCH_sim.json)");
    std::printf("SoA gather path: %s\n",
                arch::streamSoaUsesAvx2() ? "AVX2" : "scalar");

    arch::ArchConfig ac;
    const arch::ChasonAccelerator accel(ac);
    const sched::CrhcsScheduler scheduler(ac.sched);

    std::vector<bench::PerfSample> samples;
    for (const bench::PerfTier &tier : bench::selectedPerfTiers()) {
        Rng rng = bench::tierRng(tier.name);
        const sparse::CsrMatrix a =
            sparse::rmat(tier.scale, tier.nnzTarget, rng);
        const std::vector<float> x = sparse::randomVector(a.cols(), rng);

        const sched::Schedule schedule = scheduler.schedule(a);
        const arch::StreamPlan plan(schedule, accel.migrationDepth());

        // Identity gate: the fast path must not change one bit of the
        // simulated outcome before its speed is worth reporting.
        const arch::RunResult ref = accel.run(schedule, x);
        const arch::RunResult planned = accel.run(schedule, plan, x);
        chason_assert(ref.y == planned.y &&
                          ref.cycles.total() == planned.cycles.total(),
                      "planned run diverged from run() on tier %s",
                      tier.name);

        for (unsigned w = 0; w < tier.warmups; ++w)
            (void)accel.run(schedule, plan, x);

        std::vector<double> times_ms;
        double checksum = 0.0;
        std::uint64_t cycles = 0;
        while (bench::keepTiming(tier, times_ms)) {
            const double t0 = bench::nowMs();
            const arch::RunResult r = accel.run(schedule, plan, x);
            times_ms.push_back(bench::nowMs() - t0);
            cycles = r.cycles.total();
            checksum = 0.0;
            for (float v : r.y)
                checksum += static_cast<double>(v);
        }

        // What the plan saves and costs, each the median of a few runs.
        std::vector<double> unplanned_ms;
        std::vector<double> build_ms;
        for (unsigned i = 0; i < kSideRuns; ++i) {
            double t0 = bench::nowMs();
            (void)accel.run(schedule, x);
            unplanned_ms.push_back(bench::nowMs() - t0);
            t0 = bench::nowMs();
            const arch::StreamPlan built(schedule, accel.migrationDepth());
            build_ms.push_back(bench::nowMs() - t0);
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
            static_cast<double>(cycles) / (s.medianMs / 1000.0);
        s.cycles = cycles;
        s.checksum = checksum;
        s.jobsCount = core::resolveJobs(0);
        s.unplannedMs = bench::medianOf(unplanned_ms);
        s.planBuildMs = bench::medianOf(build_ms);
        samples.push_back(s);

        std::printf("%-7s %9zu nnz  %8llu cycles  median %7.2f ms  "
                    "%10.3g cycles/s\n",
                    s.tier.c_str(), s.nnz,
                    static_cast<unsigned long long>(s.cycles),
                    s.medianMs, s.throughputPerS);
        std::printf("%-7s unplanned %7.2f ms  plan build %7.2f ms  "
                    "plan %5.2f B/nnz  jobs %u\n",
                    "", s.unplannedMs, s.planBuildMs,
                    static_cast<double>(plan.memoryBytes()) /
                        static_cast<double>(a.nnz()),
                    s.jobsCount);
    }

    bench::writePerfJson(out, "sim", "cycles_per_s", samples);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
