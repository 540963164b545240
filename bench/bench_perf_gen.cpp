/**
 * @file
 * Perf trajectory, materialization leg: how fast the generators build
 * the evaluation matrices, and how fast the cache key is computed over
 * them, emitted as BENCH_gen.json.
 *
 * Every request and every sweep op starts by materializing a matrix
 * (generation, COO->CSR canonicalization) and keying it
 * (core::fingerprint). Tiers, each timed end to end through the public
 * generator call:
 *
 *  - rmat_catalog: the serving catalog's most requested R-MAT shape
 *    (scale 16, 1 M edges);
 *  - zipf_tr: Table 2's TR (zipfRows, 0.75 M nnz);
 *  - pa_sc: Table 2's SC (preferentialAttachment, 0.9 M nnz);
 *  - blockdiag / poisson: the largest blockDiagonal and poisson2d
 *    cells of sweepCorpus(800);
 *  - fingerprint: core::fingerprint of the rmat_catalog matrix.
 *
 * throughput_per_s is result non-zeros per second and ns_per_nnz its
 * inverse. The checksum is a CSR-bit digest of the matrix (top 53 bits,
 * exact in the JSON double): generation must stay bit-identical, so an
 * A/B pair must report equal checksums tier for tier. The fingerprint
 * tier carries its input's digest, since the key itself may change.
 *
 * Knobs: --out changes the report path.
 */

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/bitfield.h"
#include "common/logging.h"
#include "core/schedule_cache.h"
#include "perf_emit.h"
#include "sparse/dataset.h"
#include "sparse/generators.h"
#include "support.h"

using namespace chason;

namespace {

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Every bit of @p a: shape, row pointers, columns, value bits. */
double
csrChecksum(const sparse::CsrMatrix &a)
{
    std::uint64_t h = 0x243f6a8885a308d3ull;
    auto add = [&h](std::uint64_t w) { h = mix64(h ^ w) + 0x9e37ull; };
    add(a.rows());
    add(a.cols());
    add(a.nnz());
    for (std::size_t p : a.rowPtr())
        add(p);
    for (std::size_t i = 0; i < a.nnz(); ++i)
        add((static_cast<std::uint64_t>(a.colIdx()[i]) << 32) |
            floatToBits(a.values()[i]));
    return static_cast<double>(h >> 11);
}

/** sweepCorpus(800) entry @p index, by name check. */
std::function<sparse::CsrMatrix()>
corpusEntry(std::size_t index, const char *name)
{
    std::vector<sparse::SweepEntry> corpus = sparse::sweepCorpus(index + 1);
    chason_assert(corpus[index].name == name, "corpus entry %zu is %s",
                  index, corpus[index].name.c_str());
    return corpus[index].generate;
}

struct GenTier
{
    const char *name;
    std::function<sparse::CsrMatrix()> generate;
};

/** Warm up once, then time @p body under the keepTiming policy. */
std::vector<double>
timeTier(const char *name, const std::function<void()> &body)
{
    const bench::PerfTier policy{name, 0, 0, 1, 5};
    for (unsigned w = 0; w < policy.warmups; ++w)
        body();
    std::vector<double> times_ms;
    while (bench::keepTiming(policy, times_ms)) {
        const double t0 = bench::nowMs();
        body();
        times_ms.push_back(bench::nowMs() - t0);
    }
    return times_ms;
}

bench::PerfSample
sampleOf(const char *name, const sparse::CsrMatrix &a,
         const std::vector<double> &times_ms)
{
    bench::PerfSample s;
    s.tier = name;
    s.rows = a.rows();
    s.cols = a.cols();
    s.nnz = a.nnz();
    s.warmups = 1;
    s.iterations = static_cast<unsigned>(times_ms.size());
    s.medianMs = bench::medianOf(times_ms);
    s.throughputPerS = static_cast<double>(a.nnz()) / (s.medianMs * 1e-3);
    s.nsPerNnz = s.medianMs * 1e6 / static_cast<double>(a.nnz());
    s.checksum = csrChecksum(a);
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_gen.json";
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--out") == 0)
            out = argv[i + 1];
    }

    bench::printHeader("Perf trajectory: matrix materialization and keying",
                       "docs/PERFORMANCE.md (BENCH_gen.json)");

    const std::vector<GenTier> tiers = {
        {"rmat_catalog",
         [] {
             Rng rng(0xca7a1060u);
             return sparse::rmat(16, 1000000, rng);
         }},
        {"zipf_tr", sparse::table2ByTag("TR").generate},
        {"pa_sc", sparse::table2ByTag("SC").generate},
        {"blockdiag", corpusEntry(276, "blockdiag_276")},
        {"poisson", corpusEntry(38, "poisson_38")},
    };

    std::vector<bench::PerfSample> samples;
    sparse::CsrMatrix keyed;
    for (const GenTier &tier : tiers) {
        sparse::CsrMatrix a;
        const std::vector<double> times =
            timeTier(tier.name, [&] { a = tier.generate(); });
        samples.push_back(sampleOf(tier.name, a, times));
        const bench::PerfSample &s = samples.back();
        std::printf("%-13s %9zu nnz  median %8.2f ms  %6.1f ns/nnz  "
                    "(%u runs)\n",
                    s.tier.c_str(), s.nnz, s.medianMs, s.nsPerNnz,
                    s.iterations);
        if (samples.size() == 1)
            keyed = std::move(a);
    }

    core::MatrixFingerprint fp;
    const std::vector<double> times =
        timeTier("fingerprint", [&] { fp = core::fingerprint(keyed); });
    samples.push_back(sampleOf("fingerprint", keyed, times));
    std::printf("%-13s %9zu nnz  median %8.3f ms  %6.2f ns/nnz  "
                "(%u runs, key %016llx%016llx)\n",
                "fingerprint", keyed.nnz(), samples.back().medianMs,
                samples.back().nsPerNnz, samples.back().iterations,
                static_cast<unsigned long long>(fp.hi),
                static_cast<unsigned long long>(fp.lo));

    bench::writePerfJson(out, "gen", "nnz_per_s", samples);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
