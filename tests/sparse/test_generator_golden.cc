/**
 * @file
 * Golden bit-identity tests for matrix materialization.
 *
 * Every workload in this repository is a generated matrix, so the
 * generators, the RNG and COO->CSR canonicalization are the dataset:
 * a change that moves one value bit moves every BENCH checksum, every
 * EXPERIMENTS.md figure and every served y-digest. The constants below
 * were recorded from the straightforward implementation (branchy R-MAT
 * quadrant draws, out-of-line Rng members, copy-then-sort
 * canonicalization with a two-field comparator); any faster
 * implementation must reproduce them exactly, including where each
 * generator leaves its Rng.
 *
 * The CSR digest is defined here, independent of core::fingerprint, so
 * a change to the cache key cannot mask a change to the matrices.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sparse/dataset.h"
#include "sparse/generators.h"
#include "sparse/matrix_market.h"

namespace chason {
namespace sparse {
namespace {

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint32_t
bitsOf(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

/** Every bit of a CSR matrix: shape, row pointers, columns, values. */
std::uint64_t
csrDigest(const CsrMatrix &a)
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
            bitsOf(a.values()[i]));
    return h;
}

/** The Table 2 per-entry seed (FNV-1a of the tag). */
std::uint64_t
entrySeed(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * One golden case: a generator call with an explicit Rng, its CSR
 * digest, and the next raw draw of that Rng afterwards (the RNG end
 * state — a faster generator must consume exactly the same draws).
 */
struct GoldenCase
{
    std::string name;
    std::uint64_t seed;
    std::function<CsrMatrix(Rng &)> generate;
};

struct GoldenValue
{
    const char *name;
    std::uint64_t digest;
    std::uint64_t endDraw;
};

/** The Table 2 generator calls, mirroring sparse/dataset.cc. */
std::vector<GoldenCase>
table2Cases()
{
    auto arrow = [](std::uint32_t n, std::uint32_t band, double fill,
                    std::uint32_t dense) {
        return [=](Rng &rng) {
            return arrowBanded(n, band, fill, dense, rng);
        };
    };
    auto zipf = [](std::uint32_t n, std::size_t nnz, double s) {
        return [=](Rng &rng) { return zipfRows(n, n, nnz, s, rng); };
    };
    auto pa = [](std::uint32_t n, std::uint32_t epn) {
        return [=](Rng &rng) {
            return preferentialAttachment(n, epn, rng);
        };
    };
    std::vector<GoldenCase> cases = {
        {"DY", 0, arrow(3548, 24, 0.120, 4)},
        {"RE", 0, arrow(2719, 28, 0.132, 4)},
        {"C5", 0, zipf(23948, 20278, 1.4)},
        {"MY", 0, [](Rng &) { return mycielskian(12); }},
        {"VS", 0, pa(11042, 14)},
        {"TS", 0, arrow(9774, 84, 0.447, 8)},
        {"LO", 0, arrow(17378, 27, 0.133, 4)},
        {"HA", 0, arrow(10260, 20, 0.126, 3)},
        {"TR", 0, zipf(116835, 749800, 1.15)},
        {"CK", 0, zipf(49702, 333029, 1.2)},
        {"WI", 0, pa(7115, 20)},
        {"EM", 0, pa(36692, 11)},
        {"AS", 0, pa(26475, 4)},
        {"OR", 0, pa(11806, 6)},
        {"WK", 0, pa(10835, 25)},
        {"SC", 0, pa(77360, 14)},
        {"A7", 0, pa(7716, 4)},
        {"CM", 0, pa(1899, 14)},
        {"WB", 0, pa(9914, 4)},
        {"RT", 0, pa(13332, 45)},
    };
    for (GoldenCase &c : cases)
        c.seed = entrySeed(c.name);
    return cases;
}

/** The serving catalog's six R-MAT shapes, at fixed seeds. */
std::vector<GoldenCase>
catalogCases()
{
    struct Shape
    {
        std::uint32_t scale;
        std::size_t edges;
    };
    constexpr Shape kShapes[] = {
        {16, 1000000}, {15, 500000}, {17, 2000000},
        {14, 250000},  {16, 700000}, {17, 1400000},
    };
    std::vector<GoldenCase> cases;
    for (std::size_t i = 0; i < std::size(kShapes); ++i) {
        const Shape s = kShapes[i];
        cases.push_back({"catalog_" + std::to_string(i), 0xca7a1060u + i,
                         [s](Rng &rng) {
                             return rmat(s.scale, s.edges, rng);
                         }});
    }
    return cases;
}

/**
 * sweepCorpus(800) entry @p i as an explicit generator call,
 * mirroring the family / size / degree grid of sparse/dataset.cc.
 */
GoldenCase
corpusCase(std::size_t i)
{
    const std::size_t family = i % 8;
    const std::size_t size_step = (i / 8) % 7;
    const std::size_t deg_step = (i / 56) % 5;
    const std::uint32_t rows = 1024u << size_step;
    const std::uint32_t deg = 2u + 4u * deg_step;
    const std::size_t nnz = static_cast<std::size_t>(rows) * deg;
    std::function<CsrMatrix(Rng &)> gen;
    switch (family) {
      case 0:
        gen = [=](Rng &rng) {
            return preferentialAttachment(rows, deg, rng);
        };
        break;
      case 1: {
        const std::uint32_t scale = 10 + size_step;
        gen = [=](Rng &rng) {
            return rmat(scale, static_cast<std::size_t>(1u << scale) * deg,
                        rng);
        };
        break;
      }
      case 2: {
        const double s = 1.1 + 0.1 * static_cast<double>(deg_step);
        gen = [=](Rng &rng) { return zipfRows(rows, rows, nnz, s, rng); };
        break;
      }
      case 3:
        gen = [=](Rng &rng) {
            return arrowBanded(rows, 4u + 8u * deg_step, 0.25,
                               1u + static_cast<std::uint32_t>(deg_step),
                               rng);
        };
        break;
      case 4:
        gen = [=](Rng &rng) {
            return blockDiagonal(rows, 16u + 16u * deg_step, 0.4, 0.05,
                                 rng);
        };
        break;
      case 5:
        gen = [=](Rng &rng) { return erdosRenyi(rows, rows, nnz, rng); };
        break;
      case 6:
        gen = [=](Rng &) {
            return poisson2d(std::min(32u << size_step, 512u));
        };
        break;
      default:
        gen = [=](Rng &rng) {
            CooMatrix coo(rows, rows);
            for (std::uint32_t r = 0; r < rows; ++r)
                coo.add(r, r,
                        drawValue(rng, ValueDistribution::PositiveUniform));
            for (std::size_t e = 0; e < nnz / 2; ++e) {
                coo.add(static_cast<std::uint32_t>(rng.nextBounded(rows)),
                        static_cast<std::uint32_t>(rng.nextBounded(rows)),
                        drawValue(rng, ValueDistribution::PositiveUniform));
            }
            return coo.toCsr();
        };
        break;
    }
    return {"corpus_" + std::to_string(i), 0x5eed0000ull + i, gen};
}

/** Corpus entries: every family at the smallest cell, then larger. */
const std::vector<std::size_t> &
corpusIndices()
{
    static const std::vector<std::size_t> indices = {
        0,   1,   2,   3,   4,   5,   6,   7,   // every family, 1 K rows
        49,  50,  53,                         // 64 K rows, degree 2
        248, 249, 250, 251, 252, 253, 254, 255, // 8 K rows, degree 18
    };
    return indices;
}

/** Generators and distributions the registries above do not reach. */
std::vector<GoldenCase>
extraCases()
{
    return {
        {"rmat_skewed_signed", 11,
         [](Rng &rng) {
             return rmat(13, 60000, rng, 0.45, 0.15, 0.25,
                         ValueDistribution::SignedUniform);
         }},
        {"rmat_ones", 12,
         [](Rng &rng) {
             return rmat(11, 20000, rng, 0.57, 0.19, 0.19,
                         ValueDistribution::Ones);
         }},
        {"banded", 13, [](Rng &rng) { return banded(5000, 6, 0.7, rng); }},
        {"er_signed", 14,
         [](Rng &rng) {
             return erdosRenyi(3000, 2000, 40000, rng,
                               ValueDistribution::SignedUniform);
         }},
        {"zipf_heavy", 15,
         [](Rng &rng) { return zipfRows(4000, 9000, 50000, 1.05, rng); }},
    };
}

// Recorded from the reference implementation. On a mismatch the test
// prints the row it computed, in this format.
const GoldenValue kTable2Golden[] = {
    {"DY", 0x8ae103c0799b0169ull, 0xec32d1fc50c5808bull},
    {"RE", 0x1c9ab237a565b729ull, 0xa3e510d4d6e6bd0full},
    {"C5", 0xfd012b5d0c609bfcull, 0x3d58b51c49df7060ull},
    {"MY", 0x9f049a02aa71c2a1ull, 0x4a966942aa54eb68ull},
    {"VS", 0xfe4deedab11f979dull, 0x0e5dd5bba66af565ull},
    {"TS", 0xf19c8ede8e9e94b5ull, 0x73778d76ba34ea26ull},
    {"LO", 0x4008829de82bdf20ull, 0xcfd178e162d2315full},
    {"HA", 0x95dd8258037c5394ull, 0x4082b78965b2b240ull},
    {"TR", 0x1d247e9321d27405ull, 0x81cbb0c3fb050571ull},
    {"CK", 0x1f8503ebb8bd7d74ull, 0x56c86721fa4451e3ull},
    {"WI", 0xe93527521f66ba05ull, 0x5006a4f8551b5dd1ull},
    {"EM", 0xae047658a569c37dull, 0x768d90313165d049ull},
    {"AS", 0x70d6114909067106ull, 0x33d5fe8c8b3198a5ull},
    {"OR", 0xcaa051d9fa2af758ull, 0x8d433fdfd1a4ede4ull},
    {"WK", 0x422095ee3fa9339full, 0x503a50d4c4c30594ull},
    {"SC", 0xd83c3c7d6ff08fb8ull, 0x4d65a9415e33411eull},
    {"A7", 0xcb7d116289d729caull, 0xb5c75f54bd747138ull},
    {"CM", 0x4ae2e4cc6a62dfa2ull, 0xd57840bbef9b7fccull},
    {"WB", 0x9d682388fea3dc0dull, 0x6c9a5dfaa54e0985ull},
    {"RT", 0xc9db6b756d92844eull, 0xbde1072b5ba1178dull},
};

const GoldenValue kCatalogGolden[] = {
    {"catalog_0", 0xd4765e47bd756294ull, 0xf602e1d24c0bfe26ull},
    {"catalog_1", 0x82f9bda45b0c480cull, 0x713227796918f06bull},
    {"catalog_2", 0x510d4f4cce91c1f2ull, 0xb47131e44867f4f0ull},
    {"catalog_3", 0x7e81934f0b3963e3ull, 0x922dd55a361e1d4bull},
    {"catalog_4", 0x74228fff27365eeeull, 0x67ceef9027444263ull},
    {"catalog_5", 0xad7c9372e0047aa5ull, 0xb86b8adb46e8f29cull},
};

const GoldenValue kCorpusGolden[] = {
    {"corpus_0", 0x42e05567e0781f1cull, 0xd5ced103ac846fcbull},
    {"corpus_1", 0x95f39a30814a4160ull, 0x1ecee347fd4db965ull},
    {"corpus_2", 0xd52671a72f2f4014ull, 0xcf62c07b0f576abbull},
    {"corpus_3", 0x6aa8c4ba6432cf04ull, 0x9ace538b8c453fabull},
    {"corpus_4", 0x1a654e3e0d7a621cull, 0x16ef34d5d92ff487ull},
    {"corpus_5", 0xa6febdaa46de2e8cull, 0x4c731c41de7a2d18ull},
    {"corpus_6", 0xc6c049cbe0305ccfull, 0xeabdaacc93c67435ull},
    {"corpus_7", 0xd30026f91ebdf2e1ull, 0xe5e3c0faed65ca02ull},
    {"corpus_49", 0x8a83e7edb8b9a2d4ull, 0x314a444c09b0ab61ull},
    {"corpus_50", 0xe5ecdb07a37d05c1ull, 0x3b3c6c5ede0d36beull},
    {"corpus_53", 0xddc5b30de17c092full, 0x3dcbfecaab94c239ull},
    {"corpus_248", 0xe36ca96597d86f5dull, 0xc20dc996243c5a7full},
    {"corpus_249", 0xee2d6dfef7708ca2ull, 0x947ff0fa50fb1499ull},
    {"corpus_250", 0xabf22ec2feef1babull, 0x7b53691b3691efb3ull},
    {"corpus_251", 0x4816b60e09418103ull, 0x0b8a4bb5c446140eull},
    {"corpus_252", 0x72346b12e7835e1bull, 0xf844e84bfc590577ull},
    {"corpus_253", 0x6e7dec625b34081bull, 0xee8dab77ca65f5feull},
    {"corpus_254", 0x2f34e94c03b65003ull, 0xde69feded43e9753ull},
    {"corpus_255", 0x3bfc9d9ff4aaf8ccull, 0xb449de6e14c728faull},
};

const GoldenValue kExtraGolden[] = {
    {"rmat_skewed_signed", 0x1e00995ed213aaecull, 0xd0d9e6ae25fcdbd2ull},
    {"rmat_ones", 0x590a650c4df685c8ull, 0x36de5100e43f07c0ull},
    {"banded", 0xcb98d95169020cf9ull, 0xd8029d2e3b18dac0ull},
    {"er_signed", 0xdfdcf4c707f436c9ull, 0x62b9635131a4c347ull},
    {"zipf_heavy", 0x0b4c41957f06cfb6ull, 0x5a9fe55f6966d7bbull},
};

const GoldenValue *
findGolden(const GoldenValue *begin, const GoldenValue *end,
           const std::string &name)
{
    for (const GoldenValue *g = begin; g != end; ++g) {
        if (name == g->name)
            return g;
    }
    return nullptr;
}

/** Run @p c, return its digest, and check it plus the RNG end state. */
template <std::size_t N>
std::uint64_t
checkCase(const GoldenCase &c, const GoldenValue (&golden)[N])
{
    Rng rng(c.seed);
    const CsrMatrix a = c.generate(rng);
    const std::uint64_t digest = csrDigest(a);
    const std::uint64_t end_draw = rng.next();
    char row[160];
    std::snprintf(row, sizeof(row),
                  "    {\"%s\", 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull},",
                  c.name.c_str(), digest, end_draw);
    const GoldenValue *g = findGolden(golden, golden + N, c.name);
    EXPECT_NE(g, nullptr) << "no golden row; computed\n" << row;
    if (g != nullptr) {
        EXPECT_EQ(digest, g->digest) << "computed\n" << row;
        EXPECT_EQ(end_draw, g->endDraw) << "computed\n" << row;
    }
    return digest;
}

TEST(GeneratorGolden, Table2MatchesRecordedDigestsAndRngEndState)
{
    const std::vector<GoldenCase> cases = table2Cases();
    ASSERT_EQ(cases.size(), table2().size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE(cases[i].name);
        const std::uint64_t digest = checkCase(cases[i], kTable2Golden);
        // The registry's own generate() must build the same matrix.
        ASSERT_EQ(table2()[i].id, cases[i].name);
        EXPECT_EQ(csrDigest(table2()[i].generate()), digest);
    }
}

TEST(GeneratorGolden, CatalogRmatShapesMatchRecordedDigests)
{
    for (const GoldenCase &c : catalogCases()) {
        SCOPED_TRACE(c.name);
        checkCase(c, kCatalogGolden);
    }
}

TEST(GeneratorGolden, CorpusFamiliesMatchRecordedDigests)
{
    const std::vector<SweepEntry> corpus = sweepCorpus(256);
    for (std::size_t i : corpusIndices()) {
        const GoldenCase c = corpusCase(i);
        SCOPED_TRACE(c.name);
        const std::uint64_t digest = checkCase(c, kCorpusGolden);
        EXPECT_EQ(csrDigest(corpus[i].generate()), digest);
    }
}

TEST(GeneratorGolden, OtherGeneratorsMatchRecordedDigests)
{
    for (const GoldenCase &c : extraCases()) {
        SCOPED_TRACE(c.name);
        checkCase(c, kExtraGolden);
    }
}

TEST(RngGolden, KnownSequences)
{
    Rng raw(42);
    const std::uint64_t kNext[] = {
        0x15780b2e0c2ec716ull, 0x6104d9866d113a7eull, 0xae17533239e499a1ull,
        0xecb8ad4703b360a1ull, 0xfde6dc7fe2ec5e64ull, 0xc50da53101795238ull,
        0xb82154855a65ddb2ull, 0xd99a2743ebe60087ull,
    };
    for (std::uint64_t want : kNext)
        EXPECT_EQ(raw.next(), want);

    // nextZipf across the exponents the generators use, interleaved
    // with the draws it shares a stream with.
    Rng zipf(7);
    const std::uint64_t kZipf[] = {
        1231, 0, 3246, 317, 4, 10, // s = 1.05
        47, 14, 4, 0, 0, 6871,     // s = 1.15
        3, 1, 19, 3620, 5, 1,      // s = 1.4
        0, 1, 0, 2, 0, 0,          // s = 2.5
    };
    std::size_t k = 0;
    for (double s : {1.05, 1.15, 1.4, 2.5}) {
        for (int i = 0; i < 6; ++i, ++k) {
            const std::uint64_t got = zipf.nextZipf(100000, s);
            ASSERT_LT(k, std::size(kZipf)) << "extra draw " << got;
            EXPECT_EQ(got, kZipf[k]) << "s=" << s << " draw " << i;
        }
    }
    EXPECT_EQ(k, std::size(kZipf));
    EXPECT_EQ(zipf.next(), 0xb4b89bb4fc5deaa5ull);

    // The double/float/bool helpers are views of the same raw stream.
    Rng mixed(9);
    std::uint64_t h = 0;
    for (int i = 0; i < 64; ++i) {
        h = mix64(h ^ bitsOf(mixed.nextFloat(0.1f, 1.0f)));
        double d = mixed.nextDouble();
        std::uint64_t dbits;
        std::memcpy(&dbits, &d, sizeof(dbits));
        h = mix64(h ^ dbits);
        h = mix64(h ^ static_cast<std::uint64_t>(mixed.nextBool(0.3)));
    }
    EXPECT_EQ(h, 0x3a4007b28044070aull);
}

// --- canonicalization equivalence ------------------------------------

/** The reference canonicalization: two-field comparator sort + merge. */
std::vector<Triplet>
referenceCanonical(std::vector<Triplet> entries)
{
    std::sort(entries.begin(), entries.end(),
              [](const Triplet &a, const Triplet &b) {
                  if (a.row != b.row)
                      return a.row < b.row;
                  return a.col < b.col;
              });
    std::size_t out = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (out > 0 && entries[out - 1].row == entries[i].row &&
            entries[out - 1].col == entries[i].col) {
            entries[out - 1].value += entries[i].value;
        } else {
            entries[out++] = entries[i];
        }
    }
    entries.resize(out);
    return entries;
}

/** Bit-level equality of @p a with the CSR of canonical @p entries. */
void
expectCsrEquals(const CsrMatrix &a, std::uint32_t rows, std::uint32_t cols,
                const std::vector<Triplet> &canonical)
{
    ASSERT_EQ(a.rows(), rows);
    ASSERT_EQ(a.cols(), cols);
    ASSERT_EQ(a.nnz(), canonical.size());
    std::vector<std::size_t> row_ptr(rows + 1, 0);
    for (const Triplet &t : canonical)
        ++row_ptr[t.row + 1];
    for (std::uint32_t r = 0; r < rows; ++r)
        row_ptr[r + 1] += row_ptr[r];
    EXPECT_EQ(a.rowPtr(), row_ptr);
    for (std::size_t i = 0; i < canonical.size(); ++i) {
        ASSERT_EQ(a.colIdx()[i], canonical[i].col) << "entry " << i;
        ASSERT_EQ(bitsOf(a.values()[i]), bitsOf(canonical[i].value))
            << "entry " << i;
    }
}

/**
 * Random COO with many duplicate groups of 3 or more: coordinates are
 * drawn from a small hot set, so each appears ~@p dup times, and the
 * signed values make the summation order visible in the result bits.
 */
CooMatrix
duplicateHeavyCoo(std::uint64_t seed, std::uint32_t rows, std::uint32_t cols,
                  std::size_t entries, std::size_t dup)
{
    Rng rng(seed);
    const std::size_t hot = std::max<std::size_t>(1, entries / dup);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> coords(hot);
    for (auto &rc : coords) {
        rc.first = static_cast<std::uint32_t>(rng.nextBounded(rows));
        rc.second = static_cast<std::uint32_t>(rng.nextBounded(cols));
    }
    CooMatrix coo(rows, cols);
    for (std::size_t i = 0; i < entries; ++i) {
        const auto &rc = coords[rng.nextBounded(hot)];
        coo.add(rc.first, rc.second,
                static_cast<float>(rng.nextDouble() * 2e3 - 1e3) *
                    (i % 7 == 0 ? 1e-4f : 1.0f));
    }
    return coo;
}

TEST(CanonicalizeGolden, DuplicateHeavyInputMatchesReferenceSort)
{
    struct Shape
    {
        std::uint32_t rows, cols;
        std::size_t entries, dup;
    };
    const Shape shapes[] = {
        {1, 1, 40, 40},          {3, 5, 15, 3},
        {16, 16, 300, 4},        {64, 64, 20000, 5},
        {1000, 700, 100000, 8},  {100000, 100000, 300000, 3},
        {1u << 16, 1u << 16, 250000, 12},
    };
    std::uint64_t seed = 100;
    for (const Shape &s : shapes) {
        SCOPED_TRACE(std::to_string(s.rows) + "x" + std::to_string(s.cols) +
                     " entries=" + std::to_string(s.entries));
        const CooMatrix coo =
            duplicateHeavyCoo(seed++, s.rows, s.cols, s.entries, s.dup);
        const std::vector<Triplet> want = referenceCanonical(coo.entries());

        expectCsrEquals(coo.toCsr(), s.rows, s.cols, want);
        CooMatrix consumed = coo;
        expectCsrEquals(std::move(consumed).toCsr(), s.rows, s.cols, want);
        CooMatrix canon = coo;
        canon.canonicalize();
        EXPECT_EQ(canon.entries(), want);
    }
}

TEST(CanonicalizeGolden, SortedInputIsKeptAndMerged)
{
    // Strictly increasing input: the canonical form is the input.
    CooMatrix strict(50, 40);
    Rng rng(3);
    for (std::uint32_t r = 0; r < 50; ++r) {
        for (std::uint32_t c = 0; c < 40; ++c) {
            if (rng.nextBool(0.3))
                strict.add(r, c, rng.nextFloat(-1.0f, 1.0f));
        }
    }
    expectCsrEquals(CooMatrix(strict).toCsr(), 50, 40, strict.entries());
    EXPECT_EQ(referenceCanonical(strict.entries()), strict.entries());

    // Sorted but with adjacent duplicates: still merged in order.
    CooMatrix dups(50, 40);
    for (const Triplet &t : strict.entries()) {
        dups.add(t.row, t.col, t.value);
        if (t.col % 3 == 0) {
            dups.add(t.row, t.col, t.value * 0.5f);
            dups.add(t.row, t.col, 1e-3f);
        }
    }
    const std::vector<Triplet> want = referenceCanonical(dups.entries());
    EXPECT_LT(want.size(), dups.nnz());
    expectCsrEquals(CooMatrix(dups).toCsr(), 50, 40, want);

    // Sorted except for the last entry.
    CooMatrix tail = strict;
    tail.add(0, 0, 7.0f);
    expectCsrEquals(CooMatrix(tail).toCsr(), 50, 40,
                    referenceCanonical(tail.entries()));

    // Empty matrices.
    expectCsrEquals(CooMatrix(5, 5).toCsr(), 5, 5, {});
}

TEST(CanonicalizeGolden, MatrixMarketPathMatchesReferenceSort)
{
    for (const char *symmetry : {"general", "symmetric"}) {
        SCOPED_TRACE(symmetry);
        const CooMatrix src = duplicateHeavyCoo(77, 300, 300, 20000, 6);
        std::ostringstream text;
        text << "%%MatrixMarket matrix coordinate real " << symmetry
             << "\n300 300 " << src.nnz() << "\n";
        std::vector<Triplet> expanded;
        for (const Triplet &t : src.entries()) {
            // Symmetric files store the lower triangle.
            const std::uint32_t r = std::max(t.row, t.col);
            const std::uint32_t c = std::min(t.row, t.col);
            const bool sym = std::string(symmetry) == "symmetric";
            const std::uint32_t row = sym ? r : t.row;
            const std::uint32_t col = sym ? c : t.col;
            char value[32];
            std::snprintf(value, sizeof(value), "%.9g",
                          static_cast<double>(t.value));
            text << row + 1 << ' ' << col + 1 << ' ' << value << '\n';
            // The reader parses with strtod and narrows to float.
            const auto v =
                static_cast<float>(std::strtod(value, nullptr));
            expanded.push_back({row, col, v});
            if (sym && row != col)
                expanded.push_back({col, row, v});
        }
        std::istringstream in(text.str());
        const CsrMatrix a = readMatrixMarket(in).toCsr();
        expectCsrEquals(a, 300, 300, referenceCanonical(expanded));
    }
}

} // namespace
} // namespace sparse
} // namespace chason
