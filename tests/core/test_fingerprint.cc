/**
 * @file
 * Quality tests for the matrix fingerprint behind every cache key:
 * single-bit sensitivity of both 64-bit halves, no collisions across
 * the evaluation corpora, and one pinned key.
 *
 * The fingerprint's bytes are the keyLo/keyHi words of every CHSA
 * artifact header (docs/ARTIFACT_FORMAT.md), so the pinned value is a
 * tripwire: changing key derivation orphans every stored artifact and
 * must be a deliberate, visible edit here.
 */

#include "core/schedule_cache.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/thread_pool.h"
#include "sparse/dataset.h"
#include "sparse/generators.h"

namespace chason {
namespace core {
namespace {

/** Both halves of @p b differ from @p a. */
::testing::AssertionResult
bothHalvesDiffer(const MatrixFingerprint &a, const MatrixFingerprint &b)
{
    if (a.lo != b.lo && a.hi != b.hi)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << "lo " << (a.lo == b.lo ? "unchanged" : "changed") << ", hi "
        << (a.hi == b.hi ? "unchanged" : "changed");
}

/**
 * Flip bit @p bit of element @p i of one of @p a's arrays, in place.
 * CsrMatrix exposes its arrays read-only; the object itself is not
 * const, so writing through const_cast is well-defined. The result
 * need not be a valid CSR matrix — only its words are hashed.
 */
template <typename T>
void
flipBit(const std::vector<T> &array, std::size_t i, unsigned bit)
{
    T &word = const_cast<std::vector<T> &>(array)[i];
    if constexpr (std::is_same_v<T, float>) {
        std::uint32_t u;
        std::memcpy(&u, &word, sizeof(u));
        u ^= 1u << bit;
        std::memcpy(&word, &u, sizeof(u));
    } else {
        word ^= static_cast<T>(1) << bit;
    }
}

sparse::CsrMatrix
smallMatrix()
{
    Rng rng(5);
    return sparse::erdosRenyi(64, 128, 700, rng,
                              sparse::ValueDistribution::SignedUniform);
}

TEST(FingerprintQuality, EverySingleBitFlipChangesBothHalves)
{
    sparse::CsrMatrix a = smallMatrix();
    const MatrixFingerprint base = fingerprint(a);
    const std::size_t picks[] = {0, 1, 2, 3, 4, 5, 350, a.nnz() - 1};

    for (std::size_t i : picks) {
        for (unsigned bit = 0; bit < 32; ++bit) {
            flipBit(a.values(), i, bit);
            EXPECT_TRUE(bothHalvesDiffer(base, fingerprint(a)))
                << "value " << i << " bit " << bit;
            flipBit(a.values(), i, bit);

            flipBit(a.colIdx(), i, bit);
            EXPECT_TRUE(bothHalvesDiffer(base, fingerprint(a)))
                << "col " << i << " bit " << bit;
            flipBit(a.colIdx(), i, bit);
        }
    }
    for (std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{31},
                          std::size_t{64}}) {
        for (unsigned bit = 0; bit < 64; ++bit) {
            flipBit(a.rowPtr(), i, bit);
            EXPECT_TRUE(bothHalvesDiffer(base, fingerprint(a)))
                << "rowPtr " << i << " bit " << bit;
            flipBit(a.rowPtr(), i, bit);
        }
    }
    ASSERT_EQ(fingerprint(a), base); // every flip was undone

    // rows and cols: the same entries in a reshaped matrix. A changed
    // row count also changes the rowPtr length; a changed column count
    // changes nothing but the shape word.
    const sparse::CooMatrix entries = a.toCoo();
    auto reshaped = [&entries](std::uint32_t rows, std::uint32_t cols) {
        sparse::CooMatrix coo(rows, cols);
        for (const sparse::Triplet &t : entries.entries())
            coo.add(t.row, t.col, t.value);
        return fingerprint(std::move(coo).toCsr());
    };
    for (unsigned bit = 0; bit < 32; ++bit) {
        const std::uint32_t cols = a.cols() ^ (1u << bit);
        if (cols < a.cols())
            continue; // would drop entries
        EXPECT_TRUE(bothHalvesDiffer(base, reshaped(a.rows(), cols)))
            << "cols bit " << bit;
    }
    for (unsigned bit = 0; bit < 18; ++bit) {
        const std::uint32_t rows = a.rows() ^ (1u << bit);
        if (rows < a.rows())
            continue;
        EXPECT_TRUE(bothHalvesDiffer(base, reshaped(rows, a.cols())))
            << "rows bit " << bit;
    }
}

/** Independent 64-bit digest, to tell equal matrices from collisions. */
std::uint64_t
contentDigest(const sparse::CsrMatrix &a)
{
    std::uint64_t h = 0x243f6a8885a308d3ull ^ a.rows() ^
        (static_cast<std::uint64_t>(a.cols()) << 32);
    auto add = [&h](std::uint64_t w) {
        h = splitMix64(h) ^ w;
    };
    for (std::size_t p : a.rowPtr())
        add(p);
    for (std::uint32_t c : a.colIdx())
        add(c);
    for (float v : a.values()) {
        std::uint32_t u;
        std::memcpy(&u, &v, sizeof(u));
        add(u);
    }
    return splitMix64(h);
}

TEST(FingerprintQuality, NoCollisionsAcrossTable2AndTheSweepCorpus)
{
    std::vector<std::function<sparse::CsrMatrix()>> generators;
    for (const sparse::DatasetEntry &e : sparse::table2())
        generators.push_back(e.generate);
    for (const sparse::SweepEntry &e : sparse::sweepCorpus(800))
        generators.push_back(e.generate);

    std::vector<MatrixFingerprint> fps(generators.size());
    std::vector<std::uint64_t> digests(generators.size());
    ThreadPool pool(std::min(4u, ThreadPool::defaultWorkers()));
    pool.parallelForDynamic(generators.size(), 1, [&](std::size_t i) {
        const sparse::CsrMatrix a = generators[i]();
        fps[i] = fingerprint(a);
        digests[i] = contentDigest(a);
    });

    // Some corpus cells repeat a matrix (poisson2d's grid is capped),
    // so equal fingerprints are fine exactly when the contents match.
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> seen;
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < fps.size(); ++i) {
        const auto [it, inserted] =
            seen.emplace(std::make_pair(fps[i].lo, fps[i].hi), digests[i]);
        if (inserted) {
            ++distinct;
            continue;
        }
        EXPECT_EQ(it->second, digests[i])
            << "matrix " << i << " collides with a different matrix";
    }
    // Halves must not collide on their own either.
    std::map<std::uint64_t, std::uint64_t> los, his;
    for (std::size_t i = 0; i < fps.size(); ++i) {
        los.emplace(fps[i].lo, digests[i]);
        his.emplace(fps[i].hi, digests[i]);
        EXPECT_EQ(los[fps[i].lo], digests[i]) << "lo collision at " << i;
        EXPECT_EQ(his[fps[i].hi], digests[i]) << "hi collision at " << i;
    }
    EXPECT_GT(distinct, 700u);
}

TEST(FingerprintQuality, PinnedKey)
{
    // Table 2's DY. A change here invalidates every CHSA artifact on
    // disk (they become clean misses): update the constants only
    // together with docs/ARTIFACT_FORMAT.md.
    const MatrixFingerprint fp =
        fingerprint(sparse::table2ByTag("DY").generate());
    EXPECT_EQ(fp.lo, 0x08144a1920a2642eull);
    EXPECT_EQ(fp.hi, 0x52e204609f4dbf01ull);
}

} // namespace
} // namespace core
} // namespace chason
