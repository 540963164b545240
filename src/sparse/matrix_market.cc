/**
 * @file
 * Matrix Market reader/writer implementation.
 */

#include "sparse/matrix_market.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.h"

namespace chason {
namespace sparse {

namespace {

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

/**
 * getline tolerating CRLF files: strips one trailing '\r' so that a
 * Windows-written .mtx parses identically to a Unix one. Token reads
 * (operator>>) already treat '\r' as whitespace; only the getline'd
 * header/comment lines need the trim.
 */
bool
getlineTrimCr(std::istream &in, std::string &line)
{
    if (!std::getline(in, line))
        return false;
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    return true;
}

/** Index of the first non-blank character, or npos for blank lines. */
std::size_t
firstNonBlank(const std::string &line)
{
    return line.find_first_not_of(" \t\v\f");
}

} // namespace

CooMatrix
readMatrixMarket(std::istream &in)
{
    std::string line;
    if (!getlineTrimCr(in, line))
        chason_fatal("matrix market: empty stream");

    std::istringstream banner(line);
    std::string tag, object, format, field, symmetry;
    banner >> tag >> object >> format >> field >> symmetry;
    if (lower(tag) != "%%matrixmarket")
        chason_fatal("matrix market: missing %%%%MatrixMarket banner");
    object = lower(object);
    format = lower(format);
    field = lower(field);
    symmetry = lower(symmetry);
    if (object != "matrix" || format != "coordinate")
        chason_fatal("matrix market: only 'matrix coordinate' supported, "
                     "got '%s %s'", object.c_str(), format.c_str());
    if (field != "real" && field != "integer" && field != "pattern")
        chason_fatal("matrix market: unsupported field '%s'", field.c_str());
    if (symmetry != "general" && symmetry != "symmetric" &&
        symmetry != "skew-symmetric") {
        chason_fatal("matrix market: unsupported symmetry '%s'",
                     symmetry.c_str());
    }

    // Skip comments. Real-world writers also leave blank lines and
    // indent comments, so the size line is the first line whose first
    // non-blank character is not '%'.
    bool haveSizeLine = false;
    while (getlineTrimCr(in, line)) {
        const std::size_t pos = firstNonBlank(line);
        if (pos == std::string::npos || line[pos] == '%')
            continue;
        haveSizeLine = true;
        break;
    }
    if (!haveSizeLine)
        chason_fatal("matrix market: truncated before size line");

    std::istringstream dims(line);
    long long rows = 0, cols = 0, entries = 0;
    if (!(dims >> rows >> cols >> entries) || rows <= 0 || cols <= 0 ||
        entries < 0) {
        chason_fatal("matrix market: bad size line '%s'", line.c_str());
    }
    // Indices are stored as uint32_t; a matrix that does not fit would
    // silently alias rows/columns after the cast below.
    constexpr long long kMaxDim =
        std::numeric_limits<std::uint32_t>::max();
    if (rows > kMaxDim || cols > kMaxDim) {
        chason_fatal("matrix market: dimensions %lldx%lld overflow "
                     "32-bit indices", rows, cols);
    }

    const bool pattern = field == "pattern";
    const bool symmetric = symmetry != "general";
    const bool skew = symmetry == "skew-symmetric";

    CooMatrix coo(static_cast<std::uint32_t>(rows),
                  static_cast<std::uint32_t>(cols));
    for (long long i = 0; i < entries; ++i) {
        long long r = 0, c = 0;
        double v = 1.0;
        if (!(in >> r >> c))
            chason_fatal("matrix market: truncated at entry %lld", i);
        if (!pattern) {
            // Via strtod rather than operator>>: C writers emit "nan"
            // and "inf", which libstdc++ streams refuse to parse at
            // all. Accept the spelling, then reject the value — a
            // non-finite entry would silently poison every partial sum
            // its row touches. The check is on the float the matrix
            // stores: a finite double such as 1e39 overflows to inf.
            std::string token;
            if (!(in >> token))
                chason_fatal("matrix market: missing value at entry %lld",
                             i);
            char *end = nullptr;
            v = std::strtod(token.c_str(), &end);
            if (end == token.c_str() || *end != '\0')
                chason_fatal("matrix market: bad value '%s' at entry %lld",
                             token.c_str(), i);
            if (!std::isfinite(static_cast<float>(v)))
                chason_fatal("matrix market: non-finite value '%s' at "
                             "entry %lld", token.c_str(), i);
        }
        if (r < 1 || r > rows || c < 1 || c > cols)
            chason_fatal("matrix market: entry (%lld,%lld) out of bounds",
                         r, c);
        const auto row = static_cast<std::uint32_t>(r - 1);
        const auto col = static_cast<std::uint32_t>(c - 1);
        coo.add(row, col, static_cast<float>(v));
        if (symmetric && row != col)
            coo.add(col, row, static_cast<float>(skew ? -v : v));
    }
    return coo;
}

CooMatrix
readMatrixMarketFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        chason_fatal("cannot open matrix market file '%s'", path.c_str());
    return readMatrixMarket(in);
}

void
writeMatrixMarket(const CooMatrix &matrix, std::ostream &out)
{
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << matrix.rows() << ' ' << matrix.cols() << ' ' << matrix.nnz()
        << '\n';
    for (const Triplet &t : matrix.entries())
        out << (t.row + 1) << ' ' << (t.col + 1) << ' ' << t.value << '\n';
}

void
writeMatrixMarketFile(const CooMatrix &matrix, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        chason_fatal("cannot create matrix market file '%s'", path.c_str());
    writeMatrixMarket(matrix, out);
}

} // namespace sparse
} // namespace chason
