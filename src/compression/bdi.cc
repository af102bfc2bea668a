#include "compression/bdi.hh"

#include <algorithm>
#include <cstring>

#ifdef __SSE2__
#include <emmintrin.h>
#endif

#include "common/logging.hh"

namespace hllc::compression
{

namespace
{

/** Little-endian read of the @p k-byte value @p idx of the block. */
std::uint64_t
readValue(const BlockData &data, unsigned k, unsigned idx)
{
    std::uint64_t v = 0;
    std::memcpy(&v, data.data() + static_cast<std::size_t>(idx) * k, k);
    return v;
}

/** Little-endian write of the low @p k bytes of @p v at value slot idx. */
void
writeValue(BlockData &data, unsigned k, unsigned idx, std::uint64_t v)
{
    std::memcpy(data.data() + static_cast<std::size_t>(idx) * k, &v, k);
}

/**
 * Sign-extend the low @p k bytes of @p v to 64 bits. The k == 8 branch
 * must short-circuit: the general expression would shift by 0 after an
 * information-free cast, but writing it separately also documents that
 * 8-byte values are already full-width (and keeps the shift count in
 * [8, 56], well-defined). C++20 guarantees two's complement, so the
 * cast + arithmetic right shift is exact for all inputs including
 * 0x80..00 (the k-byte lower bound).
 */
std::int64_t
signExtend(std::uint64_t v, unsigned k)
{
    if (k >= 8)
        return static_cast<std::int64_t>(v);
    const unsigned shift = 64 - 8 * k;
    return static_cast<std::int64_t>(v << shift) >> shift;
}

/**
 * Whether signed @p delta is representable in @p d bytes. The bounds
 * are asymmetric — the lower bound -2^(8d-1) is representable, the
 * upper bound +2^(8d-1) is not — and d == 8 must short-circuit to
 * avoid shifting into the sign bit (1 << 63 overflows int64); at
 * d == 8 every delta fits because the subtractor is 64 bits wide.
 */
bool
fitsSigned(std::int64_t delta, unsigned d)
{
    if (d >= 8)
        return true;
    const std::int64_t bound = std::int64_t{1} << (8 * d - 1);
    return delta >= -bound && delta < bound;
}

bool
allZero(const BlockData &data)
{
    for (auto b : data) {
        if (b != 0)
            return false;
    }
    return true;
}

bool
repeated8(const BlockData &data)
{
    const std::uint64_t first = readValue(data, 8, 0);
    for (unsigned i = 1; i < blockBytes / 8; ++i) {
        if (readValue(data, 8, i) != first)
            return false;
    }
    return true;
}

/** Base-delta applicability test for a (base k, delta d) encoding. */
bool
baseDeltaFits(const BlockData &data, unsigned k, unsigned d)
{
    const std::int64_t base = signExtend(readValue(data, k, 0), k);
    const unsigned values = blockBytes / k;
    for (unsigned i = 1; i < values; ++i) {
        const std::int64_t v = signExtend(readValue(data, k, i), k);
        // The difference of two sign-extended k-byte values is exact in
        // 64 bits for k < 8 (|v - base| < 2^(8k), no wrap); for k == 8
        // the two's-complement wrap-around matches the 64-bit hardware
        // subtractor, so e.g. base INT64_MIN / v INT64_MAX yields delta
        // -1 and the pair is B8D1-compressible. For k < 8 there is
        // deliberately no mod-2^(8k) wrap: deltas are arithmetic, so
        // that same extreme pair at k-byte width does NOT fit.
        const std::int64_t delta =
            static_cast<std::int64_t>(static_cast<std::uint64_t>(v) -
                                      static_cast<std::uint64_t>(base));
        if (!fitsSigned(delta, d))
            return false;
    }
    return true;
}

/**
 * Signed extents of the lane-0-relative deltas at one base width. A
 * (k, d) base-delta encoding applies iff both extents are representable
 * in d bytes, so one min/max pass per k answers every D width at once.
 */
struct DeltaExtents
{
    std::int64_t min = 0;
    std::int64_t max = 0;

    bool
    fits(unsigned d) const
    {
        if (d >= 8)
            return true;
        const std::int64_t bound = std::int64_t{1} << (8 * d - 1);
        return min >= -bound && max < bound;
    }
};

/** Everything compress() needs to know about a block, in one pass. */
struct BlockAnalysis
{
    bool zeros = false;
    bool rep8 = false;
    DeltaExtents e8; //!< 8-byte base deltas
    DeltaExtents e4; //!< 4-byte base deltas
    DeltaExtents e2; //!< 2-byte base deltas

    /** Mirror of applicable(data, ce) over the precomputed facts. */
    bool
    applies(const CeInfo &info) const
    {
        switch (info.ce) {
          case Ce::Zeros:
            return zeros;
          case Ce::Rep8:
            return rep8;
          case Ce::Uncompressed:
            return true;
          default:
            break;
        }
        switch (info.baseBytes) {
          case 8:
            return e8.fits(info.deltaBytes);
          case 4:
            return e4.fits(info.deltaBytes);
          default:
            return e2.fits(info.deltaBytes);
        }
    }
};

/**
 * Analyse a whole 64 B block: copy it once into fixed-width lane arrays
 * and reduce each to its delta extents with dense, branch-free loops the
 * compiler can auto-vectorize (the 16- and 32-bit reductions in
 * particular). The delta arithmetic matches baseDeltaFits() exactly:
 * lanes are sign-extended before subtracting, so k < 8 deltas are exact
 * in 64 bits (no mod-2^(8k) wrap) while k == 8 wraps like the hardware
 * subtractor.
 */
BlockAnalysis
analyzeBlock(const BlockData &data)
{
    std::uint64_t l8[8];
    std::uint32_t l4[16];
    std::uint16_t l2[32];
    std::memcpy(l8, data.data(), blockBytes);
    std::memcpy(l4, data.data(), blockBytes);
    std::memcpy(l2, data.data(), blockBytes);

    BlockAnalysis a;

#ifdef __SSE2__
    // SSE2 kernels for the equality scans and the 16-bit reduction;
    // the scalar branch serves targets without SSE2. The differential
    // tests check whichever is compiled against the brute-force
    // reference decoder.
    {
        const auto *p = reinterpret_cast<const __m128i *>(data.data());
        __m128i zero_acc = _mm_setzero_si128();
        const __m128i first =
            _mm_set1_epi64x(static_cast<long long>(l8[0]));
        __m128i rep_acc = _mm_set1_epi8(static_cast<char>(0xff));
        for (unsigned i = 0; i < blockBytes / 16; ++i) {
            const __m128i v = _mm_loadu_si128(p + i);
            zero_acc = _mm_or_si128(zero_acc, v);
            rep_acc = _mm_and_si128(rep_acc, _mm_cmpeq_epi8(v, first));
        }
        const __m128i zc =
            _mm_cmpeq_epi8(zero_acc, _mm_setzero_si128());
        a.zeros = _mm_movemask_epi8(zc) == 0xffff;
        a.rep8 = _mm_movemask_epi8(rep_acc) == 0xffff;

        // 16-bit lanes: min/max of the raw values, deltas afterwards.
        __m128i vmin = _mm_loadu_si128(p);
        __m128i vmax = vmin;
        for (unsigned i = 1; i < blockBytes / 16; ++i) {
            const __m128i v = _mm_loadu_si128(p + i);
            vmin = _mm_min_epi16(vmin, v);
            vmax = _mm_max_epi16(vmax, v);
        }
        alignas(16) std::int16_t mins[8], maxs[8];
        _mm_store_si128(reinterpret_cast<__m128i *>(mins), vmin);
        _mm_store_si128(reinterpret_cast<__m128i *>(maxs), vmax);
        std::int64_t lo = mins[0], hi = maxs[0];
        for (int i = 1; i < 8; ++i) {
            lo = std::min<std::int64_t>(lo, mins[i]);
            hi = std::max<std::int64_t>(hi, maxs[i]);
        }
        const std::int64_t base2 =
            static_cast<std::int16_t>(l2[0]);
        a.e2 = { lo - base2, hi - base2 };
    }
#else
    a.zeros = true;
    for (unsigned i = 0; i < 8; ++i)
        a.zeros = a.zeros && l8[i] == 0;
    a.rep8 = true;
    for (unsigned i = 1; i < 8; ++i)
        a.rep8 = a.rep8 && l8[i] == l8[0];

    {
        // Min/max of the sign-extended 16-bit lanes, then shift by the
        // base: extents of (v - base) without a subtract per lane.
        std::int64_t lo = static_cast<std::int16_t>(l2[0]);
        std::int64_t hi = lo;
        for (unsigned i = 1; i < 32; ++i) {
            const std::int64_t v = static_cast<std::int16_t>(l2[i]);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        const std::int64_t base2 = static_cast<std::int16_t>(l2[0]);
        a.e2 = { lo - base2, hi - base2 };
    }
#endif

    {
        std::int64_t lo = static_cast<std::int32_t>(l4[0]);
        std::int64_t hi = lo;
        for (unsigned i = 1; i < 16; ++i) {
            const std::int64_t v = static_cast<std::int32_t>(l4[i]);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        const std::int64_t base4 = static_cast<std::int32_t>(l4[0]);
        a.e4 = { lo - base4, hi - base4 };
    }

    {
        // k == 8 deltas wrap mod 2^64 (two's-complement subtractor), so
        // extents are over the wrapped deltas themselves, not raw lanes.
        std::int64_t lo = 0, hi = 0;
        for (unsigned i = 1; i < 8; ++i) {
            const std::int64_t delta =
                static_cast<std::int64_t>(l8[i] - l8[0]);
            lo = std::min(lo, delta);
            hi = std::max(hi, delta);
        }
        a.e8 = { lo, hi };
    }

    return a;
}

} // anonymous namespace

bool
BdiCompressor::applicable(const BlockData &data, Ce ce)
{
    switch (ce) {
      case Ce::Zeros:
        return allZero(data);
      case Ce::Rep8:
        return repeated8(data);
      case Ce::Uncompressed:
        return true;
      default: {
        const CeInfo &info = ceInfo(ce);
        return baseDeltaFits(data, info.baseBytes, info.deltaBytes);
      }
    }
}

CompressionResult
BdiCompressor::compress(const BlockData &data)
{
    // Hardware evaluates all CEs in parallel and a priority tree picks the
    // smallest ECB; emulate by scanning the table in ascending ECB order.
    // One analyzeBlock() pass answers every encoding's applicability, so
    // the scan itself touches no block bytes.
    const BlockAnalysis analysis = analyzeBlock(data);
    Ce best = Ce::Uncompressed;
    unsigned best_size = ecbSize(Ce::Uncompressed);
    for (const CeInfo &info : ceTable()) {
        if (info.ecbBytes >= best_size)
            continue;
        if (analysis.applies(info)) {
            best = info.ce;
            best_size = info.ecbBytes;
        }
    }
    return { best, ceInfo(best).cbBytes, best_size };
}

std::vector<std::uint8_t>
BdiCompressor::encode(const BlockData &data, Ce ce)
{
    HLLC_ASSERT(applicable(data, ce), "CE %s does not cover this block",
                std::string(ceInfo(ce).name).c_str());

    std::vector<std::uint8_t> ecb;
    ecb.reserve(ecbSize(ce));

    if (ce == Ce::Uncompressed) {
        ecb.assign(data.begin(), data.end());
        return ecb;
    }

    ecb.push_back(static_cast<std::uint8_t>(ce));
    switch (ce) {
      case Ce::Zeros:
        ecb.push_back(0);
        break;
      case Ce::Rep8: {
        const std::uint64_t v = readValue(data, 8, 0);
        for (unsigned b = 0; b < 8; ++b)
            ecb.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
        break;
      }
      default: {
        const CeInfo &info = ceInfo(ce);
        const unsigned k = info.baseBytes;
        const unsigned d = info.deltaBytes;
        const std::uint64_t base = readValue(data, k, 0);
        for (unsigned b = 0; b < k; ++b)
            ecb.push_back(static_cast<std::uint8_t>(base >> (8 * b)));
        const unsigned values = blockBytes / k;
        for (unsigned i = 1; i < values; ++i) {
            const std::uint64_t delta =
                readValue(data, k, i) - base; // wraps; low d bytes stored
            for (unsigned b = 0; b < d; ++b)
                ecb.push_back(static_cast<std::uint8_t>(delta >> (8 * b)));
        }
        break;
      }
    }

    HLLC_ASSERT(ecb.size() == ecbSize(ce),
                "ECB size mismatch: %zu != %u", ecb.size(), ecbSize(ce));
    return ecb;
}

BlockData
BdiCompressor::decode(Ce ce, std::span<const std::uint8_t> ecb)
{
    HLLC_ASSERT(ecb.size() == ecbSize(ce));

    BlockData data{};
    if (ce == Ce::Uncompressed) {
        std::memcpy(data.data(), ecb.data(), blockBytes);
        return data;
    }

    HLLC_ASSERT(ecb[0] == static_cast<std::uint8_t>(ce),
                "CE header byte does not match encoding");

    switch (ce) {
      case Ce::Zeros:
        break; // already zero-initialised
      case Ce::Rep8: {
        std::uint64_t v = 0;
        for (unsigned b = 0; b < 8; ++b)
            v |= static_cast<std::uint64_t>(ecb[1 + b]) << (8 * b);
        for (unsigned i = 0; i < blockBytes / 8; ++i)
            writeValue(data, 8, i, v);
        break;
      }
      default: {
        const CeInfo &info = ceInfo(ce);
        const unsigned k = info.baseBytes;
        const unsigned d = info.deltaBytes;
        std::uint64_t base = 0;
        for (unsigned b = 0; b < k; ++b)
            base |= static_cast<std::uint64_t>(ecb[1 + b]) << (8 * b);
        writeValue(data, k, 0, base);
        const unsigned values = blockBytes / k;
        std::size_t off = 1 + k;
        const std::uint64_t k_mask =
            k >= 8 ? ~std::uint64_t{0}
                   : ((std::uint64_t{1} << (8 * k)) - 1);
        for (unsigned i = 1; i < values; ++i) {
            std::uint64_t raw = 0;
            for (unsigned b = 0; b < d; ++b)
                raw |= static_cast<std::uint64_t>(ecb[off + b]) << (8 * b);
            const std::int64_t delta = signExtend(raw, d);
            const std::uint64_t v =
                (base + static_cast<std::uint64_t>(delta)) & k_mask;
            writeValue(data, k, i, v);
            off += d;
        }
        break;
      }
    }
    return data;
}

} // namespace hllc::compression
