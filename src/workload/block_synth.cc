#include "workload/block_synth.hh"

#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"

namespace hllc::workload
{

using compression::BdiCompressor;
using compression::Ce;
using compression::ceInfo;
using compression::numCe;

namespace
{

/**
 * Interior weights used to spread an aggregate HCR / LCR mass over the
 * member encodings. HCR members skew towards the well-compressing
 * encodings (zero blocks and narrow deltas dominate real workloads);
 * LCR members are spread fairly evenly.
 */
struct InteriorWeight
{
    Ce ce;
    double weight;
};

constexpr InteriorWeight hcrMembers[] = {
    { Ce::Zeros, 0.14 }, { Ce::Rep8, 0.10 }, { Ce::B8D1, 0.18 },
    { Ce::B4D1, 0.10 }, { Ce::B8D2, 0.16 }, { Ce::B8D3, 0.12 },
    { Ce::B2D1, 0.06 }, { Ce::B4D2, 0.06 }, { Ce::B8D4, 0.08 },
};

constexpr InteriorWeight lcrMembers[] = {
    { Ce::B8D5, 0.35 }, { Ce::B4D3, 0.15 }, { Ce::B8D6, 0.25 },
    { Ce::B8D7, 0.25 },
};

} // anonymous namespace

ContentMix::ContentMix()
{
    cumulative_.fill(0.0);
    cumulative_[static_cast<std::size_t>(Ce::Uncompressed)] = 1.0;
    // Make the CDF non-decreasing up to 1.
    double acc = 0.0;
    for (auto &c : cumulative_) {
        acc += c;
        c = acc;
    }
}

ContentMix
ContentMix::fromClassFractions(double hcr, double lcr)
{
    HLLC_ASSERT(hcr >= 0.0 && lcr >= 0.0 && hcr + lcr <= 1.0 + 1e-9,
                "invalid class fractions %.3f/%.3f", hcr, lcr);

    std::array<double, numCe> weights{};
    for (const auto &m : hcrMembers)
        weights[static_cast<std::size_t>(m.ce)] = hcr * m.weight;
    for (const auto &m : lcrMembers)
        weights[static_cast<std::size_t>(m.ce)] = lcr * m.weight;
    weights[static_cast<std::size_t>(Ce::Uncompressed)] =
        std::max(0.0, 1.0 - hcr - lcr);

    ContentMix mix;
    double acc = 0.0;
    for (std::size_t i = 0; i < numCe; ++i) {
        acc += weights[i];
        mix.cumulative_[i] = acc;
    }
    // Normalise against rounding drift.
    for (auto &c : mix.cumulative_)
        c /= acc;
    return mix;
}

double
ContentMix::weight(Ce ce) const
{
    const auto i = static_cast<std::size_t>(ce);
    const double prev = i == 0 ? 0.0 : cumulative_[i - 1];
    return cumulative_[i] - prev;
}

Ce
ContentMix::draw(double u) const
{
    for (std::size_t i = 0; i < numCe; ++i) {
        if (u < cumulative_[i])
            return static_cast<Ce>(i);
    }
    return Ce::Uncompressed;
}

namespace
{

/** Write the low @p k bytes of @p v at value slot @p idx. */
void
putValue(BlockData &data, unsigned k, unsigned idx, std::uint64_t v)
{
    std::memcpy(data.data() + static_cast<std::size_t>(idx) * k, &v, k);
}

/**
 * A delta that needs exactly @p d bytes (two's complement): magnitude in
 * [2^(8(d-1)-1), 2^(8d-1)). For d == 1, any non-zero int8 works.
 */
std::int64_t
deltaNeeding(unsigned d, Xoshiro256StarStar &rng)
{
    const std::int64_t hi = std::int64_t{1} << (8 * d - 1);
    const std::int64_t lo = d == 1 ? 1 : (std::int64_t{1} << (8 * d - 9));
    std::int64_t magnitude =
        lo + static_cast<std::int64_t>(
                 rng.nextBounded(static_cast<std::uint64_t>(hi - lo)));
    return rng.nextBool(0.5) ? magnitude : -magnitude;
}

/** A delta fitting in @p d bytes (possibly needing fewer). */
std::int64_t
deltaWithin(unsigned d, Xoshiro256StarStar &rng)
{
    const std::int64_t hi = std::int64_t{1} << (8 * d - 1);
    std::int64_t magnitude = static_cast<std::int64_t>(
        rng.nextBounded(static_cast<std::uint64_t>(hi)));
    return rng.nextBool(0.5) ? magnitude : -magnitude;
}

BlockData
synthesizeOnce(Ce target, Xoshiro256StarStar &rng)
{
    BlockData data{};

    switch (target) {
      case Ce::Zeros:
        return data;
      case Ce::Rep8: {
        std::uint64_t v = rng.next();
        if (v == 0)
            v = 1;
        for (unsigned i = 0; i < blockBytes / 8; ++i)
            putValue(data, 8, i, v);
        return data;
      }
      case Ce::Uncompressed:
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());
        return data;
      default: {
        const auto &info = ceInfo(target);
        const unsigned k = info.baseBytes;
        const unsigned d = info.deltaBytes;
        const unsigned values = blockBytes / k;
        const std::uint64_t k_mask =
            k >= 8 ? ~std::uint64_t{0}
                   : ((std::uint64_t{1} << (8 * k)) - 1);

        // Keep the base away from the representable edges so deltas do
        // not wrap the sign-extension check.
        std::uint64_t base = rng.next() & k_mask;
        if (k < 8) {
            const std::uint64_t quarter = std::uint64_t{1} << (8 * k - 2);
            base = quarter + (base % (2 * quarter));
        }

        putValue(data, k, 0, base);
        // One delta pinned to need exactly d bytes; the rest anywhere
        // within d bytes.
        const unsigned pinned =
            1 + static_cast<unsigned>(rng.nextBounded(values - 1));
        for (unsigned i = 1; i < values; ++i) {
            const std::int64_t delta = (i == pinned)
                ? deltaNeeding(d, rng)
                : deltaWithin(d, rng);
            const std::uint64_t v =
                (base + static_cast<std::uint64_t>(delta)) & k_mask;
            putValue(data, k, i, v);
        }
        return data;
      }
    }
}

} // anonymous namespace

BlockData
synthesizeBlock(Ce target, std::uint64_t seed)
{
    return synthesizeBlockWithEcb(target, seed).data;
}

SynthesizedBlock
synthesizeBlockWithEcb(Ce target, std::uint64_t seed)
{
    Xoshiro256StarStar rng(mix64(seed));
    const unsigned want = compression::ecbSize(target);

    SynthesizedBlock block;
    for (int attempt = 0; attempt < 8; ++attempt) {
        block.data = synthesizeOnce(target, rng);
        block.ecbBytes = BdiCompressor::compress(block.data).ecbBytes;
        if (block.ecbBytes == want)
            return block;
    }
    // Statistically unreachable for the constructions above; fall back to
    // one more attempt rather than looping forever.
    warn("synthesizeBlock: could not hit target CE %s for seed %llu",
         std::string(ceInfo(target).name).c_str(),
         static_cast<unsigned long long>(seed));
    block.data = synthesizeOnce(target, rng);
    block.ecbBytes = BdiCompressor::compress(block.data).ecbBytes;
    return block;
}

} // namespace hllc::workload
