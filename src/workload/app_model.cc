#include "workload/app_model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hllc::workload
{

AppModel::AppModel(const AppProfile &profile, Addr addr_base,
                   std::uint64_t llc_blocks, Xoshiro256StarStar rng,
                   std::shared_ptr<const compression::BlockCompressor>
                       compressor)
    : profile_(profile),
      mix_(ContentMix::fromClassFractions(profile.hcrFraction,
                                          profile.lcrFraction)),
      compressor_(compressor
                      ? std::move(compressor)
                      : std::shared_ptr<const compression::
                                            BlockCompressor>(
                            compression::BlockCompressor::create(
                                compression::Scheme::Bdi))),
      addrBase_(addr_base), rng_(rng)
{
    HLLC_ASSERT(llc_blocks > 0);
    HLLC_ASSERT(profile.pLoop + profile.pStream + profile.pRandom
                    <= 1.0 + 1e-9,
                "pattern probabilities of %s exceed 1",
                profile.name.c_str());

    footprintBlocks_ = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(profile.footprintFactor *
                                       static_cast<double>(llc_blocks)));
    loopBlocks_ = std::max<std::uint64_t>(
        16, static_cast<std::uint64_t>(profile.loopFactor *
                                       static_cast<double>(llc_blocks)));
    loopBlocks_ = std::min(loopBlocks_, footprintBlocks_ / 2);
    writeBlocks_ = std::max<std::uint64_t>(
        16, static_cast<std::uint64_t>(profile.writeSetFactor *
                                       static_cast<double>(llc_blocks)));
    writeBlocks_ = std::min(writeBlocks_, footprintBlocks_ / 4);

    contentSalt_ = mix64(rng_.next());
    streamCursor_ = streamStart();
}

MemRef
AppModel::next()
{
    if (burstLeft_ == 0) {
        // Pick the next block, then dwell on it for a spatial burst
        // (what the L1 filters). With probability writeFraction the
        // burst targets the write-cycle set: frequently-updated state
        // (accumulators, histogram bins, queue heads) that is rewritten
        // over and over. These blocks are the LLC's write-reuse class:
        // each round trip is a GetX-invalidate / Put-dirty cycle.
        const double u = rng_.nextDouble();
        Addr offset;

        if (rng_.nextBool(profile_.writeFraction)) {
            offset = loopBlocks_ + rng_.nextBounded(writeBlocks_);
            burstWrites_ = true;
        } else {
            if (u < profile_.pLoop) {
                // Sweep over the loop working set with jitter: every
                // block is revisited each iteration (read reuse at the
                // LLC when the set exceeds L2).
                if (rng_.nextBool(profile_.loopJitter)) {
                    offset = rng_.nextBounded(loopBlocks_);
                } else {
                    offset = loopCursor_;
                    loopCursor_ = (loopCursor_ + 1) % loopBlocks_;
                }
            } else if (u < profile_.pLoop + profile_.pStream) {
                // One-way streaming over the tail of the footprint: no
                // temporal reuse (thrashing traffic).
                offset = streamCursor_;
                ++streamCursor_;
                if (streamCursor_ >= footprintBlocks_)
                    streamCursor_ = streamStart();
            } else {
                // Uniform random over the whole footprint.
                offset = rng_.nextBounded(footprintBlocks_);
            }
            // Residual dirtiness outside the write-cycle set (streamed
            // output arrays, occasional in-place updates).
            burstWrites_ =
                rng_.nextBool(0.06 + 0.15 * profile_.loopWriteBias);
        }

        burstBlock_ = addrBase_ + offset;
        const auto mean = profile_.spatialBurst;
        burstLeft_ = 1 + static_cast<unsigned>(
            rng_.nextBounded(static_cast<std::uint64_t>(2.0 * mean)));
    }
    --burstLeft_;

    // Half the references of a writing burst are stores.
    const bool write = burstWrites_ && rng_.nextBool(0.5);
    return { burstBlock_, write };
}

compression::Ce
AppModel::targetCeOf(Addr block) const
{
    // The content class is a stable per-block property (a given array
    // keeps its data type for the program's lifetime).
    const double u =
        static_cast<double>(mix64(block ^ contentSalt_) >> 11) * 0x1.0p-53;
    return mix_.draw(u);
}

unsigned
AppModel::ecbSizeOf(Addr block)
{
    auto it = ecbCache_.find(block);
    if (it != ecbCache_.end())
        return it->second;

    const unsigned ecb = compressor_->ecbSize(contentOf(block, 0));
    ecbCache_.emplace(block, static_cast<std::uint8_t>(ecb));
    return ecb;
}

BlockData
AppModel::contentOf(Addr block, std::uint32_t version) const
{
    // Rewrites change the values but not the content class, so the ECB
    // size is version-independent.
    return synthesizeBlock(targetCeOf(block),
                           mix64(block ^ contentSalt_) + version);
}

} // namespace hllc::workload
