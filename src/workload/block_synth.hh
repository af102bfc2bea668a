/**
 * @file
 * Deterministic synthesis of 64-byte block contents with a chosen
 * compressibility target.
 *
 * Given a target compression encoding and a seed, synthesizeBlock()
 * produces contents whose best BDI encoding is (with overwhelming
 * probability) exactly the target: deltas are drawn so that they need the
 * target's delta width but no more, and bases are random enough that the
 * other value widths do not apply. A verification loop re-compresses and
 * re-rolls on the rare collision, so callers can rely on the achieved
 * ECB size matching ecbSize(target).
 */

#ifndef HLLC_WORKLOAD_BLOCK_SYNTH_HH
#define HLLC_WORKLOAD_BLOCK_SYNTH_HH

#include <array>
#include <cstdint>
#include <unordered_map>

#include "common/types.hh"
#include "compression/bdi.hh"
#include "compression/encoding.hh"

namespace hllc::workload
{

/**
 * Probability weights over compression encodings used to draw a block's
 * content class.
 */
class ContentMix
{
  public:
    /** Uniform zeros (all blocks incompressible). */
    ContentMix();

    /**
     * Build a mix from aggregate class fractions (Figure 2 reports
     * HCR/LCR/incompressible per application). The HCR and LCR masses
     * are spread over their member encodings with fixed interior
     * weights.
     */
    static ContentMix fromClassFractions(double hcr, double lcr);

    /** Weight of encoding @p ce. */
    double weight(compression::Ce ce) const;

    /** Draw a target encoding from the mix using @p u in [0,1). */
    compression::Ce draw(double u) const;

  private:
    std::array<double, compression::numCe> cumulative_;
};

/** Synthesized contents plus the BDI verdict on exactly those bytes. */
struct SynthesizedBlock
{
    BlockData data{};
    unsigned ecbBytes = 0; //!< BDI ECB size of @c data
};

/**
 * Produce contents whose best BDI encoding is @p target.
 * Deterministic in (target, seed).
 */
BlockData synthesizeBlock(compression::Ce target, std::uint64_t seed);

/**
 * synthesizeBlock() together with the BDI ECB size of the returned
 * contents, taken from the compression the verification loop already
 * ran (so callers need not compress the same 64 bytes again).
 */
SynthesizedBlock synthesizeBlockWithEcb(compression::Ce target,
                                        std::uint64_t seed);

} // namespace hllc::workload

#endif // HLLC_WORKLOAD_BLOCK_SYNTH_HH
