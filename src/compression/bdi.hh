/**
 * @file
 * Modified Base-Delta-Immediate compressor/decompressor.
 *
 * The compressor evaluates every encoding of ceTable() in parallel
 * (sequentially in software) and picks the one with the smallest ECB, as
 * the hardware CE selection tree does. encode()/decode() produce and
 * consume real ECB byte vectors, so round-trip checks exercise every
 * encoding with bit fidelity.
 */

#ifndef HLLC_COMPRESSION_BDI_HH
#define HLLC_COMPRESSION_BDI_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "compression/encoding.hh"

namespace hllc::compression
{

/** Outcome of compressing one 64-byte block. */
struct CompressionResult
{
    Ce ce;              //!< chosen encoding
    unsigned cbBytes;   //!< compressed payload size
    unsigned ecbBytes;  //!< payload + CE header (what is written to NVM)

    CompressClass compressClass() const { return classify(ecbBytes); }
};

/**
 * Stateless BDI compression engine (2-cycle decompression latency is
 * modelled in the timing layer, not here).
 */
class BdiCompressor
{
  public:
    /** Pick the smallest applicable encoding for @p data. */
    static CompressionResult compress(const BlockData &data);

    /** Whether @p data can be represented with encoding @p ce. */
    static bool applicable(const BlockData &data, Ce ce);

    /**
     * Materialise the ECB byte vector of @p data under encoding @p ce.
     * Layout: [CE header byte][payload]; Uncompressed blocks are the raw
     * 64 bytes with no header. @p ce must be applicable.
     */
    static std::vector<std::uint8_t> encode(const BlockData &data, Ce ce);

    /** Inverse of encode(): rebuild the raw block from an ECB. */
    static BlockData decode(Ce ce, std::span<const std::uint8_t> ecb);
};

} // namespace hllc::compression

#endif // HLLC_COMPRESSION_BDI_HH
