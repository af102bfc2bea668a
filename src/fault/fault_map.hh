/**
 * @file
 * Fault map of the NVM data array: byte- or frame-granular disabling.
 *
 * Every NVM frame has a 64-bit live-byte mask (the paper's 66-bit fault
 * map entry: 64 byte-valid bits plus frame state). Byte-disabling keeps
 * partially defective frames usable for compressed blocks; frame-disabling
 * (used by the BH/LHybrid/TAP baselines, paper Sec. V) retires a frame on
 * its first hard fault.
 *
 * The map also owns the wear state: cumulative (fractional) writes per
 * byte, accumulated by the forecast's aging steps. Because the intra-frame
 * wear-leveling rotation distributes each frame's write traffic uniformly
 * over its live bytes (Sec. III-B), aging spreads a frame's byte-write
 * total evenly across its currently-live bytes.
 */

#ifndef HLLC_FAULT_FAULT_MAP_HH
#define HLLC_FAULT_FAULT_MAP_HH

#include <cstdint>
#include <vector>

#include "fault/endurance.hh"

namespace hllc::serial
{
class Encoder;
class Decoder;
} // namespace hllc::serial

namespace hllc::fault
{

/** Granularity at which worn-out bitcells disable storage. */
enum class DisableGranularity { Byte, Frame };

/**
 * Wear recorded against NVM frames since the last age(): byte writes and
 * block writes per frame. Every recorded value is integer-valued and far
 * below 2^53, so any order of additions gives the same bits; that is
 * what lets the forecast's mix tasks record into private accumulators
 * and fold them into the map afterwards.
 */
struct PendingWear
{
    std::vector<double> bytes;       //!< per frame: byte writes
    std::vector<double> blockWrites; //!< per frame: block writes

    explicit PendingWear(std::size_t frames = 0)
        : bytes(frames, 0.0), blockWrites(frames, 0.0)
    {
    }

    void add(std::uint32_t frame, double byte_writes, double block_writes)
    {
        bytes[frame] += byte_writes;
        blockWrites[frame] += block_writes;
    }

    /** Add every frame of @p other (same frame count). */
    void add(const PendingWear &other);

    /** Zero frames [begin, end). */
    void clear(std::size_t begin, std::size_t end);
    void clear() { clear(0, bytes.size()); }
};

/**
 * How a frame's write traffic distributes over its bytes (ablation knob;
 * the paper assumes the rotation-based intra-frame leveling of [24]).
 */
enum class WearDistribution
{
    /** Rotation-based leveling: traffic spreads over all live bytes. */
    Leveled,
    /**
     * No intra-frame leveling: every write starts at the first live
     * byte, so the frame's leading bytes absorb all the wear.
     */
    FrontLoaded
};

class FaultMap
{
  public:
    /**
     * @param endurance shared per-byte write limits
     * @param granularity byte- or frame-level disabling
     * @param distribution intra-frame wear distribution model
     */
    FaultMap(const EnduranceModel &endurance,
             DisableGranularity granularity,
             WearDistribution distribution = WearDistribution::Leveled);

    const NvmGeometry &geometry() const { return endurance_->geometry(); }
    DisableGranularity granularity() const { return granularity_; }

    /** 64-bit live mask of @p frame (bit i set = byte i usable). */
    std::uint64_t liveMask(std::uint32_t frame) const
    {
        return liveMask_[frame];
    }

    /** Number of live (usable) bytes in @p frame. */
    unsigned liveBytes(std::uint32_t frame) const
    {
        return liveCount_[frame];
    }

    /**
     * Effective data capacity of @p frame: the largest ECB it can hold.
     * Equal to liveBytes() under byte disabling; 0 or frameBytes under
     * frame disabling.
     */
    unsigned frameCapacity(std::uint32_t frame) const
    {
        return liveCount_[frame];
    }

    /** Whether @p frame can hold at least a @p ecb_bytes-byte block. */
    bool fits(std::uint32_t frame, unsigned ecb_bytes) const
    {
        return liveCount_[frame] >= ecb_bytes;
    }

    /** Live bytes across the whole NVM part. */
    std::uint64_t totalLiveBytes() const { return totalLive_; }

    /** Live-byte fraction of the NVM part, in [0, 1]. */
    double effectiveCapacity() const;

    /** Number of frames whose capacity is zero. */
    std::uint32_t deadFrames() const { return deadFrames_; }

    WearDistribution distribution() const { return distribution_; }

    /**
     * Record that a block write deposited @p ecb_bytes bytes into
     * @p frame. Wear is applied per the distribution model when age()
     * is next called.
     */
    void recordWrite(std::uint32_t frame, unsigned ecb_bytes)
    {
        pending_.add(frame, ecb_bytes, 1.0);
    }

    /**
     * The map's own pending-wear accumulator: where an LLC records its
     * writes unless given another sink (HybridLlc::setWearSink).
     */
    PendingWear &pending() { return pending_; }

    /** Pending (un-aged) byte writes recorded against @p frame. */
    double pendingWrites(std::uint32_t frame) const
    {
        return pending_.bytes[frame];
    }

    /** Pending (un-aged) block writes recorded against @p frame. */
    double pendingBlockWrites(std::uint32_t frame) const
    {
        return pending_.blockWrites[frame];
    }

    /**
     * Apply the wear recorded since the previous age() call, scaled by
     * @p scale (forecast prediction phases replay a measured write-rate
     * window over a longer wall-clock span). Bytes whose cumulative
     * writes exceed their endurance limit become faulty; under frame
     * disabling the first faulty byte retires the whole frame.
     *
     * @return number of bytes newly disabled
     */
    std::uint64_t age(double scale = 1.0);

    /** Discard wear recorded since the last age() without applying it. */
    void discardPending();

    /** Force byte @p byte of @p frame faulty (fault injection / tests). */
    void killByte(std::uint32_t frame, unsigned byte);

    /** Force the whole @p frame faulty. */
    void killFrame(std::uint32_t frame);

    /** Cumulative writes endured so far by a byte. */
    double writesSoFar(std::uint32_t frame, unsigned byte) const
    {
        return writes_[byteIndex(frame, byte)];
    }

    /**
     * Serialise the complete mutable state (live masks, cumulative and
     * pending wear). The endurance model, granularity and distribution
     * are configuration, re-derived by the owner on restore.
     */
    void snapshot(serial::Encoder &enc) const;

    /**
     * Restore state written by snapshot() into a map constructed over
     * the same geometry; liveCount/totalLive/deadFrames are recomputed
     * from the restored masks. Throws IoError on a geometry mismatch or
     * malformed record, leaving the map unchanged.
     */
    void restore(serial::Decoder &dec);

  private:
    std::size_t
    byteIndex(std::uint32_t frame, unsigned byte) const
    {
        return static_cast<std::size_t>(frame) *
               geometry().frameBytes + byte;
    }

    void disableByte(std::uint32_t frame, unsigned byte);

    const EnduranceModel *endurance_;
    DisableGranularity granularity_;
    WearDistribution distribution_;

    std::vector<std::uint64_t> liveMask_;   //!< per frame
    std::vector<std::uint8_t> liveCount_;   //!< per frame (0..64)
    PendingWear pending_;                   //!< since last age()
    std::vector<double> writes_;            //!< per byte, cumulative
    std::uint64_t totalLive_ = 0;
    std::uint32_t deadFrames_ = 0;
};

} // namespace hllc::fault

#endif // HLLC_FAULT_FAULT_MAP_HH
