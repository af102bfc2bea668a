#include "fault/fault_map.hh"

#include <algorithm>
#include <cmath>
#include <bit>

#include "common/logging.hh"
#include "common/numfmt.hh"
#include "common/serialize.hh"

namespace hllc::fault
{

void
PendingWear::add(const PendingWear &other)
{
    HLLC_ASSERT(other.bytes.size() == bytes.size());
    for (std::size_t f = 0; f < bytes.size(); ++f) {
        bytes[f] += other.bytes[f];
        blockWrites[f] += other.blockWrites[f];
    }
}

void
PendingWear::clear(std::size_t begin, std::size_t end)
{
    std::fill(bytes.begin() + begin, bytes.begin() + end, 0.0);
    std::fill(blockWrites.begin() + begin, blockWrites.begin() + end, 0.0);
}

FaultMap::FaultMap(const EnduranceModel &endurance,
                   DisableGranularity granularity,
                   WearDistribution distribution)
    : endurance_(&endurance), granularity_(granularity),
      distribution_(distribution)
{
    const auto frames = geometry().numFrames();
    HLLC_ASSERT(geometry().frameBytes == 64,
                "the 64-bit live mask requires 64-byte frames");

    liveMask_.assign(frames, ~std::uint64_t{0});
    liveCount_.assign(frames, static_cast<std::uint8_t>(64));
    pending_ = PendingWear(frames);
    writes_.assign(geometry().numBytes(), 0.0);
    totalLive_ = geometry().numBytes();
}

double
FaultMap::effectiveCapacity() const
{
    return static_cast<double>(totalLive_) /
           static_cast<double>(geometry().numBytes());
}

void
FaultMap::disableByte(std::uint32_t frame, unsigned byte)
{
    const std::uint64_t bit = std::uint64_t{1} << byte;
    if (!(liveMask_[frame] & bit))
        return;
    liveMask_[frame] &= ~bit;
    --liveCount_[frame];
    --totalLive_;
    if (liveCount_[frame] == 0)
        ++deadFrames_;
}

void
FaultMap::killByte(std::uint32_t frame, unsigned byte)
{
    HLLC_ASSERT(frame < geometry().numFrames());
    HLLC_ASSERT(byte < geometry().frameBytes);
    if (granularity_ == DisableGranularity::Frame) {
        killFrame(frame);
    } else {
        disableByte(frame, byte);
    }
}

void
FaultMap::killFrame(std::uint32_t frame)
{
    HLLC_ASSERT(frame < geometry().numFrames());
    for (unsigned b = 0; b < geometry().frameBytes; ++b)
        disableByte(frame, b);
}

std::uint64_t
FaultMap::age(double scale)
{
    HLLC_ASSERT(scale >= 0.0);
    std::uint64_t newly_disabled = 0;

    const unsigned frame_bytes = geometry().frameBytes;
    const auto frames = geometry().numFrames();
    for (std::uint32_t f = 0; f < frames; ++f) {
        const double pending = pending_.bytes[f] * scale;
        const double count = pending_.blockWrites[f] * scale;
        pending_.bytes[f] = 0.0;
        pending_.blockWrites[f] = 0.0;
        if (pending <= 0.0)
            continue;
        const unsigned live = liveCount_[f];
        if (live == 0)
            continue;

        // Leveled: the rotation spreads the frame's traffic uniformly
        // over the live bytes. FrontLoaded: every write lands on the
        // first avg-block-size live bytes, which take one write each
        // per block write.
        const double per_byte_leveled = pending / live;
        unsigned front_bytes = live;
        if (distribution_ == WearDistribution::FrontLoaded && count > 0.0)
            front_bytes = std::min<unsigned>(
                live, static_cast<unsigned>(
                          std::ceil(pending / count - 1e-9)));

        const std::uint64_t mask = liveMask_[f];
        bool frame_hit = false;
        unsigned live_seen = 0;
        for (unsigned b = 0; b < frame_bytes; ++b) {
            if (!(mask & (std::uint64_t{1} << b)))
                continue;
            double wear;
            if (distribution_ == WearDistribution::Leveled) {
                wear = per_byte_leveled;
            } else {
                wear = live_seen < front_bytes ? count : 0.0;
            }
            ++live_seen;
            if (wear <= 0.0)
                continue;
            const std::size_t idx = byteIndex(f, b);
            writes_[idx] += wear;
            if (writes_[idx] > endurance_->limit(f, b)) {
                if (granularity_ == DisableGranularity::Frame) {
                    frame_hit = true;
                } else {
                    disableByte(f, b);
                    ++newly_disabled;
                }
            }
        }
        if (frame_hit) {
            newly_disabled += liveCount_[f];
            killFrame(f);
        }
    }
    return newly_disabled;
}

void
FaultMap::snapshot(serial::Encoder &enc) const
{
    enc.u32(geometry().numFrames());
    enc.u32(geometry().frameBytes);
    enc.u64Vec(liveMask_);
    enc.f64Vec(writes_);
    enc.f64Vec(pending_.bytes);
    enc.f64Vec(pending_.blockWrites);
}

void
FaultMap::restore(serial::Decoder &dec)
{
    const std::uint32_t frames = dec.u32();
    const std::uint32_t frame_bytes = dec.u32();
    if (frames != geometry().numFrames() ||
        frame_bytes != geometry().frameBytes) {
        throw IoError("fault-map geometry mismatch: snapshot has " +
                      formatU64(frames) + "x" +
                      formatU64(frame_bytes) + ", map has " +
                      formatU64(geometry().numFrames()) + "x" +
                      formatU64(geometry().frameBytes));
    }

    std::vector<std::uint64_t> live_mask = dec.u64Vec();
    std::vector<double> writes = dec.f64Vec();
    std::vector<double> pending_bytes = dec.f64Vec();
    std::vector<double> pending_count = dec.f64Vec();
    if (live_mask.size() != frames ||
        writes.size() != geometry().numBytes() ||
        pending_bytes.size() != frames ||
        pending_count.size() != frames) {
        throw IoError("fault-map snapshot has inconsistent array sizes");
    }

    liveMask_ = std::move(live_mask);
    writes_ = std::move(writes);
    pending_.bytes = std::move(pending_bytes);
    pending_.blockWrites = std::move(pending_count);

    // The derived aggregates are recomputed rather than trusted.
    totalLive_ = 0;
    deadFrames_ = 0;
    liveCount_.resize(liveMask_.size());
    for (std::size_t f = 0; f < liveMask_.size(); ++f) {
        const auto live =
            static_cast<std::uint8_t>(std::popcount(liveMask_[f]));
        liveCount_[f] = live;
        totalLive_ += live;
        if (live == 0)
            ++deadFrames_;
    }
}

void
FaultMap::discardPending()
{
    pending_.clear();
}

} // namespace hllc::fault
