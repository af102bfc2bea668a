#include "ingest/payload_synth.hh"

#include <algorithm>

#include "common/rng.hh"
#include "common/thread_pool.hh"

namespace hllc::ingest
{

namespace
{

/** splitmix64 finalizer: a full-avalanche mix of the block number. */
std::size_t
hashOf(Addr key)
{
    std::uint64_t x = key;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
}

/** Distinct blocks one parallel task synthesizes. */
constexpr std::size_t chunkBlocks = 4096;
/** Events one parallel task writes back. */
constexpr std::size_t chunkEvents = 64 * 1024;

/**
 * body(0) .. body(n - 1): a plain loop, or one parallelFor task per
 * @p chunk indices on defaultJobs() workers.
 */
template <typename Body>
void
forChunks(bool parallel, std::size_t n, std::size_t chunk, const Body &body)
{
    if (!parallel) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    parallelFor(defaultJobs(), (n + chunk - 1) / chunk, [&](std::size_t c) {
        const std::size_t end = std::min(n, (c + 1) * chunk);
        for (std::size_t i = c * chunk; i < end; ++i)
            body(i);
    });
}

} // anonymous namespace

PayloadSynth::PayloadSynth(const workload::ContentMix &mix,
                           std::uint64_t seed)
    : mix_(mix), salt_(mix64(seed ^ 0x696e676573743031ULL)),
      keys_(initialSlots), ecbs_(initialSlots, emptyEcb)
{
}

compression::Ce
PayloadSynth::targetCeOf(Addr block) const
{
    // Same uniform-double construction as the app models: top 53 bits
    // of a mixed draw over 2^53.
    const double u =
        static_cast<double>(mix64(block ^ salt_) >> 11) * 0x1.0p-53;
    return mix_.draw(u);
}

std::uint8_t
PayloadSynth::synthesize(Addr block) const
{
    return static_cast<std::uint8_t>(
        workload::synthesizeBlockWithEcb(targetCeOf(block),
                                         mix64(block ^ salt_) + 1)
            .ecbBytes);
}

std::uint8_t
PayloadSynth::ecbOf(Addr block)
{
    const std::size_t slot = slotFor(block);
    if (ecbs_[slot] == pendingEcb)
        ecbs_[slot] = synthesize(block);
    return ecbs_[slot];
}

void
PayloadSynth::fillEcbs(std::span<hybrid::LlcEvent> events)
{
    // Pass 1: dedupe. Every block new to the cache is claimed once and
    // listed in first-seen order.
    std::vector<Addr> fresh;
    for (const hybrid::LlcEvent &event : events) {
        const std::size_t before = size_;
        slotFor(event.blockNum);
        if (size_ != before)
            fresh.push_back(event.blockNum);
    }

    // The table keeps its shape from here on, so findSlot (which reads
    // only keys_) is safe on every worker while each one writes the
    // verdict bytes of its own blocks or events.
    const bool parallel = fresh.size() >= parallelThreshold;

    // Pass 2: synthesize the new blocks. Each verdict is a pure
    // function of (salt, block), so the schedule cannot change a byte.
    try {
        forChunks(parallel, fresh.size(), chunkBlocks,
                  [&](std::size_t i) {
                      ecbs_[findSlot(fresh[i])] = synthesize(fresh[i]);
                  });
    } catch (...) {
        clear(); // pending slots would otherwise stay unsynthesized
        throw;
    }

    // Pass 3: write the verdicts back into the events.
    forChunks(parallel, events.size(), chunkEvents,
              [&](std::size_t i) {
                  events[i].ecbBytes =
                      ecbs_[findSlot(events[i].blockNum)];
              });
}

std::size_t
PayloadSynth::slotFor(Addr block)
{
    // Keep the table at most half full so probe runs stay short.
    if ((size_ + 1) * 2 > keys_.size())
        grow();
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = hashOf(block) & mask;
    while (ecbs_[i] != emptyEcb) {
        if (keys_[i] == block)
            return i;
        i = (i + 1) & mask;
    }
    keys_[i] = block;
    ecbs_[i] = pendingEcb;
    ++size_;
    return i;
}

std::size_t
PayloadSynth::findSlot(Addr block) const
{
    const std::size_t mask = keys_.size() - 1;
    std::size_t i = hashOf(block) & mask;
    // No free slot lies between a present key's home and its slot, so
    // comparing keys alone finds it without reading ecbs_.
    while (keys_[i] != block)
        i = (i + 1) & mask;
    return i;
}

void
PayloadSynth::grow()
{
    const std::vector<Addr> old_keys = std::move(keys_);
    const std::vector<std::uint8_t> old_ecbs = std::move(ecbs_);
    keys_.assign(old_keys.size() * 2, 0);
    ecbs_.assign(old_ecbs.size() * 2, emptyEcb);
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t s = 0; s < old_keys.size(); ++s) {
        if (old_ecbs[s] == emptyEcb)
            continue;
        std::size_t i = hashOf(old_keys[s]) & mask;
        while (ecbs_[i] != emptyEcb)
            i = (i + 1) & mask;
        keys_[i] = old_keys[s];
        ecbs_[i] = old_ecbs[s];
    }
}

void
PayloadSynth::clear()
{
    keys_.assign(initialSlots, 0);
    ecbs_.assign(initialSlots, emptyEcb);
    size_ = 0;
}

} // namespace hllc::ingest
