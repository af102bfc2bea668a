/**
 * @file
 * Deterministic per-block payload/ECB synthesis for ingested traces.
 *
 * External trace formats carry addresses but no block contents, so the
 * compressed (ECB) size every .hlt event needs is synthesized the same
 * way the app models do it: a stable content class is drawn per block
 * from a ContentMix, a 64-byte payload with exactly that class is
 * produced by workload::synthesizeBlock, and the BDI compressor's
 * verdict on that payload becomes the event's ECB size. Everything is a
 * pure function of (seed, block number), so the same input trace and
 * seed always convert to byte-identical .hlt files.
 *
 * Verdicts are cached per block in a flat insert-only open-addressing
 * table (linear probing, the probe pattern of hybrid/reuse_tracker.hh
 * without deletion). Whole traces go through fillEcbs(), which
 * dedupes the blocks once and synthesizes the distinct ones in
 * parallel; because each verdict depends only on (seed, block), the
 * schedule cannot change a byte.
 */

#ifndef HLLC_INGEST_PAYLOAD_SYNTH_HH
#define HLLC_INGEST_PAYLOAD_SYNTH_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "hybrid/types.hh"
#include "workload/block_synth.hh"

namespace hllc::ingest
{

/** Draws and caches one stable ECB size per block number. */
class PayloadSynth
{
  public:
    /**
     * Fewer new distinct blocks than this in one fillEcbs() call are
     * synthesized inline: spawning workers costs more than it saves,
     * and the fuzzers' many tiny conversions never start a thread.
     */
    static constexpr std::size_t parallelThreshold = 16 * 1024;

    /**
     * @param mix content-class weights (HCR/LCR/incompressible)
     * @param seed conversion seed; independent streams per seed
     */
    PayloadSynth(const workload::ContentMix &mix, std::uint64_t seed);

    /** Target content class of @p block (stable per block). */
    compression::Ce targetCeOf(Addr block) const;

    /**
     * Synthesize @p block's payload and return its BDI ECB size in
     * bytes (always within the trace-legal 2..64 range). Cached.
     */
    std::uint8_t ecbOf(Addr block);

    /**
     * Set every event's ecbBytes to ecbOf(event.blockNum), in three
     * passes: record the blocks not yet cached in first-seen order,
     * synthesize those, then write the verdicts into the events. The
     * last two passes run on defaultJobs() workers when at least
     * parallelThreshold blocks are new, inline otherwise. Should a
     * synthesis worker throw, the cache is dropped (it only ever holds
     * recomputable values) and the exception propagates.
     */
    void fillEcbs(std::span<hybrid::LlcEvent> events);

    /** Number of distinct blocks synthesized so far. */
    std::size_t distinctBlocks() const { return size_; }

  private:
    /** Uncached verdict: one synthesize + BDI pass over @p block. */
    std::uint8_t synthesize(Addr block) const;

    /**
     * Slot holding @p block, claiming an empty one (marked
     * pendingEcb) if it is not in the table yet.
     */
    std::size_t slotFor(Addr block);

    /**
     * Slot holding @p block, which must be in the table. Reads only
     * keys_, so workers may call it while others write ecbs_.
     */
    std::size_t findSlot(Addr block) const;

    void grow();
    void clear();

    /** ecbs_ value of a free slot; real verdicts are never 0. */
    static constexpr std::uint8_t emptyEcb = 0;
    /** ecbs_ value of a claimed slot whose verdict is not known yet. */
    static constexpr std::uint8_t pendingEcb = 0xff;
    static constexpr std::size_t initialSlots = 1024;

    workload::ContentMix mix_;
    std::uint64_t salt_;
    std::vector<Addr> keys_;
    std::vector<std::uint8_t> ecbs_; //!< per slot; emptyEcb = free
    std::size_t size_ = 0;
};

} // namespace hllc::ingest

#endif // HLLC_INGEST_PAYLOAD_SYNTH_HH
