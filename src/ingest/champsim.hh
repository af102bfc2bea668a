/**
 * @file
 * ChampSim CRC2-style trace decoding and conversion to .hlt v2.
 *
 * The adapter consumes the fixed-width little-endian LLC access records
 * of the Cache Replacement Championship tooling (the layout is
 * specified in DESIGN.md "Ingesting external traces" so this repo is
 * self-contained) and maps them onto the replay layer's GetS/GetX/Put
 * event vocabulary. Records stream through a ByteSource — there are no
 * trusted length fields anywhere: the decoder processes exactly the
 * bytes that arrive, validates every enum field, and rejects a stream
 * that ends mid-record. Malformed input is always a typed IoError,
 * never an abort, so the converter can sit on untrusted files.
 */

#ifndef HLLC_INGEST_CHAMPSIM_HH
#define HLLC_INGEST_CHAMPSIM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "ingest/byte_source.hh"
#include "replay/llc_trace.hh"

namespace hllc::ingest
{

/** Size of one ChampSim CRC2 LLC access record on disk. */
inline constexpr std::size_t champSimRecordBytes = 24;

/** Access types the CRC2 record's type field may carry. */
enum class ChampSimType : std::uint8_t
{
    Load = 0,      //!< demand read (L2 miss)
    Rfo = 1,       //!< read-for-ownership (store miss)
    Prefetch = 2,  //!< hardware prefetch reaching the LLC
    Writeback = 3  //!< dirty eviction from the private levels
};

/** One decoded CRC2 record (see DESIGN.md for the byte layout). */
struct ChampSimRecord
{
    std::uint64_t pc = 0;    //!< program counter of the access
    std::uint64_t addr = 0;  //!< byte-granular physical address
    ChampSimType type = ChampSimType::Load;
    std::uint8_t cpu = 0;    //!< originating core, < replay::traceCores
};

/**
 * Decode one record from exactly champSimRecordBytes bytes. Throws
 * IoError on an out-of-range type or cpu field; @p index names the
 * offending record in the message.
 */
ChampSimRecord decodeChampSimRecord(const std::uint8_t *bytes,
                                    std::uint64_t index);

/** Conversion knobs; every field participates in determinism. */
struct ConvertOptions
{
    std::uint64_t seed = 1;      //!< payload-synthesis seed
    double hcrFraction = 0.4;    //!< high-compression content mass
    double lcrFraction = 0.3;    //!< low-compression content mass
    std::uint64_t maxEvents = 0; //!< stop after N events (0 = all)
    bool dropPrefetches = false; //!< count but do not emit prefetches
    std::string mixName = "champsim"; //!< recorded trace mix name
};

/** What one conversion saw and produced (feeds hllc-ingest-v1). */
struct ConvertStats
{
    std::uint64_t bytesIn = 0;      //!< decoded payload bytes consumed
    std::uint64_t records = 0;      //!< records decoded
    std::uint64_t loads = 0;
    std::uint64_t rfos = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t dropped = 0;      //!< records not emitted as events
    std::uint64_t events = 0;       //!< .hlt events produced
    std::uint64_t distinctBlocks = 0;
    ContainerKind container = ContainerKind::Raw;
};

/**
 * Decode a CRC2 record stream into an LlcTrace: Load/Prefetch become
 * GetS, Rfo becomes GetX, Writeback becomes PutDirty; each event's ECB
 * size comes from deterministic payload synthesis (payload_synth.hh)
 * keyed by @p options.seed and the block number. Every record is
 * decoded and validated first; the ECBs are then filled in one
 * PayloadSynth::fillEcbs pass on defaultJobs() workers, which cannot
 * change a byte of the output. Per-core capture
 * metadata is synthesized from the observed demand counts so the
 * timing-dependent replay paths (forecast, resume diffs) stay
 * non-vacuous. Throws IoError on any malformed input.
 */
replay::LlcTrace convertChampSim(ByteSource &source,
                                 const ConvertOptions &options,
                                 ConvertStats *stats = nullptr);

/**
 * Full-file conversion: open @p in_path (gzip/xz unwrapped by magic),
 * convert, and atomically write @p out_path plus its sidecar manifest.
 * On any failure the destination is either untouched or not created —
 * never a torn .hlt. Returns the conversion stats.
 */
ConvertStats convertChampSimFile(const std::string &in_path,
                                 const std::string &out_path,
                                 const ConvertOptions &options);

/**
 * Fill @p trace's per-core capture metadata from its own demand
 * counts (the trace_fuzz shape: enough synthetic private-level
 * activity that replay timing and resume diffs are non-vacuous) and
 * record @p mix_name. Shared by the converter and the scenario
 * library.
 */
void synthesizeCaptureMeta(replay::LlcTrace &trace,
                           const std::string &mix_name);

/**
 * Save @p trace to @p path and write the seed-stamped sidecar manifest
 * next to it (the shared tail of every ingest path; carries the
 * "ingest.write" failpoint).
 */
void writeTraceWithManifest(const std::string &path,
                            const replay::LlcTrace &trace,
                            std::uint64_t seed);

/**
 * Deterministically synthesize a plausible CRC2 record stream: four
 * cores running a blend of loop, streaming and random access patterns.
 * This is the committed-fixture generator (tools --gen-fixture) and the
 * seed input of the ingest fuzz corpora.
 */
std::vector<std::uint8_t>
synthesizeChampSimFixture(std::uint64_t records, std::uint64_t seed);

} // namespace hllc::ingest

#endif // HLLC_INGEST_CHAMPSIM_HH
