#include "ingest/champsim.hh"

#include <array>
#include <cstring>

#include "check/manifest.hh"
#include "common/failpoint.hh"
#include "common/numfmt.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "ingest/payload_synth.hh"

namespace hllc::ingest
{

namespace
{

using hybrid::LlcEvent;
using hybrid::LlcEventType;

} // anonymous namespace

void
checkClassFractions(double hcr, double lcr)
{
    if (hcr < 0.0 || lcr < 0.0 || hcr + lcr > 1.0) {
        throw IoError("content-class fractions must be >= 0 and sum"
                      " to <= 1 (hcr " + formatDouble(hcr) + ", lcr " +
                      formatDouble(lcr) + ")");
    }
}

void
synthesizeCaptureMeta(replay::LlcTrace &trace,
                      const std::string &mix_name)
{
    std::array<std::uint64_t, replay::traceCores> demands{};
    for (const LlcEvent &event : trace.events()) {
        if (event.type == LlcEventType::GetS ||
            event.type == LlcEventType::GetX) {
            ++demands[event.core % replay::traceCores];
        }
    }
    trace.meta().mixName = mix_name;
    for (std::size_t c = 0; c < replay::traceCores; ++c) {
        replay::CoreMeta &m = trace.meta().cores[c];
        m.llcDemands = demands[c];
        m.l2Hits = demands[c] * 3;
        m.l1Hits = demands[c] * 40;
        m.refs = m.l1Hits + m.l2Hits + demands[c];
        m.instructions = m.refs * 4;
        m.baseCpi = 0.4;
    }
}

ChampSimRecord
decodeChampSimRecord(const std::uint8_t *bytes, std::uint64_t index)
{
    ChampSimRecord rec;
    rec.pc = serial::loadLe<std::uint64_t>(bytes);
    rec.addr = serial::loadLe<std::uint64_t>(bytes + 8);
    const std::uint8_t type = bytes[16];
    const std::uint8_t cpu = bytes[17];
    // bytes[18] is the fill hint, bytes[19..23] are reserved; both are
    // informational in the CRC2 kits and deliberately ignored here.
    if (type > static_cast<std::uint8_t>(ChampSimType::Writeback)) {
        throw IoError("champsim record " + formatU64(index) +
                      ": bad access type " + formatU64(type) +
                      " (expected 0..3)");
    }
    if (cpu >= replay::traceCores) {
        throw IoError("champsim record " + formatU64(index) +
                      ": cpu " + formatU64(cpu) + " out of range (" +
                      formatU64(replay::traceCores) + " cores)");
    }
    rec.type = static_cast<ChampSimType>(type);
    rec.cpu = cpu;
    return rec;
}

replay::LlcTrace
convertChampSim(ByteSource &source, const ConvertOptions &options,
                ConvertStats *stats)
{
    HLLC_FAILPOINT("ingest.decode");
    checkClassFractions(options.hcrFraction, options.lcrFraction);

    replay::LlcTrace trace;
    ConvertStats local;

    // Stream in chunks; only whole records are decoded and the
    // remainder is carried over, so a source of any chunking behaves
    // identically. 64 KiB keeps the decompressor pipe busy.
    std::vector<std::uint8_t> buf(64 * 1024);
    std::size_t have = 0;
    bool capped = false;
    for (;;) {
        const std::size_t got =
            source.read(buf.data() + have, buf.size() - have);
        if (got == 0)
            break;
        have += got;
        local.bytesIn += got;

        std::size_t pos = 0;
        while (have - pos >= champSimRecordBytes && !capped) {
            const ChampSimRecord rec =
                decodeChampSimRecord(buf.data() + pos, local.records);
            pos += champSimRecordBytes;
            ++local.records;

            LlcEvent event{}; // ecbBytes is filled in by fillEcbs below
            event.blockNum = rec.addr >> blockOffsetBits;
            event.core = rec.cpu;
            bool emit = true;
            switch (rec.type) {
            case ChampSimType::Load:
                ++local.loads;
                event.type = LlcEventType::GetS;
                break;
            case ChampSimType::Rfo:
                ++local.rfos;
                event.type = LlcEventType::GetX;
                break;
            case ChampSimType::Prefetch:
                ++local.prefetches;
                event.type = LlcEventType::GetS;
                emit = !options.dropPrefetches;
                break;
            case ChampSimType::Writeback:
                ++local.writebacks;
                event.type = LlcEventType::PutDirty;
                break;
            }
            if (!emit) {
                ++local.dropped;
                continue;
            }
            trace.append(event);
            if (options.maxEvents != 0 &&
                trace.size() >= options.maxEvents) {
                capped = true;
            }
        }
        if (capped)
            break;
        std::memmove(buf.data(), buf.data() + pos, have - pos);
        have -= pos;
    }
    if (!capped && have != 0) {
        throw IoError("champsim stream truncated: " + formatU64(have) +
                      " trailing byte(s) after record " +
                      formatU64(local.records) + " (records are " +
                      formatU64(champSimRecordBytes) + " bytes)");
    }

    // Every record is decoded and validated before any payload is
    // synthesized; the ECBs are then filled in one batch.
    PayloadSynth synth(
        workload::ContentMix::fromClassFractions(options.hcrFraction,
                                                 options.lcrFraction),
        options.seed);
    synth.fillEcbs(trace.blocks(), trace.mutableEcbs());
    synthesizeCaptureMeta(trace, options.mixName);
    local.events = trace.size();
    local.distinctBlocks = synth.distinctBlocks();
    if (stats != nullptr) {
        local.container = stats->container;
        *stats = local;
    }
    return trace;
}

ConvertStats
convertChampSimFile(const std::string &in_path,
                    const std::string &out_path,
                    const ConvertOptions &options)
{
    ConvertStats stats;
    const std::unique_ptr<ByteSource> source =
        openByteSource(in_path, &stats.container);
    const replay::LlcTrace trace =
        convertChampSim(*source, options, &stats);
    writeTraceWithManifest(out_path, trace, options.seed);
    return stats;
}

void
writeTraceWithManifest(const std::string &path,
                       const replay::LlcTrace &trace, std::uint64_t seed)
{
    HLLC_FAILPOINT("ingest.write");
    trace.save(path);
    check::TraceManifest manifest = check::computeManifest(path, trace);
    manifest.hasSeed = true;
    manifest.seed = seed;
    check::saveManifest(path, manifest);
}

std::vector<std::uint8_t>
synthesizeChampSimFixture(std::uint64_t records, std::uint64_t seed)
{
    // Four cores blending the archetypes a real capture shows: a hot
    // loop (reuse), a streaming scan (no reuse) and a scattered heap.
    // Pure function of (records, seed).
    Xoshiro256StarStar rng = childStream(seed, 0x1461, 0);
    std::array<std::uint64_t, replay::traceCores> loop_pos{};
    std::array<std::uint64_t, replay::traceCores> stream_pos{};
    // Zero-filled up front: the reserved bytes 19..23 stay zero.
    std::vector<std::uint8_t> out(records * champSimRecordBytes);
    std::uint8_t *rec = out.data();

    for (std::uint64_t i = 0; i < records; ++i, rec += champSimRecordBytes) {
        const auto cpu =
            static_cast<std::uint8_t>(i % replay::traceCores);
        const std::uint64_t core_base =
            (static_cast<std::uint64_t>(cpu) + 1) << 32;

        std::uint64_t block;
        const std::uint64_t pattern = rng.nextBounded(10);
        if (pattern < 5) {
            // Hot loop over 48 blocks: the reuse the policies feed on.
            block = core_base + (loop_pos[cpu]++ % 48);
        } else if (pattern < 8) {
            block = core_base + 0x10000 + stream_pos[cpu]++;
        } else {
            block = core_base + 0x40000 + rng.nextBounded(1 << 16);
        }

        std::uint8_t type;
        const std::uint64_t t = rng.nextBounded(100);
        if (t < 55)
            type = static_cast<std::uint8_t>(ChampSimType::Load);
        else if (t < 70)
            type = static_cast<std::uint8_t>(ChampSimType::Rfo);
        else if (t < 80)
            type = static_cast<std::uint8_t>(ChampSimType::Prefetch);
        else
            type = static_cast<std::uint8_t>(ChampSimType::Writeback);

        serial::storeLe<std::uint64_t>(rec, 0x400000 + mix64(i) % 0x10000);
        serial::storeLe<std::uint64_t>(rec + 8, block << blockOffsetBits);
        rec[16] = type;
        rec[17] = cpu;
        rec[18] = static_cast<std::uint8_t>(rng.nextBounded(2)); // fill hint
    }
    return out;
}

} // namespace hllc::ingest
