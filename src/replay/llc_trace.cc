#include "replay/llc_trace.hh"

#include <algorithm>

#include "common/failpoint.hh"
#include "common/numfmt.hh"
#include "common/serialize.hh"

namespace hllc::replay
{

namespace
{

/** v1: raw packed structs, no checksum (read-compat only). */
constexpr std::uint32_t traceMagicV1 = 0x484c4c54; // "HLLT"
constexpr std::uint32_t traceVersionV1 = 1;

/** v2: CRC32-checked chunked container (what save() writes). */
constexpr std::uint32_t traceMagicV2 = 0x484c5432; // "HLT2"
constexpr std::uint32_t traceVersionV2 = 1;

/** Longest mix name any sane trace carries. */
constexpr std::uint32_t maxNameLen = 4096;

/** On-disk v1 event record stride: u64 + 4 x u8, padded to 16 bytes. */
constexpr std::size_t v1EventStride = 16;
/** On-disk v1 per-core metadata stride: 5 x u64 + f64. */
constexpr std::size_t v1CoreStride = 48;
/** On-disk v2 event record stride: u64 + 3 x u8, unpadded. */
constexpr std::size_t v2EventStride = 11;

/** Events staged per Decoder::raw() call by the batched loaders. */
constexpr std::size_t decodeBatch = 4096;

/**
 * Decode @p count event records of @p stride bytes in batches: one
 * bounds-checked Decoder::raw() per ~4096 records into a staging buffer,
 * then plain pointer unpacking, instead of four Decoder calls (each with
 * its own bounds check) per event. The event count was validated against
 * the bytes actually present by the caller, and reserve() is clamped to
 * that bound again here so a miscounted header can never over-allocate.
 */
void
decodeEventRecords(serial::Decoder &dec, std::uint64_t count,
                   std::size_t stride, const std::string &path,
                   LlcTrace &trace)
{
    const std::uint64_t fit = dec.remaining() / stride;
    trace.reserve(static_cast<std::size_t>(std::min(count, fit)));

    const std::string where = "trace file '" + path + "'";
    std::vector<std::uint8_t> buf(decodeBatch * stride);
    std::uint64_t done = 0;
    while (done < count) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(decodeBatch, count - done));
        dec.raw(buf.data(), n * stride);
        const std::uint8_t *p = buf.data();
        for (std::size_t i = 0; i < n; ++i, p += stride) {
            trace.append(checkedEvent(serial::loadLe<std::uint64_t>(p),
                                      p[8], p[9], p[10], where));
        }
        done += n;
    }
}

/**
 * Append the v2 event stream to @p enc: the u64 count, then one
 * v2EventStride-byte record per event. The mirror of
 * decodeEventRecords(): the chunk grows once and records are packed
 * from the trace's columns with plain pointer stores instead of four
 * Encoder calls per event.
 */
void
encodeEventRecords(serial::Encoder &enc, const LlcTrace &trace)
{
    const std::size_t n = trace.size();
    const Addr *blocks = trace.blocks().data();
    const std::uint8_t *types = trace.types().data();
    const std::uint8_t *ecbs = trace.ecbs().data();
    const std::uint8_t *cores = trace.cores().data();
    enc.u64(n);
    std::uint8_t *p = enc.grow(n * v2EventStride);
    for (std::size_t i = 0; i < n; ++i, p += v2EventStride) {
        serial::storeLe(p, blocks[i]);
        p[8] = types[i];
        p[9] = ecbs[i];
        p[10] = cores[i];
    }
}

/**
 * Parse the legacy v1 image. Every length is validated against the
 * bytes actually present before any allocation, unlike the original
 * reader which trusted the header counts.
 */
LlcTrace
loadV1(serial::Decoder &dec, const std::string &path)
{
    const std::uint32_t version = dec.u32();
    if (version != traceVersionV1)
        throw IoError("trace file '" + path + "' has unsupported version " +
                      formatU64(version));

    LlcTrace trace;
    const std::uint32_t name_len = dec.u32();
    if (name_len > maxNameLen || name_len > dec.remaining())
        throw IoError("trace file '" + path +
                      "' declares an implausible mix-name length");
    trace.meta().mixName.resize(name_len);
    dec.raw(trace.meta().mixName.data(), name_len);

    if (dec.remaining() < traceCores * v1CoreStride + 8)
        throw IoError("trace file '" + path +
                      "' is truncated inside the core metadata");
    for (CoreMeta &core : trace.meta().cores) {
        core.instructions = dec.u64();
        core.refs = dec.u64();
        core.l1Hits = dec.u64();
        core.l2Hits = dec.u64();
        core.llcDemands = dec.u64();
        core.baseCpi = dec.f64();
    }

    const std::uint64_t count = dec.u64();
    if (count > dec.remaining() / v1EventStride)
        throw IoError("trace file '" + path +
                      "' declares more events than the file holds");
    decodeEventRecords(dec, count, v1EventStride, path, trace);
    if (!dec.atEnd())
        throw IoError("trace file '" + path +
                      "' has trailing bytes after the event stream");
    return trace;
}

LlcTrace
loadV2(const std::vector<std::uint8_t> &bytes, const std::string &path)
{
    serial::Container container;
    try {
        container = serial::Container::decode(bytes.data(), bytes.size(),
                                              traceMagicV2, traceVersionV2,
                                              traceVersionV2);
    } catch (const IoError &e) {
        throw IoError("trace file '" + path + "': " + e.what());
    }

    LlcTrace trace;
    serial::Decoder meta = container.open("meta");
    trace.meta().mixName = meta.str(maxNameLen);
    for (CoreMeta &core : trace.meta().cores) {
        core.instructions = meta.u64();
        core.refs = meta.u64();
        core.l1Hits = meta.u64();
        core.l2Hits = meta.u64();
        core.llcDemands = meta.u64();
        core.baseCpi = meta.f64();
    }

    serial::Decoder evts = container.open("evts");
    const std::uint64_t count = evts.u64();
    if (count > evts.remaining() / v2EventStride)
        throw IoError("trace file '" + path +
                      "' declares more events than the chunk holds");
    decodeEventRecords(evts, count, v2EventStride, path, trace);
    return trace;
}

} // anonymous namespace

void
throwBadEventField(const std::string &where, const char *field,
                   unsigned value)
{
    throw IoError(where + ": bad " + field + " " + formatU64(value));
}

void
LlcTrace::save(const std::string &path) const
{
    serial::Container container;

    serial::Encoder &meta = container.add("meta");
    meta.str(meta_.mixName);
    for (const CoreMeta &core : meta_.cores) {
        meta.u64(core.instructions);
        meta.u64(core.refs);
        meta.u64(core.l1Hits);
        meta.u64(core.l2Hits);
        meta.u64(core.llcDemands);
        meta.f64(core.baseCpi);
    }

    encodeEventRecords(container.add("evts"), *this);

    container.save(path, traceMagicV2, traceVersionV2);
}

LlcTrace
LlcTrace::load(const std::string &path)
{
    HLLC_FAILPOINT("trace.decode");
    const std::vector<std::uint8_t> bytes = serial::readFileBytes(path);
    serial::Decoder dec(bytes);
    if (dec.remaining() < 4)
        throw IoError("'" + path + "' is not an hllc trace file");
    const std::uint32_t magic = dec.u32();
    if (magic == traceMagicV1)
        return loadV1(dec, path);
    if (magic == traceMagicV2)
        return loadV2(bytes, path);
    throw IoError("'" + path + "' is not an hllc trace file");
}

} // namespace hllc::replay
