#include "serve/protocol.hh"

#include "common/numfmt.hh"
#include "replay/llc_trace.hh"

namespace hllc::serve
{

namespace
{

using serial::Decoder;
using serial::Encoder;

/** Longest policy name / error message the wire accepts. */
constexpr std::size_t maxStringBytes = 4096;
/** Stats JSON replies can be larger than ordinary strings. */
constexpr std::size_t maxStatsJsonBytes = 1u << 20;

void
encodeEvent(Encoder &enc, const hybrid::LlcEvent &event)
{
    enc.u64(event.blockNum);
    enc.u8(static_cast<std::uint8_t>(event.type));
    enc.u8(event.ecbBytes);
    enc.u8(static_cast<std::uint8_t>(event.core));
}

hybrid::LlcEvent
decodeEvent(Decoder &dec)
{
    static const std::string where = "hllc-req-v1";
    const Addr block = dec.u64();
    const std::uint8_t type = dec.u8();
    const std::uint8_t ecb = dec.u8();
    const std::uint8_t core = dec.u8();
    return replay::checkedEvent(block, type, ecb, core, where);
}

void
checkHeader(Decoder &dec, std::uint32_t magic, const char *what)
{
    if (dec.u32() != magic)
        throw IoError(std::string("hllc-req-v1: bad ") + what + " magic");
    const std::uint8_t version = dec.u8();
    if (version != protocolVersion) {
        throw IoError("hllc-req-v1: unsupported version " +
                      formatU64(version));
    }
}

void
requireEnd(const Decoder &dec)
{
    if (!dec.atEnd()) {
        throw IoError("hllc-req-v1: " + formatU64(dec.remaining()) +
                      " trailing bytes");
    }
}

} // anonymous namespace

std::vector<std::uint8_t>
encodeRequest(const Request &request)
{
    Encoder enc;
    enc.u32(requestMagic);
    enc.u8(protocolVersion);
    enc.u8(static_cast<std::uint8_t>(request.type));
    enc.u64(request.id);
    switch (request.type) {
    case RequestType::Replay:
        enc.u8(request.replay.mix);
        enc.u64(request.replay.refsPerCore);
        enc.u64(request.replay.seed);
        enc.u8(request.replay.cpth);
        enc.str(request.replay.policy);
        break;
    case RequestType::Batch:
        enc.u8(request.batch.cpth);
        enc.u64(request.batch.seed);
        enc.str(request.batch.policy);
        enc.u32(static_cast<std::uint32_t>(request.batch.events.size()));
        for (const hybrid::LlcEvent &event : request.batch.events)
            encodeEvent(enc, event);
        break;
    case RequestType::Stats:
    case RequestType::Ping:
        break;
    }
    return enc.bytes();
}

Request
parseRequest(const std::uint8_t *data, std::size_t size,
             std::uint32_t max_batch_events)
{
    Decoder dec(data, size);
    checkHeader(dec, requestMagic, "request");
    const std::uint8_t raw_type = dec.u8();
    if (raw_type < static_cast<std::uint8_t>(RequestType::Replay) ||
        raw_type > static_cast<std::uint8_t>(RequestType::Ping)) {
        throw IoError("hllc-req-v1: unknown request type " +
                      formatU64(raw_type));
    }

    Request request;
    request.type = static_cast<RequestType>(raw_type);
    request.id = dec.u64();
    switch (request.type) {
    case RequestType::Replay: {
        ReplayRequest &r = request.replay;
        r.mix = dec.u8();
        if (r.mix < 1 || r.mix > 10)
            throw IoError("hllc-req-v1: mix must be in 1..10");
        r.refsPerCore = dec.u64();
        if (r.refsPerCore == 0)
            throw IoError("hllc-req-v1: refs_per_core must be >= 1");
        r.seed = dec.u64();
        r.cpth = dec.u8();
        if (r.cpth > blockBytes)
            throw IoError("hllc-req-v1: cpth must be in 0..64");
        r.policy = dec.str(maxStringBytes);
        break;
    }
    case RequestType::Batch: {
        BatchRequest &b = request.batch;
        b.cpth = dec.u8();
        if (b.cpth > blockBytes)
            throw IoError("hllc-req-v1: cpth must be in 0..64");
        b.seed = dec.u64();
        b.policy = dec.str(maxStringBytes);
        const std::uint32_t count = dec.u32();
        if (count == 0)
            throw IoError("hllc-req-v1: empty batch");
        if (count > max_batch_events) {
            throw IoError("hllc-req-v1: batch of " + formatU64(count) +
                          " events exceeds the limit of " +
                          formatU64(max_batch_events));
        }
        // 11 bytes per event on the wire: the declared count is
        // re-validated against the bytes actually present before the
        // vector grows.
        if (dec.remaining() / 11 < count) {
            throw IoError("hllc-req-v1: batch declares " +
                          formatU64(count) + " events but only " +
                          formatU64(dec.remaining()) + " bytes follow");
        }
        b.events.reserve(count);
        for (std::uint32_t i = 0; i < count; ++i)
            b.events.push_back(decodeEvent(dec));
        break;
    }
    case RequestType::Stats:
    case RequestType::Ping:
        break;
    }
    requireEnd(dec);
    return request;
}

std::vector<std::uint8_t>
encodeResponse(const Response &response)
{
    Encoder enc;
    enc.u32(responseMagic);
    enc.u8(protocolVersion);
    enc.u8(static_cast<std::uint8_t>(response.status));
    enc.u64(response.id);
    switch (response.status) {
    case Status::Ok:
        enc.u8(static_cast<std::uint8_t>(response.type));
        if (response.type == RequestType::Replay ||
            response.type == RequestType::Batch) {
            const EvalResult &r = response.result;
            enc.u64(r.measuredEvents);
            enc.u64(r.demandAccesses);
            enc.u64(r.demandHits);
            enc.u64(r.nvmWrites);
            enc.u64(r.nvmBytesWritten);
            enc.f64(r.hitRate);
            enc.str(r.policyName);
        } else if (response.type == RequestType::Stats) {
            enc.str(response.statsJson);
        }
        break;
    case Status::Error:
        enc.str(response.message);
        break;
    case Status::Overloaded:
        enc.u32(response.shard);
        enc.u64(response.queueDepth);
        break;
    }
    return enc.bytes();
}

Response
parseResponse(const std::uint8_t *data, std::size_t size)
{
    Decoder dec(data, size);
    checkHeader(dec, responseMagic, "response");
    const std::uint8_t raw_status = dec.u8();
    if (raw_status > static_cast<std::uint8_t>(Status::Overloaded)) {
        throw IoError("hllc-req-v1: unknown status " +
                      formatU64(raw_status));
    }

    Response response;
    response.status = static_cast<Status>(raw_status);
    response.id = dec.u64();
    switch (response.status) {
    case Status::Ok: {
        const std::uint8_t raw_type = dec.u8();
        if (raw_type < static_cast<std::uint8_t>(RequestType::Replay) ||
            raw_type > static_cast<std::uint8_t>(RequestType::Ping)) {
            throw IoError("hllc-req-v1: unknown response type " +
                          formatU64(raw_type));
        }
        response.type = static_cast<RequestType>(raw_type);
        if (response.type == RequestType::Replay ||
            response.type == RequestType::Batch) {
            EvalResult &r = response.result;
            r.measuredEvents = dec.u64();
            r.demandAccesses = dec.u64();
            r.demandHits = dec.u64();
            r.nvmWrites = dec.u64();
            r.nvmBytesWritten = dec.u64();
            r.hitRate = dec.f64();
            r.policyName = dec.str(maxStringBytes);
        } else if (response.type == RequestType::Stats) {
            response.statsJson = dec.str(maxStatsJsonBytes);
        }
        break;
    }
    case Status::Error:
        response.message = dec.str(maxStringBytes);
        break;
    case Status::Overloaded:
        response.shard = dec.u32();
        response.queueDepth = dec.u64();
        break;
    }
    requireEnd(dec);
    return response;
}

std::vector<std::uint8_t>
frame(const std::vector<std::uint8_t> &payload)
{
    Encoder enc;
    enc.u32(static_cast<std::uint32_t>(payload.size()));
    enc.raw(payload.data(), payload.size());
    return enc.bytes();
}

} // namespace hllc::serve
