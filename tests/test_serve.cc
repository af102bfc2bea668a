/**
 * @file
 * hllc-serve daemon tests: protocol round-trips, framing fuzz against a
 * live server (truncations, over-declared lengths, every-byte-flip — the
 * daemon must answer with an error frame and keep serving, never crash),
 * backpressure (bounded queues answer OVERLOADED), the serve.* chaos
 * sites, and the drain guarantee: a drain under pipelined load loses
 * zero accepted requests (framesAccepted == repliesSent, every client
 * receives every reply).
 *
 * All servers bind 127.0.0.1 with an ephemeral port (--port 0
 * equivalent), so tests never collide with each other or the host.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "common/failpoint.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/socket.hh"

namespace
{

using namespace hllc;
using namespace hllc::serve;

/** Every test starts and ends with no chaos configured. */
class ServeSpec : public ::testing::Test
{
  protected:
    void SetUp() override { failpoint::reset(); }
    void TearDown() override { failpoint::reset(); }
};

/** An ephemeral-port loopback server with test-friendly limits. */
ServerConfig
testConfig()
{
    ServerConfig config;
    config.endpoint.tcpPort = 0; // ephemeral
    config.shards = 2;
    config.limits.maxRefsPerCore = 2'000;
    config.limits.maxBatchEvents = 4'096;
    config.limits.traceCacheEntries = 4;
    config.statsIntervalMs = 100;
    return config;
}

Fd
connectPort(std::uint16_t port)
{
    Endpoint endpoint;
    endpoint.tcpPort = port;
    Fd fd = connectTo(endpoint);
    setRecvTimeoutMs(fd.get(), 50);
    return fd;
}

void
sendRequest(const Fd &fd, const Request &request)
{
    const auto framed = frame(encodeRequest(request));
    sendAll(fd.get(), framed.data(), framed.size());
}

/** Read one response, riding out timeouts; nullopt on EOF. */
std::optional<Response>
recvResponse(const Fd &fd, unsigned max_timeouts = 600)
{
    std::vector<std::uint8_t> payload;
    for (unsigned i = 0; i < max_timeouts; ++i) {
        const RecvStatus status =
            recvFrame(fd.get(), payload, defaultMaxFrameBytes);
        if (status == RecvStatus::Eof)
            return std::nullopt;
        if (status == RecvStatus::Frame)
            return parseResponse(payload.data(), payload.size());
    }
    throw IoError("recvResponse: no reply within the deadline");
}

Request
pingRequest(std::uint64_t id)
{
    Request request;
    request.type = RequestType::Ping;
    request.id = id;
    return request;
}

Request
replayRequest(std::uint64_t id, std::uint64_t refs = 200)
{
    Request request;
    request.type = RequestType::Replay;
    request.id = id;
    request.replay.mix = 1;
    request.replay.refsPerCore = refs;
    request.replay.seed = 7;
    request.replay.policy = "CP_SD";
    return request;
}

Request
batchRequest(std::uint64_t id)
{
    Request request;
    request.type = RequestType::Batch;
    request.id = id;
    request.batch.policy = "BH_CP";
    for (std::uint64_t i = 0; i < 128; ++i) {
        hybrid::LlcEvent event;
        event.blockNum = (i * 37) % 512;
        event.type = i % 3 == 0 ? hybrid::LlcEventType::GetX
                                : hybrid::LlcEventType::GetS;
        event.ecbBytes = static_cast<std::uint8_t>(2 + i % 63);
        event.core = static_cast<CoreId>(i % 4);
        request.batch.events.push_back(event);
    }
    return request;
}

TEST_F(ServeSpec, ReplayRequestRoundTripsThroughTheWireFormat)
{
    const Request request = replayRequest(42, 1'000);
    const auto payload = encodeRequest(request);
    const Request parsed =
        parseRequest(payload.data(), payload.size(), 4'096);
    EXPECT_EQ(parsed.type, RequestType::Replay);
    EXPECT_EQ(parsed.id, 42u);
    EXPECT_EQ(parsed.replay.mix, request.replay.mix);
    EXPECT_EQ(parsed.replay.refsPerCore, request.replay.refsPerCore);
    EXPECT_EQ(parsed.replay.seed, request.replay.seed);
    EXPECT_EQ(parsed.replay.policy, request.replay.policy);
}

TEST_F(ServeSpec, BatchRequestRoundTripsEveryEvent)
{
    const Request request = batchRequest(7);
    const auto payload = encodeRequest(request);
    const Request parsed =
        parseRequest(payload.data(), payload.size(), 4'096);
    ASSERT_EQ(parsed.batch.events.size(), request.batch.events.size());
    for (std::size_t i = 0; i < parsed.batch.events.size(); ++i) {
        EXPECT_EQ(parsed.batch.events[i].blockNum,
                  request.batch.events[i].blockNum);
        EXPECT_EQ(parsed.batch.events[i].type,
                  request.batch.events[i].type);
        EXPECT_EQ(parsed.batch.events[i].ecbBytes,
                  request.batch.events[i].ecbBytes);
    }
}

TEST_F(ServeSpec, ResponseRoundTripsEveryStatus)
{
    Response ok;
    ok.status = Status::Ok;
    ok.id = 1;
    ok.type = RequestType::Replay;
    ok.result.measuredEvents = 123;
    ok.result.hitRate = 0.25;
    ok.result.policyName = "CP_SD";
    auto payload = encodeResponse(ok);
    Response parsed = parseResponse(payload.data(), payload.size());
    EXPECT_EQ(parsed.status, Status::Ok);
    EXPECT_EQ(parsed.result.measuredEvents, 123u);
    EXPECT_EQ(parsed.result.policyName, "CP_SD");

    Response error;
    error.status = Status::Error;
    error.id = 2;
    error.message = "bad request";
    payload = encodeResponse(error);
    parsed = parseResponse(payload.data(), payload.size());
    EXPECT_EQ(parsed.status, Status::Error);
    EXPECT_EQ(parsed.message, "bad request");

    Response overloaded;
    overloaded.status = Status::Overloaded;
    overloaded.id = 3;
    overloaded.shard = 5;
    overloaded.queueDepth = 64;
    payload = encodeResponse(overloaded);
    parsed = parseResponse(payload.data(), payload.size());
    EXPECT_EQ(parsed.status, Status::Overloaded);
    EXPECT_EQ(parsed.shard, 5u);
    EXPECT_EQ(parsed.queueDepth, 64u);
}

TEST_F(ServeSpec, EveryTruncationOfAValidPayloadIsRejected)
{
    const auto payload = encodeRequest(batchRequest(9));
    for (std::size_t len = 0; len < payload.size(); ++len) {
        EXPECT_THROW(parseRequest(payload.data(), len, 4'096), IoError)
            << "truncation at " << len << " parsed";
    }
    // ... and so are trailing bytes.
    auto padded = payload;
    padded.push_back(0);
    EXPECT_THROW(parseRequest(padded.data(), padded.size(), 4'096),
                 IoError);
}

TEST_F(ServeSpec, OverDeclaredBatchCountIsRejectedBeforeAllocation)
{
    Request request;
    request.type = RequestType::Batch;
    request.id = 1;
    request.batch.policy = "BH";
    hybrid::LlcEvent event;
    event.blockNum = 1;
    event.type = hybrid::LlcEventType::GetS;
    event.ecbBytes = 64;
    event.core = 0;
    request.batch.events.push_back(event);
    auto payload = encodeRequest(request);
    // The count field sits right after the u64 policy length + "BH";
    // rewrite it to claim 2^31 events with 11 bytes of data following.
    const std::size_t count_at = 4 + 1 + 1 + 8 + 1 + 8 + (8 + 2);
    payload[count_at + 0] = 0;
    payload[count_at + 1] = 0;
    payload[count_at + 2] = 0;
    payload[count_at + 3] = 0x80;
    EXPECT_THROW(parseRequest(payload.data(), payload.size(), 1u << 31),
                 IoError);
}

TEST_F(ServeSpec, PingAndStatsAnswerInline)
{
    Server server(testConfig());
    server.start();
    const Fd fd = connectPort(server.tcpPort());

    sendRequest(fd, pingRequest(11));
    auto reply = recvResponse(fd);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->status, Status::Ok);
    EXPECT_EQ(reply->id, 11u);
    EXPECT_EQ(reply->type, RequestType::Ping);

    Request stats;
    stats.type = RequestType::Stats;
    stats.id = 12;
    sendRequest(fd, stats);
    reply = recvResponse(fd);
    ASSERT_TRUE(reply);
    ASSERT_EQ(reply->status, Status::Ok);
    EXPECT_NE(reply->statsJson.find("hllc-serve"), std::string::npos);
    EXPECT_NE(reply->statsJson.find("frames_accepted"),
              std::string::npos);
    server.drain();
}

TEST_F(ServeSpec, EvaluationResultsAreAPureFunctionOfTheRequestBytes)
{
    Server server(testConfig());
    server.start();
    const Fd fd = connectPort(server.tcpPort());

    auto roundTrip = [&](const Request &request) {
        sendRequest(fd, request);
        const auto reply = recvResponse(fd);
        EXPECT_TRUE(reply && reply->status == Status::Ok);
        return reply->result;
    };
    const EvalResult first = roundTrip(replayRequest(1));
    const EvalResult again = roundTrip(replayRequest(2, 200));
    EXPECT_EQ(first.measuredEvents, again.measuredEvents);
    EXPECT_EQ(first.demandAccesses, again.demandAccesses);
    EXPECT_EQ(first.demandHits, again.demandHits);
    EXPECT_EQ(first.nvmWrites, again.nvmWrites);
    EXPECT_EQ(first.nvmBytesWritten, again.nvmBytesWritten);
    EXPECT_EQ(first.policyName, again.policyName);

    const EvalResult b1 = roundTrip(batchRequest(3));
    const EvalResult b2 = roundTrip(batchRequest(4));
    EXPECT_EQ(b1.measuredEvents, b2.measuredEvents);
    EXPECT_EQ(b1.demandHits, b2.demandHits);
    EXPECT_EQ(b1.nvmBytesWritten, b2.nvmBytesWritten);
    server.drain();
}

TEST_F(ServeSpec, MalformedPayloadGetsAnErrorReplyAndServiceContinues)
{
    Server server(testConfig());
    server.start();
    const Fd fd = connectPort(server.tcpPort());

    // Garbage payload in a well-formed frame.
    const std::vector<std::uint8_t> garbage = { 0xde, 0xad, 0xbe, 0xef,
                                                0x01, 0x02 };
    const auto framed = frame(garbage);
    sendAll(fd.get(), framed.data(), framed.size());
    auto reply = recvResponse(fd);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->status, Status::Error);

    // The connection still serves well-formed requests afterwards.
    sendRequest(fd, pingRequest(21));
    reply = recvResponse(fd);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->status, Status::Ok);
    server.drain();
}

TEST_F(ServeSpec, EveryByteFlipGetsExactlyOneReplyAndNeverKillsService)
{
    ServerConfig config = testConfig();
    config.limits.maxRefsPerCore = 500; // flips into refs stay cheap
    Server server(config);
    server.start();
    const Fd fd = connectPort(server.tcpPort());

    const auto base = encodeRequest(replayRequest(31, 100));
    for (std::size_t i = 0; i < base.size(); ++i) {
        auto mutated = base;
        mutated[i] ^= 0xff;
        const auto framed = frame(mutated);
        sendAll(fd.get(), framed.data(), framed.size());
        // Every mutation gets exactly one reply: an error for damaged
        // structure, a normal reply when the flip lands in a don't-care
        // field (id, seed) — either way the daemon answers and lives.
        const auto reply = recvResponse(fd);
        ASSERT_TRUE(reply) << "connection died on flipped byte " << i;
    }

    sendRequest(fd, pingRequest(32));
    const auto reply = recvResponse(fd);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->status, Status::Ok);

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.framesAccepted, base.size() + 1);
    server.drain();
    const ServerStats drained = server.stats();
    EXPECT_EQ(drained.framesAccepted,
              drained.repliesSent + drained.replyFailures);
}

TEST_F(ServeSpec, OverDeclaredFrameLengthGetsAnErrorReply)
{
    Server server(testConfig());
    server.start();
    const Fd fd = connectPort(server.tcpPort());

    // Frame header declaring more than the server's frame bound: the
    // reader rejects it before allocating and answers with an error.
    const std::uint32_t huge = defaultMaxFrameBytes + 1;
    std::uint8_t header[4] = {
        static_cast<std::uint8_t>(huge & 0xff),
        static_cast<std::uint8_t>((huge >> 8) & 0xff),
        static_cast<std::uint8_t>((huge >> 16) & 0xff),
        static_cast<std::uint8_t>((huge >> 24) & 0xff),
    };
    sendAll(fd.get(), header, sizeof header);
    const auto reply = recvResponse(fd);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->status, Status::Error);
    // The stream cannot be resynchronised: the server closes it.
    EXPECT_FALSE(recvResponse(fd));

    // ... but keeps serving fresh connections.
    const Fd fresh = connectPort(server.tcpPort());
    sendRequest(fresh, pingRequest(41));
    const auto pong = recvResponse(fresh);
    ASSERT_TRUE(pong);
    EXPECT_EQ(pong->status, Status::Ok);
    server.drain();
}

TEST_F(ServeSpec, TruncatedFrameThenEofGetsAnErrorReply)
{
    Server server(testConfig());
    server.start();
    const Fd fd = connectPort(server.tcpPort());

    // Declare 64 payload bytes, deliver 5, half-close. The reader sees
    // a mid-frame EOF, answers with an error frame (our read side is
    // still open) and drops the connection.
    const std::uint8_t partial[9] = { 64, 0, 0, 0, 1, 2, 3, 4, 5 };
    sendAll(fd.get(), partial, sizeof partial);
    ::shutdown(fd.get(), SHUT_WR);
    const auto reply = recvResponse(fd);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->status, Status::Error);
    EXPECT_FALSE(recvResponse(fd));

    const Fd fresh = connectPort(server.tcpPort());
    sendRequest(fresh, pingRequest(51));
    const auto pong = recvResponse(fresh);
    ASSERT_TRUE(pong);
    EXPECT_EQ(pong->status, Status::Ok);
    server.drain();
}

TEST_F(ServeSpec, FullShardQueueAnswersOverloadedNotUnboundedGrowth)
{
    ServerConfig config = testConfig();
    config.shards = 1;
    config.queueDepth = 1;
    config.batchMax = 1;
    Server server(config);
    server.start();
    const Fd fd = connectPort(server.tcpPort());

    // Pipeline far more work than a depth-1 queue holds; every frame
    // must be answered, the excess with OVERLOADED.
    constexpr unsigned burst = 30;
    for (unsigned i = 0; i < burst; ++i)
        sendRequest(fd, replayRequest(100 + i, 400));
    unsigned ok = 0, overloaded = 0;
    for (unsigned i = 0; i < burst; ++i) {
        const auto reply = recvResponse(fd);
        ASSERT_TRUE(reply);
        if (reply->status == Status::Overloaded) {
            ++overloaded;
            EXPECT_EQ(reply->queueDepth, 1u);
        } else {
            EXPECT_EQ(reply->status, Status::Ok);
            ++ok;
        }
    }
    EXPECT_EQ(ok + overloaded, burst);
    EXPECT_GE(ok, 1u);
    EXPECT_GE(overloaded, 1u);
    EXPECT_EQ(server.stats().overloaded, overloaded);
    server.drain();
}

TEST_F(ServeSpec, DecodeFailpointForcesAnErrorReplyOnce)
{
    Server server(testConfig());
    server.start();
    const Fd fd = connectPort(server.tcpPort());

    failpoint::configure("serve.decode=nth:1");
    sendRequest(fd, pingRequest(61));
    auto reply = recvResponse(fd);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->status, Status::Error);
    EXPECT_NE(reply->message.find("serve.decode"), std::string::npos);

    sendRequest(fd, pingRequest(62));
    reply = recvResponse(fd);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->status, Status::Ok);
    server.drain();
}

TEST_F(ServeSpec, DispatchFailpointForcesAnOverloadedReply)
{
    Server server(testConfig());
    server.start();
    const Fd fd = connectPort(server.tcpPort());

    failpoint::configure("serve.dispatch=nth:1");
    sendRequest(fd, replayRequest(71));
    auto reply = recvResponse(fd);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->status, Status::Overloaded);

    sendRequest(fd, replayRequest(72));
    reply = recvResponse(fd);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->status, Status::Ok);
    server.drain();
}

TEST_F(ServeSpec, ReplyFailpointCountsAFailureAndKeepsTheBooks)
{
    Server server(testConfig());
    server.start();
    const Fd fd = connectPort(server.tcpPort());

    failpoint::configure("serve.reply=nth:1");
    sendRequest(fd, pingRequest(81));
    // The reply write was injected to fail; nothing arrives, but the
    // accounting must still balance: accepted == sent + failed.
    for (unsigned i = 0; i < 100; ++i) {
        const ServerStats stats = server.stats();
        if (stats.replyFailures > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.replyFailures, 1u);
    EXPECT_EQ(stats.framesAccepted, stats.repliesSent + 1);
    server.drain();
}

TEST_F(ServeSpec, AcceptFailpointDropsTheConnectionNotTheDaemon)
{
    Server server(testConfig());
    server.start();

    failpoint::configure("serve.accept=nth:1");
    {
        const Fd dropped = connectPort(server.tcpPort());
        // The daemon closed it before reading anything: clean EOF.
        EXPECT_FALSE(recvResponse(dropped));
    }
    const Fd fd = connectPort(server.tcpPort());
    sendRequest(fd, pingRequest(91));
    const auto reply = recvResponse(fd);
    ASSERT_TRUE(reply);
    EXPECT_EQ(reply->status, Status::Ok);
    EXPECT_EQ(server.stats().acceptInjectedDrops, 1u);
    server.drain();
}

TEST_F(ServeSpec, DrainUnderPipelinedLoadLosesZeroAcceptedRequests)
{
    ServerConfig config = testConfig();
    config.shards = 4;
    Server server(config);
    server.start();
    const std::uint16_t port = server.tcpPort();

    constexpr unsigned clients = 4;
    constexpr unsigned perClient = 25;
    std::atomic<unsigned> sent{ 0 };
    std::atomic<unsigned> received{ 0 };
    // A client's I/O error is recorded and asserted below: thrown out of
    // a std::thread it would abort the whole test binary.
    std::vector<std::string> errors(clients);
    std::atomic<unsigned> failed{ 0 };
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            try {
                const Fd fd = connectPort(port);
                // Fire the whole pipeline without reading a single
                // reply. Once sendAll returns, the frames are the
                // kernel's: the connection may even still wait in the
                // listener's backlog, and the drain must read and
                // answer them all the same.
                for (unsigned i = 0; i < perClient; ++i) {
                    sendRequest(fd, replayRequest(
                                        1 + c + i * clients, 150));
                    sent.fetch_add(1);
                }
                // Then count replies until the drain closes the stream.
                while (recvResponse(fd))
                    received.fetch_add(1);
            } catch (const std::exception &e) {
                errors[c] = e.what();
                failed.fetch_add(1);
            }
        });
    }

    // Begin the drain while requests are still queued and in flight.
    while (sent.load() < clients * perClient && failed.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.drain();
    for (auto &thread : threads)
        thread.join();
    for (unsigned c = 0; c < clients; ++c)
        EXPECT_EQ(errors[c], "") << "client " << c;

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.framesAccepted, clients * perClient);
    EXPECT_EQ(stats.repliesSent, clients * perClient);
    EXPECT_EQ(stats.replyFailures, 0u);
    EXPECT_EQ(stats.overloaded, 0u);
    // The client-side half of the guarantee: every accepted request's
    // reply was delivered before the connection closed.
    EXPECT_EQ(received.load(), clients * perClient);
}

} // namespace
