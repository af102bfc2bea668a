#include "serve/server.hh"

#include <system_error>

#include "common/failpoint.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"

namespace hllc::serve
{

namespace
{

/** Reader poll cadence: the drain-latency bound of blocked readers. */
constexpr std::uint64_t recvPollMs = 100;
/** Shard wake cadence when idle (pushes also notify immediately). */
constexpr std::uint64_t shardPollMs = 50;

/**
 * Best-effort request id of a payload that failed full parsing, so an
 * error reply can still name the request it answers. Returns 0 when
 * even the header is unreadable.
 */
std::uint64_t
peekRequestId(const std::vector<std::uint8_t> &payload)
{
    try {
        serial::Decoder dec(payload.data(), payload.size());
        if (dec.u32() != requestMagic)
            return 0;
        if (dec.u8() != protocolVersion)
            return 0;
        dec.u8(); // type (any value; the id follows regardless)
        return dec.u64();
    } catch (const IoError &) {
        return 0;
    }
}

} // anonymous namespace

/** One accepted socket plus the lock serialising reply frames onto it. */
struct Server::Connection
{
    explicit Connection(Fd fd) : fd(std::move(fd)) {}

    Fd fd;
    Mutex writeMutex;
    /** Set on the first failed write; later replies are not attempted. */
    std::atomic<bool> dead{ false };
};

/** A parsed evaluation request waiting on a shard queue. */
struct Server::WorkItem
{
    std::shared_ptr<Connection> conn;
    Request request;
};

/** One shard: a bounded FIFO drained by one shard thread. */
struct Server::Shard
{
    explicit Shard(std::uint32_t index) : index(index) {}

    const std::uint32_t index;
    Mutex mutex;
    CondVar wake;
    std::deque<WorkItem> queue HLLC_GUARDED_BY(mutex);

    /** Enqueue unless the @p depth bound is hit. */
    bool
    tryPush(WorkItem item, std::size_t depth)
    {
        {
            MutexLock lock(mutex);
            if (queue.size() >= depth)
                return false;
            queue.push_back(std::move(item));
        }
        wake.notifyOne();
        return true;
    }

    std::size_t
    depthNow()
    {
        MutexLock lock(mutex);
        return queue.size();
    }
};

/** A reader thread and the connection it owns. */
struct Server::ReaderSlot
{
    std::thread thread;
    std::shared_ptr<Connection> conn;
    std::atomic<bool> finished{ false };
};

Server::Server(const ServerConfig &config)
    : config_(config),
      evaluator_(sim::SystemConfig::tableIV(), config.limits)
{
    if (config_.shards == 0)
        config_.shards = 1;
    if (config_.queueDepth == 0)
        config_.queueDepth = 1;
    if (config_.batchMax == 0)
        config_.batchMax = 1;
}

Server::~Server()
{
    drain();
}

void
Server::start()
{
    if (started_.exchange(true))
        throw IoError("Server::start() called twice");

    listener_ = std::make_unique<Listener>(config_.endpoint);

    shards_.reserve(config_.shards);
    for (std::uint32_t i = 0; i < config_.shards; ++i)
        shards_.push_back(std::make_unique<Shard>(i));

    // One thread per shard. shardLoop returns only once its queue is
    // empty and shardsMayExit_ is set, so drain() joining these threads
    // means every accepted request was answered. A thread that cannot
    // start ends start() with an IoError naming it; drain() joins the
    // ones that did (emplace_back leaves shardThreads_ unchanged when
    // it throws).
    shardThreads_.reserve(config_.shards);
    const char *starting = "shard";
    try {
        for (auto &shard : shards_) {
            Shard *raw = shard.get();
            shardThreads_.emplace_back([this, raw] { shardLoop(*raw); });
        }
        starting = "listener";
        listenerThread_ = std::thread([this] { listenerLoop(); });
        starting = "ticker";
        tickerThread_ = std::thread([this] { tickerLoop(); });
    } catch (const std::system_error &e) {
        throw IoError(std::string("hllc-serve: cannot start a ") +
                      starting + " thread: " + e.what());
    }
}

std::uint16_t
Server::tcpPort() const
{
    return listener_ ? listener_->port() : 0;
}

void
Server::serve()
{
    while (!draining_.load(std::memory_order_acquire) &&
           !interruptRequested()) {
        interruptibleSleepMs(recvPollMs);
    }
    drain();
}

void
Server::requestDrain()
{
    draining_.store(true, std::memory_order_release);
}

void
Server::drain()
{
    if (!started_.load(std::memory_order_acquire) ||
        drained_.exchange(true)) {
        return;
    }
    draining_.store(true, std::memory_order_release);
    tickerWake_.notifyAll();

    // 1. No new connections: the listener admits the connections its
    //    backlog already holds (their clients may have sent requests),
    //    then stops accepting.
    if (listenerThread_.joinable())
        listenerThread_.join();

    // 2. No new frames: readers observe the flag within one poll tick,
    //    finish any frame already in flight (it is accepted and must be
    //    answered), dispatch it, and exit.
    std::vector<std::unique_ptr<ReaderSlot>> readers;
    {
        MutexLock lock(readersMutex_);
        readers.swap(readers_);
    }
    for (auto &slot : readers) {
        if (slot->thread.joinable())
            slot->thread.join();
    }

    // 3. Shards run their queues dry. A shard thread ends only after
    //    its loop found the queue empty with shardsMayExit_ set, so once
    //    all are joined every accepted request was evaluated and its
    //    reply attempted.
    shardsMayExit_.store(true, std::memory_order_release);
    for (auto &shard : shards_)
        shard->wake.notifyAll();
    for (std::thread &t : shardThreads_)
        t.join();

    if (tickerThread_.joinable())
        tickerThread_.join();
    sampleInterval(); // final boundary: the series end at the totals

    // 4. Final stats export through the atomic checkpoint write path.
    if (!config_.statsOut.empty()) {
        const std::string json = statsJson();
        serial::writeFileAtomic(config_.statsOut, json.data(),
                                json.size());
    }

    // Reply references are gone (shards drained): closing the
    // connections now cannot lose an accepted request.
    readers.clear();
    listener_.reset();
}

void
Server::listenerLoop()
{
    while (!draining_.load(std::memory_order_acquire)) {
        // Reap readers whose connection already ended, so a long-lived
        // daemon serving many short connections stays bounded.
        {
            MutexLock lock(readersMutex_);
            for (std::size_t i = 0; i < readers_.size();) {
                if (readers_[i]->finished.load(
                        std::memory_order_acquire)) {
                    readers_[i]->thread.join();
                    readers_.erase(
                        readers_.begin() +
                        static_cast<std::ptrdiff_t>(i));
                } else {
                    ++i;
                }
            }
        }

        std::optional<Fd> accepted;
        try {
            accepted = listener_->accept(recvPollMs);
        } catch (const IoError &e) {
            warn("hllc-serve: listener failed: %s", e.what());
            return;
        }
        if (accepted)
            admit(std::move(*accepted));
    }

    // A client whose connect completed before the drain may already have
    // sent requests into its socket. Accept what the backlog holds, so
    // those frames are read and answered: closing the listener with them
    // still queued would reset the connections, unread.
    try {
        while (std::optional<Fd> accepted = listener_->accept(0))
            admit(std::move(*accepted));
    } catch (const IoError &e) {
        warn("hllc-serve: listener failed: %s", e.what());
    }
}

void
Server::admit(Fd fd)
{
    if (failpoint::shouldFail("serve.accept")) {
        // Injected accept failure: the connection is dropped before any
        // frame could be read, so nothing is "accepted work".
        counters_.acceptInjectedDrops.fetch_add(1);
        return;
    }

    counters_.connectionsAccepted.fetch_add(1);
    auto slot = std::make_unique<ReaderSlot>();
    slot->conn = std::make_shared<Connection>(std::move(fd));
    ReaderSlot *raw = slot.get();
    {
        MutexLock lock(readersMutex_);
        readers_.push_back(std::move(slot));
    }
    raw->thread = std::thread([this, raw] {
        readerLoop(raw->conn);
        raw->finished.store(true, std::memory_order_release);
    });
}

void
Server::readerLoop(std::shared_ptr<Connection> conn)
{
    try {
        setRecvTimeoutMs(conn->fd.get(), recvPollMs);
    } catch (const IoError &) {
        return; // socket already dead
    }

    std::vector<std::uint8_t> payload;
    for (;;) {
        RecvStatus status;
        try {
            status = recvFrame(conn->fd.get(), payload,
                               config_.maxFrameBytes);
        } catch (const IoError &e) {
            // Framing-level damage (zero/oversized length, mid-frame
            // EOF or stall, socket error): the stream cannot be
            // resynchronised, so answer with an error frame and drop
            // the connection. The frame consumed a slot: account it so
            // accepted == replied stays checkable.
            counters_.framesAccepted.fetch_add(1);
            counters_.requestsError.fetch_add(1);
            Response response;
            response.status = Status::Error;
            response.id = 0;
            response.message = e.what();
            sendReply(conn, response);
            break;
        }
        if (status == RecvStatus::Eof)
            break;
        if (status == RecvStatus::Timeout) {
            if (draining_.load(std::memory_order_acquire))
                break;
            continue;
        }
        counters_.framesAccepted.fetch_add(1);
        handleFrame(conn, payload);
    }
}

void
Server::handleFrame(const std::shared_ptr<Connection> &conn,
                    const std::vector<std::uint8_t> &payload)
{
    Request request;
    try {
        HLLC_FAILPOINT("serve.decode");
        request = parseRequest(payload.data(), payload.size(),
                               config_.limits.maxBatchEvents);
    } catch (const IoError &e) {
        counters_.requestsError.fetch_add(1);
        Response response;
        response.status = Status::Error;
        response.id = peekRequestId(payload);
        response.message = e.what();
        sendReply(conn, response);
        return;
    }

    switch (request.type) {
    case RequestType::Ping: {
        counters_.requestsOk.fetch_add(1);
        Response response;
        response.status = Status::Ok;
        response.id = request.id;
        response.type = RequestType::Ping;
        sendReply(conn, response);
        return;
    }
    case RequestType::Stats: {
        counters_.requestsOk.fetch_add(1);
        counters_.statsRequests.fetch_add(1);
        Response response;
        response.status = Status::Ok;
        response.id = request.id;
        response.type = RequestType::Stats;
        response.statsJson = statsJson();
        sendReply(conn, response);
        return;
    }
    case RequestType::Replay:
    case RequestType::Batch:
        break;
    }

    Shard &shard = *shards_[request.id % shards_.size()];
    const bool injected = failpoint::shouldFail("serve.dispatch");
    if (injected ||
        !shard.tryPush(WorkItem{ conn, std::move(request) },
                       config_.queueDepth)) {
        counters_.overloaded.fetch_add(1);
        Response response;
        response.status = Status::Overloaded;
        response.id = peekRequestId(payload);
        response.shard = shard.index;
        response.queueDepth = config_.queueDepth;
        sendReply(conn, response);
    }
}

void
Server::shardLoop(Shard &shard)
{
    std::vector<WorkItem> batch;
    for (;;) {
        batch.clear();
        {
            MutexLock lock(shard.mutex);
            while (shard.queue.empty()) {
                if (shardsMayExit_.load(std::memory_order_acquire))
                    return;
                shard.wake.waitFor(shard.mutex, shardPollMs);
            }
            const std::size_t take =
                std::min(shard.queue.size(), config_.batchMax);
            for (std::size_t i = 0; i < take; ++i) {
                batch.push_back(std::move(shard.queue.front()));
                shard.queue.pop_front();
            }
        }

        // The batch evaluates back to back on this worker (one lock
        // round per batchMax requests); each reply goes out as soon as
        // its evaluation finishes.
        for (WorkItem &item : batch) {
            Response response;
            response.id = item.request.id;
            response.type = item.request.type;
            try {
                response.result = evaluator_.evaluate(item.request);
                response.status = Status::Ok;
                counters_.requestsOk.fetch_add(1);
                counters_.eventsProcessed.fetch_add(
                    response.result.measuredEvents);
            } catch (const IoError &e) {
                response.status = Status::Error;
                response.message = e.what();
                counters_.requestsError.fetch_add(1);
            } catch (const std::exception &e) {
                response.status = Status::Error;
                response.message = e.what();
                counters_.requestsError.fetch_add(1);
            }
            sendReply(item.conn, response);
        }
    }
}

void
Server::sendReply(const std::shared_ptr<Connection> &conn,
                  const Response &response)
{
    const std::vector<std::uint8_t> framed =
        frame(encodeResponse(response));
    MutexLock lock(conn->writeMutex);
    if (conn->dead.load(std::memory_order_acquire)) {
        counters_.replyFailures.fetch_add(1);
        return;
    }
    try {
        if (failpoint::shouldFail("serve.reply"))
            throw IoError("injected fault at failpoint 'serve.reply'");
        sendAll(conn->fd.get(), framed.data(), framed.size());
        counters_.repliesSent.fetch_add(1);
    } catch (const IoError &) {
        // The peer is gone (or chaos says so): later replies on this
        // connection would block or fail too — mark it dead once.
        conn->dead.store(true, std::memory_order_release);
        counters_.replyFailures.fetch_add(1);
    }
}

void
Server::tickerLoop()
{
    MutexLock lock(tickerMutex_);
    while (!draining_.load(std::memory_order_acquire)) {
        tickerWake_.waitFor(tickerMutex_, config_.statsIntervalMs);
        if (draining_.load(std::memory_order_acquire))
            break;
        sampleInterval();
    }
}

void
Server::sampleInterval()
{
    std::uint64_t depth = 0;
    for (auto &shard : shards_)
        depth += shard->depthNow();

    MutexLock lock(seriesMutex_);
    series_.series("interval").append(
        static_cast<double>(intervalIndex_++));
    series_.series("requests_ok").append(
        static_cast<double>(counters_.requestsOk.load()));
    series_.series("requests_error").append(
        static_cast<double>(counters_.requestsError.load()));
    series_.series("overloaded").append(
        static_cast<double>(counters_.overloaded.load()));
    series_.series("events_processed").append(
        static_cast<double>(counters_.eventsProcessed.load()));
    series_.series("replies_sent").append(
        static_cast<double>(counters_.repliesSent.load()));
    series_.series("queue_depth").append(static_cast<double>(depth));
}

ServerStats
Server::stats() const
{
    ServerStats s;
    s.connectionsAccepted = counters_.connectionsAccepted.load();
    s.acceptInjectedDrops = counters_.acceptInjectedDrops.load();
    s.framesAccepted = counters_.framesAccepted.load();
    s.requestsOk = counters_.requestsOk.load();
    s.requestsError = counters_.requestsError.load();
    s.overloaded = counters_.overloaded.load();
    s.repliesSent = counters_.repliesSent.load();
    s.replyFailures = counters_.replyFailures.load();
    s.eventsProcessed = counters_.eventsProcessed.load();
    s.statsRequests = counters_.statsRequests.load();
    return s;
}

std::string
Server::statsJson() const
{
    const ServerStats s = stats();
    metrics::CellExport cell;
    cell.label = "serve";
    cell.counters = {
        { "connections_accepted", s.connectionsAccepted },
        { "accept_injected_drops", s.acceptInjectedDrops },
        { "frames_accepted", s.framesAccepted },
        { "requests_ok", s.requestsOk },
        { "requests_error", s.requestsError },
        { "overloaded", s.overloaded },
        { "replies_sent", s.repliesSent },
        { "reply_failures", s.replyFailures },
        { "events_processed", s.eventsProcessed },
        { "stats_requests", s.statsRequests },
    };

    MutexLock lock(seriesMutex_);
    cell.metrics = &series_;
    return metrics::statsToJson({ cell }, "hllc-serve");
}

} // namespace hllc::serve
