/**
 * @file
 * hllc-serve: the sharded policy-evaluation daemon.
 *
 * Topology (one process):
 *
 *   listener thread ── accept ──▶ one reader thread per connection
 *        │                              │ parse (serve.decode)
 *        │                              ▼
 *        │                    shard = id % N  (serve.dispatch)
 *        │                              │ bounded queue; full ⇒
 *        │                              │ OVERLOADED reply, never
 *        ▼                              ▼ unbounded growth
 *   stats ticker            N shard threads, one per shard
 *   (interval series)          batch-pop up to batchMax items,
 *                              evaluate, reply (serve.reply)
 *
 * Replies to one connection are serialised by a per-connection write
 * lock, so frames never interleave. The accounting invariant the drain
 * guarantee rests on: every *accepted* frame (fully read off a socket)
 * produces exactly one reply attempt — framesAccepted ==
 * repliesSent + replyFailures at all times once quiescent.
 *
 * Graceful drain (SIGTERM via common/interrupt, or requestDrain()):
 * stop accepting connections, readers stop pulling new frames (an
 * in-flight frame is finished and dispatched), shards run their queues
 * dry, every pending reply is flushed, then the final hllc-stats-v1
 * export is written through the atomic-write checkpoint path. Zero
 * accepted requests are lost.
 */

#ifndef HLLC_SERVE_SERVER_HH
#define HLLC_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hh"
#include "common/sync.hh"
#include "common/thread_annotations.hh"
#include "serve/eval.hh"
#include "serve/protocol.hh"
#include "serve/socket.hh"

namespace hllc::serve
{

struct ServerConfig
{
    Endpoint endpoint;
    unsigned shards = 4;
    std::size_t queueDepth = 64;   //!< per-shard pending-request bound
    std::size_t batchMax = 16;     //!< items a shard pops per wake
    std::uint32_t maxFrameBytes = defaultMaxFrameBytes;
    EvalLimits limits;
    std::string statsOut;          //!< final hllc-stats-v1 export path
    std::uint64_t statsIntervalMs = 1000; //!< interval-series cadence
};

/** Monotonic counters (snapshot via Server::stats()). */
struct ServerStats
{
    std::uint64_t connectionsAccepted = 0;
    std::uint64_t acceptInjectedDrops = 0; //!< serve.accept chaos
    std::uint64_t framesAccepted = 0;      //!< fully read off a socket
    std::uint64_t requestsOk = 0;
    std::uint64_t requestsError = 0;       //!< decode or eval errors
    std::uint64_t overloaded = 0;          //!< backpressure replies
    std::uint64_t repliesSent = 0;
    std::uint64_t replyFailures = 0;       //!< dead peer / serve.reply
    std::uint64_t eventsProcessed = 0;     //!< measured events evaluated
    std::uint64_t statsRequests = 0;
};

class Server
{
  public:
    explicit Server(const ServerConfig &config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, then spawn the shard threads, listener and stats ticker.
     * Throws IoError naming the thread that could not start; the
     * destructor then joins the ones that did.
     */
    void start();

    /** The resolved TCP port (ephemeral binds); 0 for Unix sockets. */
    std::uint16_t tcpPort() const;

    /**
     * Block until an interrupt (SIGINT/SIGTERM via common/interrupt or
     * requestDrain()) arrives, then drain and return. The daemon main
     * is `installInterruptHandlers(); server.start(); server.serve();`.
     */
    void serve();

    /** Begin a graceful drain from another thread (idempotent). */
    void requestDrain();

    /**
     * Drain to completion: stop accepting, finish every accepted
     * request, flush replies, write the final stats export. Idempotent;
     * implied by serve() and the destructor.
     */
    void drain();

    ServerStats stats() const;

    /** The hllc-stats-v1 document (counters + interval series). */
    std::string statsJson() const;

  private:
    struct Connection;
    struct Shard;
    struct WorkItem;
    struct ReaderSlot;

    void listenerLoop();
    /** Start a reader for an accepted connection. */
    void admit(Fd fd);
    void readerLoop(std::shared_ptr<Connection> conn);
    void shardLoop(Shard &shard);
    void tickerLoop();
    void handleFrame(const std::shared_ptr<Connection> &conn,
                     const std::vector<std::uint8_t> &payload);
    void sendReply(const std::shared_ptr<Connection> &conn,
                   const Response &response);
    void sampleInterval();

    ServerConfig config_;
    Evaluator evaluator_;
    std::unique_ptr<Listener> listener_;

    std::atomic<bool> started_{ false };
    std::atomic<bool> draining_{ false };
    std::atomic<bool> drained_{ false };
    /** Set once the readers are gone: shards may run dry and exit. */
    std::atomic<bool> shardsMayExit_{ false };

    std::thread listenerThread_;
    std::vector<std::thread> shardThreads_; //!< only threads that started
    std::vector<std::unique_ptr<Shard>> shards_;

    Mutex readersMutex_;
    std::vector<std::unique_ptr<ReaderSlot>> readers_
        HLLC_GUARDED_BY(readersMutex_);

    std::thread tickerThread_;
    Mutex tickerMutex_;
    CondVar tickerWake_;

    /** Counter cells are atomics so every thread can bump them. */
    struct Counters
    {
        std::atomic<std::uint64_t> connectionsAccepted{ 0 };
        std::atomic<std::uint64_t> acceptInjectedDrops{ 0 };
        std::atomic<std::uint64_t> framesAccepted{ 0 };
        std::atomic<std::uint64_t> requestsOk{ 0 };
        std::atomic<std::uint64_t> requestsError{ 0 };
        std::atomic<std::uint64_t> overloaded{ 0 };
        std::atomic<std::uint64_t> repliesSent{ 0 };
        std::atomic<std::uint64_t> replyFailures{ 0 };
        std::atomic<std::uint64_t> eventsProcessed{ 0 };
        std::atomic<std::uint64_t> statsRequests{ 0 };
    };
    Counters counters_;

    mutable Mutex seriesMutex_;
    metrics::MetricRegistry series_ HLLC_GUARDED_BY(seriesMutex_);
    std::uint64_t intervalIndex_ HLLC_GUARDED_BY(seriesMutex_) = 0;
};

} // namespace hllc::serve

#endif // HLLC_SERVE_SERVER_HH
