/**
 * @file
 * hllc_loadgen: seeded load generator for the hllc-serve daemon.
 *
 * K concurrent clients each open one connection and push N requests
 * through it with up to W frames in flight (pipelining is what makes
 * backpressure observable). The request stream is a pure function of
 * (--seed, client index, sequence number): two same-seed runs issue the
 * same requests, and because the daemon evaluates each request as a pure
 * function of its bytes, the per-request results (--results-out, sorted
 * by id) are byte-identical across runs regardless of sharding, timing
 * or how often the daemon said OVERLOADED in between.
 *
 * OVERLOADED replies are retried with exponential backoff — they shape
 * throughput and the overload counters, never the result set. The tool
 * exits nonzero if any request never received a final reply (the
 * client-side half of the daemon's zero-lost-accepted-requests
 * guarantee).
 *
 * Emits a "hllc-serve-bench-v1" JSON document: requests/sec, events/sec
 * and the request latency distribution (p50/p90/p99/p999/max/mean).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/argparse.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "common/numfmt.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "serve/protocol.hh"
#include "serve/socket.hh"

using namespace hllc;

namespace
{

struct Options
{
    serve::Endpoint endpoint;
    unsigned clients = 8;
    unsigned requests = 50;   //!< per client
    unsigned window = 4;      //!< frames in flight per client
    std::uint64_t seed = 1;
    std::uint64_t refs = 2'000; //!< refsPerCore of Replay requests
    std::uint64_t stallLimitS = 30; //!< silence before reconnecting
    std::string out = "BENCH_serve.json";
    std::string resultsOut;
};

/** What one request resolved to (plus the load-side measurements). */
struct Outcome
{
    std::uint64_t id = 0;
    serve::RequestType type = serve::RequestType::Ping;
    bool replied = false;
    serve::Status status = serve::Status::Ok;
    serve::EvalResult result;
    std::string message;
    double latencyUs = 0.0;   //!< first send → final reply
    std::uint64_t overloads = 0;
};

/** The deterministic request stream of one client. */
serve::Request
makeRequest(std::uint64_t seed, unsigned client, unsigned seq,
            unsigned clients, std::uint64_t refs)
{
    Xoshiro256StarStar rng = childStream(seed, client, seq);
    serve::Request request;
    request.id =
        static_cast<std::uint64_t>(seq) * clients + client + 1;

    const std::uint64_t roll = rng.next() % 100;
    if (roll < 80) {
        request.type = serve::RequestType::Replay;
        request.replay.mix =
            static_cast<std::uint8_t>(1 + rng.next() % 4);
        request.replay.refsPerCore = refs;
        request.replay.seed = 1 + rng.next() % 2;
        static const char *const policies[] = { "CP_SD", "BH", "CA_RWR",
                                                "TAP", "LHybrid" };
        request.replay.policy = policies[rng.next() % 5];
    } else if (roll < 95) {
        request.type = serve::RequestType::Batch;
        request.batch.policy = rng.next() % 2 == 0 ? "CP_SD" : "BH_CP";
        request.batch.seed = rng.next();
        const std::size_t count = 64 + rng.next() % 448;
        request.batch.events.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            hybrid::LlcEvent event;
            event.blockNum = rng.next() % 4096;
            const std::uint64_t t = rng.next() % 10;
            event.type = t < 6 ? hybrid::LlcEventType::GetS
                       : t < 9 ? hybrid::LlcEventType::GetX
                               : hybrid::LlcEventType::PutDirty;
            event.ecbBytes =
                static_cast<std::uint8_t>(2 + rng.next() % 63);
            event.core = static_cast<CoreId>(rng.next() % 4);
            request.batch.events.push_back(event);
        }
    } else {
        request.type = serve::RequestType::Ping;
    }
    return request;
}

using Clock = std::chrono::steady_clock;

/**
 * Pipeline every sequence number in @p todo over one connection,
 * erasing each from @p todo as its final reply lands. OVERLOADED
 * replies back off and resend within the session. Returns normally
 * when @p todo is empty or the stall limit is hit; throws IoError on a
 * connection-level failure (unresolved sequences stay in @p todo for
 * the caller's reconnect).
 */
void
runSession(const Options &opt, unsigned client,
           std::vector<Outcome> &outcomes, std::vector<unsigned> &todo,
           std::vector<Clock::time_point> &first_send)
{
    serve::Fd fd = serve::connectTo(opt.endpoint);
    serve::setRecvTimeoutMs(fd.get(), 100);

    struct Pending
    {
        unsigned seq;
        unsigned attempts = 0; //!< OVERLOADED retries this session
    };
    std::map<std::uint64_t, Pending> inflight;
    std::vector<Pending> retry_queue; //!< OVERLOADED, awaiting backoff
    // On any exit, everything still in flight or awaiting an overload
    // retry goes back on the to-do list so a reconnect (or the final
    // accounting) sees it.
    struct Requeue
    {
        std::vector<unsigned> &todo;
        std::map<std::uint64_t, Pending> &inflight;
        std::vector<Pending> &retry_queue;
        ~Requeue()
        {
            for (const auto &[id, pending] : inflight)
                todo.push_back(pending.seq);
            for (const Pending &pending : retry_queue)
                todo.push_back(pending.seq);
        }
    } requeue{ todo, inflight, retry_queue };

    auto send = [&](Pending pending) {
        const serve::Request request = makeRequest(
            opt.seed, client, pending.seq, opt.clients, opt.refs);
        if (first_send[pending.seq] == Clock::time_point{})
            first_send[pending.seq] = Clock::now();
        const auto framed = serve::frame(serve::encodeRequest(request));
        // Register before writing: if sendAll throws mid-frame the
        // request must survive into the reconnect's to-do list, not
        // evaporate between the pop and the bookkeeping.
        inflight.emplace(request.id, pending);
        serve::sendAll(fd.get(), framed.data(), framed.size());
    };

    std::vector<std::uint8_t> payload;
    // No reply for this long with requests in flight ⇒ this connection
    // is dead (chaos kills reply paths on purpose); hand the
    // unresolved sequences back for a reconnect.
    const auto stallLimit = std::chrono::seconds(opt.stallLimitS);
    auto last_progress = Clock::now();

    while (!todo.empty() || !inflight.empty() || !retry_queue.empty()) {
        // Refill the window: retries first (they are oldest), then the
        // next fresh sequence from the to-do list.
        while (inflight.size() < opt.window &&
               (!retry_queue.empty() || !todo.empty())) {
            if (!retry_queue.empty()) {
                Pending pending = retry_queue.back();
                retry_queue.pop_back();
                // Exponential backoff, capped: the daemon said it is
                // overloaded; hammering it back would stay overloaded.
                const std::uint64_t backoff_ms = std::min<std::uint64_t>(
                    64, 1ull << std::min(pending.attempts, 6u));
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(backoff_ms));
                send(pending);
                continue;
            }
            Pending pending;
            pending.seq = todo.back();
            todo.pop_back();
            send(pending);
        }

        serve::RecvStatus status =
            serve::recvFrame(fd.get(), payload,
                             serve::defaultMaxFrameBytes);
        if (status == serve::RecvStatus::Eof)
            throw IoError("server closed the connection");
        if (status == serve::RecvStatus::Timeout) {
            if (Clock::now() - last_progress > stallLimit)
                return; // unresolved sequences stay on the to-do list
            continue;
        }
        last_progress = Clock::now();

        const serve::Response response =
            serve::parseResponse(payload.data(), payload.size());
        const auto it = inflight.find(response.id);
        if (it == inflight.end()) {
            // id 0 marks a reply the daemon could not attribute (a
            // decode chaos hit, for instance): it answers whichever
            // oldest in-flight request the daemon failed to parse.
            warn("client %u: reply for unknown id %llu", client,
                 static_cast<unsigned long long>(response.id));
            continue;
        }
        const Pending pending = it->second;
        inflight.erase(it);
        Outcome &outcome = outcomes[pending.seq];

        if (response.status == serve::Status::Overloaded) {
            ++outcome.overloads;
            retry_queue.push_back(
                Pending{ pending.seq, pending.attempts + 1 });
            continue;
        }
        outcome.replied = true;
        outcome.status = response.status;
        outcome.result = response.result;
        outcome.message = response.message;
        outcome.latencyUs = std::chrono::duration<double, std::micro>(
                                Clock::now() - first_send[pending.seq])
                                .count();
    }
}

/**
 * Run one client: the deterministic request stream, pipelined over a
 * connection that reconnects (bounded attempts) if the daemon drops it
 * — chaos schedules like serve.accept kill connections on purpose, and
 * a client that gives up on the first EOF would misreport every one of
 * its remaining requests as lost.
 */
void
runClient(const Options &opt, unsigned client,
          std::vector<Outcome> &outcomes)
{
    std::vector<unsigned> todo(opt.requests);
    for (unsigned seq = 0; seq < opt.requests; ++seq) {
        // Record identity up front so even never-replied requests
        // appear (as lost) in the results file.
        const serve::Request request =
            makeRequest(opt.seed, client, seq, opt.clients, opt.refs);
        outcomes[seq].id = request.id;
        outcomes[seq].type = request.type;
        todo[seq] = opt.requests - 1 - seq; // pop_back serves in order
    }
    std::vector<Clock::time_point> first_send(opt.requests);

    // A fruitless session burns one attempt; any progress resets the
    // budget (under connection-killing chaos a client may reconnect
    // many times, and that is fine as long as each session resolves
    // something).
    constexpr unsigned maxFruitless = 8;
    unsigned fruitless = 0;
    while (!todo.empty() && fruitless < maxFruitless) {
        if (fruitless > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50 * fruitless));
        }
        const std::size_t before = todo.size();
        try {
            runSession(opt, client, outcomes, todo, first_send);
        } catch (const IoError &e) {
            warn("client %u: %s (%zu requests unresolved)", client,
                 e.what(), todo.size());
        }
        fruitless = todo.size() < before ? 0 : fruitless + 1;
    }
}

double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const std::size_t n = sorted.size();
    std::size_t index = static_cast<std::size_t>(
        q * static_cast<double>(n));
    if (index >= n)
        index = n - 1;
    return sorted[index];
}

const char *
typeName(serve::RequestType type)
{
    switch (type) {
    case serve::RequestType::Replay: return "replay";
    case serve::RequestType::Batch:  return "batch";
    case serve::RequestType::Stats:  return "stats";
    case serve::RequestType::Ping:   return "ping";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool tcp = false;
    ArgParser cli(argv[0]);
    cli.add({
        { "--socket", "", "PATH", "daemon's unix socket",
          storeText(opt.endpoint.unixPath) },
        { "--port", "", "N", "daemon's port on 127.0.0.1",
          [&](const char *value) {
              tcp = true;
              return storeNumber(opt.endpoint.tcpPort, 1)(value);
          } },
        { "--clients", "", "K", "concurrent connections (default 8)",
          storeNumber(opt.clients, 1, 4096) },
        { "--requests", "", "N", "requests per client (default 50)",
          storeNumber(opt.requests, 1, 1u << 20) },
        { "--window", "", "W", "frames in flight per client (default 4)",
          storeNumber(opt.window, 1, 1024) },
        { "--seed", "", "S", "request stream seed (default 1)",
          storeNumber(opt.seed) },
        { "--refs", "", "N", "refs per core of a Replay (default 2000)",
          storeNumber(opt.refs, 1) },
        { "--stall-limit-s", "", "N", "silence before reconnecting",
          storeNumber(opt.stallLimitS, 1, 3'600) },
        { "--out", "", "FILE.json",
          "hllc-serve-bench-v1 report ('' = none)", storeText(opt.out) },
        { "--results-out", "", "FILE", "per-request results, sorted by id",
          storeText(opt.resultsOut) },
    });
    cli.parse(argc, argv);
    if (tcp == !opt.endpoint.unixPath.empty())
        cli.fail("give exactly one of --socket and --port");

    using Clock = std::chrono::steady_clock;
    std::vector<std::vector<Outcome>> per_client(opt.clients);
    for (auto &outcomes : per_client)
        outcomes.resize(opt.requests);

    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(opt.clients);
    for (unsigned c = 0; c < opt.clients; ++c) {
        threads.emplace_back([&opt, &per_client, c] {
            try {
                runClient(opt, c, per_client[c]);
            } catch (const IoError &e) {
                warn("client %u: %s", c, e.what());
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();

    // Aggregate.
    std::vector<double> latencies;
    std::uint64_t replied = 0, errors = 0, lost = 0, overloads = 0;
    std::uint64_t events = 0;
    std::vector<const Outcome *> all;
    for (const auto &outcomes : per_client) {
        for (const Outcome &o : outcomes) {
            all.push_back(&o);
            overloads += o.overloads;
            if (!o.replied) {
                ++lost;
                continue;
            }
            ++replied;
            latencies.push_back(o.latencyUs);
            if (o.status == serve::Status::Error)
                ++errors;
            else
                events += o.result.measuredEvents;
        }
    }
    std::sort(latencies.begin(), latencies.end());
    double mean_us = 0.0;
    for (double l : latencies)
        mean_us += l;
    if (!latencies.empty())
        mean_us /= static_cast<double>(latencies.size());
    const std::uint64_t total =
        static_cast<std::uint64_t>(opt.clients) * opt.requests;

    std::string json = "{\n";
    json += "  \"schema\": \"hllc-serve-bench-v1\",\n";
    json += "  \"clients\": " + formatU64(opt.clients) + ",\n";
    json += "  \"requests_per_client\": " + formatU64(opt.requests) +
            ",\n";
    json += "  \"window\": " + formatU64(opt.window) + ",\n";
    json += "  \"seed\": " + formatU64(opt.seed) + ",\n";
    json += "  \"refs_per_core\": " + formatU64(opt.refs) + ",\n";
    json += "  \"requests_total\": " + formatU64(total) + ",\n";
    json += "  \"replied\": " + formatU64(replied) + ",\n";
    json += "  \"errors\": " + formatU64(errors) + ",\n";
    json += "  \"lost_replies\": " + formatU64(lost) + ",\n";
    json += "  \"overloaded_replies\": " + formatU64(overloads) + ",\n";
    json += "  \"duration_s\": " + formatFixed(wall_s, 3) + ",\n";
    json += "  \"requests_per_sec\": " +
            formatFixed(wall_s > 0.0
                            ? static_cast<double>(replied) / wall_s
                            : 0.0,
                        1) +
            ",\n";
    json += "  \"events_per_sec\": " +
            formatFixed(wall_s > 0.0
                            ? static_cast<double>(events) / wall_s
                            : 0.0,
                        1) +
            ",\n";
    json += "  \"latency_us\": { \"p50\": " +
            formatFixed(percentile(latencies, 0.50), 1) +
            ", \"p90\": " + formatFixed(percentile(latencies, 0.90), 1) +
            ", \"p99\": " + formatFixed(percentile(latencies, 0.99), 1) +
            ", \"p999\": " +
            formatFixed(percentile(latencies, 0.999), 1) +
            ", \"max\": " +
            formatFixed(latencies.empty() ? 0.0 : latencies.back(), 1) +
            ", \"mean\": " + formatFixed(mean_us, 1) + " }\n";
    json += "}\n";
    // --out '' skips the report (atomic rename must never target a
    // non-regular path like /dev/null).
    if (!opt.out.empty()) {
        try {
            serial::writeFileAtomic(opt.out, json.data(), json.size());
        } catch (const IoError &e) {
            fatal("%s", e.what());
        }
    }
    std::printf("hllc_loadgen: %s/%s replied in %ss (%s overloaded "
                "retries), p50 %sus p99 %sus\n",
                formatU64(replied).c_str(), formatU64(total).c_str(),
                formatFixed(wall_s, 1).c_str(),
                formatU64(overloads).c_str(),
                formatFixed(percentile(latencies, 0.50), 0).c_str(),
                formatFixed(percentile(latencies, 0.99), 0).c_str());

    // The deterministic result set: one line per evaluation request,
    // sorted by id. Latency and overload counts deliberately excluded —
    // this file must be byte-identical across same-seed runs.
    if (!opt.resultsOut.empty()) {
        std::sort(all.begin(), all.end(),
                  [](const Outcome *a, const Outcome *b) {
                      return a->id < b->id;
                  });
        std::string lines;
        for (const Outcome *o : all) {
            lines += formatU64(o->id);
            lines += ' ';
            lines += typeName(o->type);
            if (!o->replied) {
                lines += " lost\n";
                continue;
            }
            if (o->status == serve::Status::Error) {
                lines += " error ";
                lines += jsonEscape(o->message);
                lines += '\n';
                continue;
            }
            lines += " ok";
            if (o->type != serve::RequestType::Ping) {
                lines += ' ';
                lines += o->result.policyName;
                lines += " events=" + formatU64(o->result.measuredEvents);
                lines += " accesses=" +
                         formatU64(o->result.demandAccesses);
                lines += " hits=" + formatU64(o->result.demandHits);
                lines += " nvm_writes=" + formatU64(o->result.nvmWrites);
                lines += " nvm_bytes=" +
                         formatU64(o->result.nvmBytesWritten);
                lines += " hit_rate=" + formatFixed(o->result.hitRate, 6);
            }
            lines += '\n';
        }
        try {
            serial::writeFileAtomic(opt.resultsOut, lines.data(),
                                    lines.size());
        } catch (const IoError &e) {
            fatal("%s", e.what());
        }
    }

    if (lost > 0) {
        std::fprintf(stderr,
                     "hllc_loadgen: %s requests never got a reply\n",
                     formatU64(lost).c_str());
        return 1;
    }
    return 0;
}
