/**
 * @file
 * hllc-serve: run the sharded policy-evaluation daemon.
 *
 * Binds the endpoint (exactly one of --socket and --port; a --port of 0
 * picks an ephemeral port, printed on the "listening" line so a harness
 * can parse it), serves hllc-req-v1 requests until SIGINT/SIGTERM, then
 * drains: accepted requests are finished and answered, the final
 * hllc-stats-v1 export is written atomically, and the process exits 0.
 */

#include <cstdio>
#include <string>

#include "common/argparse.hh"
#include "common/error.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "serve/server.hh"

using namespace hllc;

int
main(int argc, char **argv)
{
    serve::ServerConfig config;
    bool tcp = false;
    ArgParser cli(argv[0]);
    cli.add({
        { "--socket", "", "PATH", "listen on a unix socket",
          storeText(config.endpoint.unixPath) },
        { "--port", "", "N", "listen on 127.0.0.1:N (0 = ephemeral)",
          [&](const char *value) {
              tcp = true;
              return storeNumber(config.endpoint.tcpPort)(value);
          } },
        { "--shards", "", "1..256", "worker shards",
          storeNumber(config.shards, 1, 256) },
        { "--queue-depth", "", "N", "requests queued per shard",
          storeNumber(config.queueDepth, 1, 1u << 20) },
        { "--batch-max", "", "N", "requests one shard takes at once",
          storeNumber(config.batchMax, 1, 4096) },
        { "--stats-out", "", "FILE.json", "hllc-stats-v1 export path",
          storeText(config.statsOut) },
        { "--stats-interval-ms", "", "MS", "export interval",
          storeNumber(config.statsIntervalMs, 10, 3'600'000) },
        { "--max-refs", "", "N", "refs per core a Replay may ask for",
          storeNumber(config.limits.maxRefsPerCore, 1) },
        { "--max-batch-events", "", "N", "events a Batch may carry",
          storeNumber(config.limits.maxBatchEvents, 1, 1u << 24) },
    });
    cli.parse(argc, argv);
    if (tcp == !config.endpoint.unixPath.empty())
        cli.fail("give exactly one of --socket and --port");

    installInterruptHandlers();

    serve::Server server(config);
    try {
        server.start();
    } catch (const IoError &e) {
        fatal("%s", e.what());
    }

    if (!config.endpoint.unixPath.empty()) {
        std::printf("hllc-serve: listening on unix:%s (%u shards)\n",
                    config.endpoint.unixPath.c_str(), config.shards);
    } else {
        std::printf("hllc-serve: listening on tcp:127.0.0.1:%u "
                    "(%u shards)\n",
                    server.tcpPort(), config.shards);
    }
    std::fflush(stdout); // harnesses parse this line before connecting

    server.serve();

    const serve::ServerStats stats = server.stats();
    std::printf("hllc-serve: drained: %s frames accepted, %s replies "
                "sent, %s reply failures, %s overloaded\n",
                formatU64(stats.framesAccepted).c_str(),
                formatU64(stats.repliesSent).c_str(),
                formatU64(stats.replyFailures).c_str(),
                formatU64(stats.overloaded).c_str());
    if (stats.framesAccepted != stats.repliesSent + stats.replyFailures) {
        // The drain guarantee is the point of the daemon: make a
        // violation loud enough for CI to catch.
        std::fprintf(stderr,
                     "hllc-serve: DRAIN ACCOUNTING VIOLATION: "
                     "accepted %s != replied %s + failed %s\n",
                     formatU64(stats.framesAccepted).c_str(),
                     formatU64(stats.repliesSent).c_str(),
                     formatU64(stats.replyFailures).c_str());
        return 1;
    }
    return 0;
}
