/**
 * @file
 * serve-closed: the hllc-serve daemon (a child process, one shard per
 * hardware thread) answering hllc_loadgen (a second child process) with
 * one connection per hardware thread and one request in flight on each
 * (--window 1): a closed loop over the tool's request mix, 80% Replay,
 * 15% Batch, 5% Ping. Set-up is daemon start and trace-cache warm-up;
 * one round of the timed region is one hllc_loadgen run.
 *
 * Every round's --results-out is checked line by line against an
 * in-process serve::Evaluator on the same requests, so results are
 * verified for any seed.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>

#include "check/rig.hh"
#include "common/numfmt.hh"
#include "common/thread_pool.hh"
#include "hierarchy/hierarchy.hh"
#include "llc_layer.hh"
#include "replay/replayer.hh"
#include "serve/eval.hh"
#include "serve/protocol.hh"
#include "serve/socket.hh"
#include "trace.hh"
#include "workload/mixes.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench
{

/**
 * Request @p seq of connection @p client, exactly as hllc_loadgen builds
 * it (loadgen_requests.cc compiles the tool's own generator).
 */
hllc::serve::Request loadgenRequest(std::uint64_t seed, unsigned client,
                                    unsigned seq, unsigned clients,
                                    std::uint64_t refs);

namespace
{

using namespace hllc;

/**
 * Requests each connection sends per round: with four connections a
 * round has 1,200 requests, so 11 of them lie beyond hllc_loadgen's p99.
 */
constexpr unsigned requestsPerConnection = 300;
/** refsPerCore of Replay requests (the hllc_loadgen default). */
constexpr std::uint64_t replayRefs = 2'000;
/** A warm-up reply slower than this means the daemon is stuck. */
constexpr double replyDeadlineS = 30.0;

std::string
readText(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Start @p args with stdout and stderr sent to @p log. HLLC_* variables
 * are dropped, so the child runs at its default scale whatever the
 * caller's environment sets.
 */
pid_t
spawn(std::vector<std::string> args, const std::string &log)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<char *> envp;
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "HLLC_", 5) != 0)
            envp.push_back(*e);
    }
    envp.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO,
                                     STDERR_FILENO);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, args[0].c_str(), &actions, nullptr,
                               argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0)
        throw std::runtime_error("cannot start " + args[0]);
    return pid;
}

/** The hllc-serve daemon as a child process. */
class Daemon
{
  public:
    Daemon(const Options &options, const std::string &socket)
        : log_(options.runDir + "/daemon.log")
    {
        pid_ = spawn({ options.serveBin, "--socket", socket, "--shards",
                       std::to_string(options.jobs) },
                     log_);
        // Wait for the "listening" line: the socket is bound by then.
        const auto t0 = Clock::now();
        for (;;) {
            const std::string text = readText(log_);
            if (text.find("listening") != std::string::npos)
                break;
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("hllc-serve exited at start-up: " +
                                         text);
            }
            if (secondsSince(t0) > 30.0) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                pid_ = -1;
                throw std::runtime_error("hllc-serve did not start");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    ~Daemon()
    {
        try {
            stop();
        } catch (const std::exception &) {
            // stop() already reaped the child; the error was reported
            // by the caller that stopped it explicitly.
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** SIGTERM (graceful drain) and wait; throws on an unclean exit. */
    void
    stop()
    {
        if (pid_ < 0)
            return;
        ::kill(pid_, SIGTERM);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("hllc-serve did not drain cleanly");
    }

    /** User + system CPU seconds of the daemon so far. */
    double
    cpuSeconds() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
        std::string stat;
        std::getline(in, stat);
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        std::istringstream fields(stat.substr(stat.rfind(')') + 2));
        std::string field;
        double ticks = 0.0;
        for (int i = 3; i <= 15 && (fields >> field); ++i) {
            if (i >= 14)
                ticks += std::stod(field);
        }
        return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }

    /** Peak resident set of the daemon, MiB. */
    double
    peakRssMb() const
    {
        std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
        std::string line;
        while (std::getline(in, line)) {
            if (line.rfind("VmHWM:", 0) == 0)
                return std::stod(line.substr(6)) / 1024.0;
        }
        return 0.0;
    }

  private:
    std::string log_;
    pid_t pid_ = -1;
};

/** The requests of one round, per connection (hllc_loadgen's stream). */
using Requests = std::vector<std::vector<serve::Request>>;

Requests
roundRequests(const Options &options)
{
    Requests requests(options.jobs);
    for (unsigned c = 0; c < options.jobs; ++c) {
        for (unsigned seq = 0; seq < requestsPerConnection; ++seq) {
            requests[c].push_back(loadgenRequest(options.seed, c, seq,
                                                 options.jobs, replayRefs));
        }
    }
    return requests;
}

/**
 * Warm the daemon's trace cache: one Replay per distinct trace the
 * round asks for, sent one at a time on one connection.
 */
void
warm(const std::string &socket, const Requests &requests)
{
    serve::Endpoint endpoint;
    endpoint.unixPath = socket;
    const serve::Fd fd = serve::connectTo(endpoint);
    serve::setRecvTimeoutMs(fd.get(), 100);
    std::set<std::pair<int, std::uint64_t>> seen;
    std::vector<std::uint8_t> payload;
    for (const auto &conn : requests) {
        for (const serve::Request &r : conn) {
            if (r.type != serve::RequestType::Replay ||
                !seen.insert({ r.replay.mix, r.replay.seed }).second) {
                continue;
            }
            const auto framed = serve::frame(serve::encodeRequest(r));
            serve::sendAll(fd.get(), framed.data(), framed.size());
            serve::RecvStatus got = serve::RecvStatus::Timeout;
            const auto sent = Clock::now();
            while (got == serve::RecvStatus::Timeout &&
                   secondsSince(sent) < replyDeadlineS) {
                got = serve::recvFrame(fd.get(), payload,
                                       serve::defaultMaxFrameBytes);
            }
            if (got != serve::RecvStatus::Frame ||
                serve::parseResponse(payload.data(), payload.size())
                        .status != serve::Status::Ok) {
                throw std::runtime_error("warm-up request failed");
            }
        }
    }
}

/** Number after `"key": ` in hllc_loadgen's JSON report. */
double
jsonField(const std::string &json, const std::string &key)
{
    const std::string tag = "\"" + key + "\": ";
    const std::size_t at = json.find(tag);
    if (at == std::string::npos)
        throw std::runtime_error("hllc_loadgen report lacks " + key);
    return std::strtod(json.c_str() + at + tag.size(), nullptr);
}

/** What one hllc_loadgen run measured and returned. */
struct Round
{
    double wall = 0.0;      //!< spawn to exit
    double cpu = 0.0;       //!< hllc_loadgen's user + system seconds
    double peakRssMb = 0.0; //!< hllc_loadgen's
    double p50Ms = 0.0, p99Ms = 0.0, meanMs = 0.0;
    double replied = 0.0;
    double overloads = 0.0;
    std::string results; //!< its sorted --results-out
};

/** One round: hllc_loadgen, closed loop, run to completion. */
Round
runLoadgen(const Options &options, const std::string &socket)
{
    const std::string json = options.runDir + "/loadgen.json";
    const std::string results = options.runDir + "/results.txt";
    const std::string log = options.runDir + "/loadgen.log";
    Round round;
    const auto t0 = Clock::now();
    const pid_t pid = spawn(
        { options.loadgenBin, "--socket", socket, "--clients",
          std::to_string(options.jobs), "--requests",
          std::to_string(requestsPerConnection), "--window", "1", "--seed",
          std::to_string(options.seed), "--refs",
          std::to_string(replayRefs), "--out", json, "--results-out",
          results },
        log);
    int status = 0;
    rusage usage{};
    ::wait4(pid, &status, 0, &usage);
    round.wall = secondsSince(t0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("hllc_loadgen failed: " + readText(log));

    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    round.cpu = secs(usage.ru_utime) + secs(usage.ru_stime);
    round.peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    const std::string report = readText(json);
    round.p50Ms = jsonField(report, "p50") / 1e3;
    round.p99Ms = jsonField(report, "p99") / 1e3;
    round.meanMs = jsonField(report, "mean") / 1e3;
    round.replied = jsonField(report, "replied");
    round.overloads = jsonField(report, "overloaded_replies");
    round.results = readText(results);
    return round;
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

/** The --results-out line hllc_loadgen writes for a successful reply. */
std::string
resultLine(const serve::Request &request, const serve::EvalResult &result)
{
    std::string line =
        formatU64(request.id) + ' ' + typeName(request.type) + " ok";
    if (request.type != serve::RequestType::Ping) {
        line += ' ' + result.policyName;
        line += " events=" + formatU64(result.measuredEvents);
        line += " accesses=" + formatU64(result.demandAccesses);
        line += " hits=" + formatU64(result.demandHits);
        line += " nvm_writes=" + formatU64(result.nvmWrites);
        line += " nvm_bytes=" + formatU64(result.nvmBytesWritten);
        line += " hit_rate=" + formatFixed(result.hitRate, 6);
    }
    return line + '\n';
}

/** The in-process reference result line of every request of a round. */
std::map<std::uint64_t, std::string>
referenceLines(const Requests &requests, unsigned jobs)
{
    serve::Evaluator evaluator(sim::SystemConfig::tableIV(1.0),
                               serve::EvalLimits{});
    std::vector<const serve::Request *> all;
    for (const auto &conn : requests) {
        for (const serve::Request &r : conn)
            all.push_back(&r);
    }
    std::vector<std::string> lines(all.size());
    parallelFor(jobs, all.size(), [&](std::size_t i) {
        const serve::Request &r = *all[i];
        serve::EvalResult result;
        if (r.type != serve::RequestType::Ping)
            result = evaluator.evaluate(r);
        lines[i] = resultLine(r, result);
    });
    std::map<std::uint64_t, std::string> out;
    for (std::size_t i = 0; i < all.size(); ++i)
        out[all[i]->id] = lines[i];
    return out;
}

/**
 * Check one round's --results-out: one op per request, one for the
 * whole file. @p perturb alters the first Replay line's hit count.
 */
void
checkRound(std::string results,
           const std::map<std::uint64_t, std::string> &reference,
           bool perturb, unsigned clients, Report &report)
{
    if (perturb) {
        const std::size_t replay = results.find(" replay ok ");
        const std::size_t hits = results.find(" hits=", replay);
        if (replay != std::string::npos && hits != std::string::npos)
            results.insert(hits + 6, "1");
    }
    std::istringstream in(results);
    std::string line;
    std::size_t count = 0;
    while (std::getline(in, line)) {
        line += '\n';
        ++count;
        const std::uint64_t id = std::strtoull(line.c_str(), nullptr, 10);
        const auto want = reference.find(id);
        report.op(want != reference.end() && want->second == line
                      ? std::string()
                      : "request " + formatU64(id) + " answered " + line);
    }
    for (; count < reference.size(); ++count)
        report.op("results-out is missing a request");
    // The request stream depends on the connection count, so the
    // reference is per count.
    report.op(report.check("results.c" + formatU64(clients),
                           digestString(results)));
}

/** The in-process decomposition of the traced run. */
struct Decomposition
{
    std::vector<double> evalMs, rigMs, replayMs, codecUs; //!< per request
    LlcCounts counts;
    HandleSamples handle;
    double captureS = 0.0;
    std::uint64_t captureEvents = 0;
    std::uint64_t captures = 0;
};

/**
 * Evaluate every non-Ping request in process, on as many threads as the
 * daemon has shards: through Evaluator::evaluate (timed), and through
 * its steps — trace capture, makeFastRig, TraceReplayer::replay — with
 * spans; both must agree. Also times the client's codec
 * (encodeRequest + frame, parseResponse) on each request and its reply.
 * The first Replay requests run the sampled handle() loop.
 */
Decomposition
decompose(const Requests &all_requests, unsigned jobs, Tracer &tracer,
          Report &report)
{
    Decomposition d;
    const sim::SystemConfig config = sim::SystemConfig::tableIV(1.0);
    serve::Evaluator evaluator(config, serve::EvalLimits{});
    std::vector<const serve::Request *> requests;
    std::map<std::pair<int, std::uint64_t>, replay::LlcTrace> traces;
    for (const auto &conn : all_requests) {
        for (const serve::Request &r : conn) {
            if (r.type == serve::RequestType::Ping)
                continue;
            requests.push_back(&r);
            const std::pair<int, std::uint64_t> key{ r.replay.mix,
                                                     r.replay.seed };
            if (r.type != serve::RequestType::Replay || traces.count(key))
                continue;
            evaluator.evaluate(r); // warms the evaluator's trace cache
            const auto t0 = Clock::now();
            Scope span(tracer, "capture", 0, r.id);
            const replay::LlcTrace &trace =
                traces.emplace(key, hierarchy::captureTrace(
                    workload::tableVMixes()[r.replay.mix - 1],
                    config.llcBlocks(), config.privateCaches,
                    r.replay.refsPerCore, r.replay.seed, config.scheme))
                    .first->second;
            d.captureS += secondsSince(t0);
            d.captureEvents += trace.size();
            ++d.captures;
        }
    }

    const std::size_t n = requests.size();
    d.evalMs.resize(n);
    d.rigMs.resize(n);
    d.replayMs.resize(n);
    d.codecUs.resize(n);
    std::vector<LlcCounts> counts(n);
    std::vector<std::string> why(n);
    // What evaluate() replays for @p r: the cached capture (Replay, 20%
    // warm-up) or the inline events (Batch, no warm-up; trace left null).
    struct Inputs
    {
        const replay::LlcTrace *trace = nullptr;
        double warmup = 0.0;
        hybrid::HybridLlcConfig llc;
    };
    const auto inputs = [&](const serve::Request &r) {
        Inputs in;
        if (r.type == serve::RequestType::Replay) {
            in.trace = &traces.at({ r.replay.mix, r.replay.seed });
            in.warmup = 0.2;
            in.llc = config.llcConfig(*serve::policyFromName(r.replay.policy));
        } else {
            in.llc = config.llcConfig(*serve::policyFromName(r.batch.policy));
        }
        return in;
    };
    parallelFor(jobs, n, [&](std::size_t i) {
        const serve::Request &r = *requests[i];
        serve::EvalResult want;
        {
            const auto t0 = Clock::now();
            Scope span(tracer, "serve.eval", 0, r.id);
            want = evaluator.evaluate(r);
            d.evalMs[i] = secondsSince(t0) * 1e3;
        }
        {
            serve::Response response;
            response.id = r.id;
            response.type = r.type;
            response.result = want;
            const std::vector<std::uint8_t> reply =
                serve::encodeResponse(response);
            const auto t0 = Clock::now();
            Scope span(tracer, "serve.codec", 0, r.id);
            const auto framed = serve::frame(serve::encodeRequest(r));
            const serve::Response parsed =
                serve::parseResponse(reply.data(), reply.size());
            d.codecUs[i] = secondsSince(t0) * 1e6;
            if (framed.empty() || parsed.id != r.id)
                why[i] = "codec round trip lost request " + formatU64(r.id);
        }
        const Inputs in = inputs(r);
        const replay::LlcTrace *trace = in.trace;
        replay::LlcTrace batch;
        if (trace == nullptr) {
            for (const hybrid::LlcEvent &e : r.batch.events)
                batch.append(e);
            batch.meta().mixName = "batch";
            trace = &batch;
        }
        check::FastRig rig;
        {
            const auto t0 = Clock::now();
            Scope span(tracer, "rig", 0, r.id);
            rig = check::makeFastRig(in.llc);
            d.rigMs[i] = secondsSince(t0) * 1e3;
        }
        replay::ReplayResult res;
        {
            const auto t0 = Clock::now();
            Scope span(tracer, "replay", 0, r.id);
            res = replay::TraceReplayer(in.warmup).replay(*trace, *rig.llc);
            d.replayMs[i] = secondsSince(t0) * 1e3;
        }
        counts[i].add(*rig.llc);
        counts[i].events += trace->size();
        std::uint64_t nvm_writes = 0;
        for (const replay::CoreOutcome &core : res.cores)
            nvm_writes += core.nvmWrites;
        if (res.measuredEvents != want.measuredEvents ||
            res.demandHits != want.demandHits ||
            res.demandAccesses != want.demandAccesses ||
            res.nvmBytesWritten != want.nvmBytesWritten ||
            nvm_writes != want.nvmWrites) {
            why[i] = "decomposed request " + formatU64(r.id) + " differs";
        }
    });

    std::size_t sampled = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const serve::Request &r = *requests[i];
        d.counts.add(counts[i]);
        if (r.type == serve::RequestType::Replay && sampled < 64) {
            ++sampled;
            const Inputs in = inputs(r);
            const auto fast_rig = [&] {
                check::FastRig f = check::makeFastRig(in.llc);
                return Rig{ std::move(f.endurance), std::move(f.map),
                            std::move(f.llc) };
            };
            if (!sampledMatchesReplayer(*in.trace, fast_rig, in.warmup,
                                        d.handle)) {
                why[i] = "sampled handle() loop diverged on request " +
                         formatU64(r.id);
            }
        }
        report.op(why[i]);
    }
    return d;
}

} // anonymous namespace

void
runServeClosed(const Options &options, Report &report)
{
    if (options.serveBin.empty() || options.loadgenBin.empty())
        throw std::runtime_error("serve-closed needs --serve-bin and "
                                 "--loadgen-bin");
    const std::string socket = options.runDir + "/serve.sock";

    // Set-up: start the daemon and warm its trace cache; repeated,
    // keeping the last daemon.
    std::unique_ptr<Daemon> daemon;
    Requests requests;
    std::vector<double> setups;
    for (int k = 0; k < setupRepeats; ++k) {
        if (daemon)
            daemon->stop();
        const auto t0 = Clock::now();
        daemon = std::make_unique<Daemon>(options, socket);
        requests = roundRequests(options);
        warm(socket, requests);
        setups.push_back(secondsSince(t0));
    }
    report.samples["setup_s"] = setups;

    // Timed region: hllc_loadgen rounds. The traced run repeats them
    // with one span per round and takes the serve.* client figures from
    // hllc_loadgen's own report.
    std::vector<Round> rounds;
    const auto run_rounds = [&](Tracer &tracer, const char *name) {
        const std::size_t first = rounds.size();
        const auto budget0 = Clock::now();
        do {
            const double daemon_cpu0 = daemon->cpuSeconds();
            {
                Scope span(tracer, name, 0, rounds.size() + 1);
                rounds.push_back(runLoadgen(options, socket));
            }
            rounds.back().cpu += daemon->cpuSeconds() - daemon_cpu0;
        } while (secondsSince(budget0) < options.seconds);
        return first;
    };
    Tracer off(false);
    run_rounds(off, "serve.round");
    double loadgen_rss = 0.0;
    std::vector<double> walls;
    for (const Round &r : rounds) {
        walls.push_back(r.wall);
        report.samples["wall_s"].push_back(r.wall);
        report.samples["cpu_s"].push_back(r.cpu);
        report.samples["ops_per_s"].push_back(r.replied / r.wall);
        report.samples["latency_p50_ms"].push_back(r.p50Ms);
        report.samples["latency_p99_ms"].push_back(r.p99Ms);
        loadgen_rss = std::max(loadgen_rss, r.peakRssMb);
    }
    report.scalars["peak_rss_mb"] = daemon->peakRssMb() + loadgen_rss;

    Tracer tracer(options.trace);
    const std::size_t traced_first =
        options.trace ? run_rounds(tracer, "serve.round") : rounds.size();
    daemon->stop();

    // Verification, outside the timed region: every reply of every
    // round against the in-process evaluator.
    const auto reference = referenceLines(requests, options.jobs);
    for (const Round &r : rounds) {
        checkRound(r.results, reference, options.perturb, options.jobs,
                   report);
    }

    if (!options.trace)
        return;

    // Client-side figures of the traced rounds. Coverage is the share of
    // the connections' time spent inside a request (send to final
    // reply, the serve.rtt layer); the rest is hllc_loadgen's own work
    // between requests, start-up and connection.
    std::vector<double> traced_walls, rtt;
    double in_request = 0.0, capacity = 0.0, overloads = 0.0;
    for (std::size_t i = traced_first; i < rounds.size(); ++i) {
        const Round &r = rounds[i];
        traced_walls.push_back(r.wall);
        rtt.push_back(r.p50Ms);
        in_request += r.replied * r.meanMs / 1e3;
        capacity += options.jobs * r.wall;
        overloads += r.overloads;
    }
    const Decomposition d = decompose(requests, options.jobs, tracer, report);

    auto &layers = report.layers;
    layers["coverage"] = capacity > 0.0 ? in_request / capacity : 0.0;
    layers["trace_overhead"] = median(traced_walls) / median(walls);
    layers["serve.rtt_ms"] = median(rtt);
    layers["serve.eval_ms"] = median(d.evalMs);
    layers["serve.rig_ms"] = median(d.rigMs);
    layers["serve.replay_ms"] = median(d.replayMs);
    layers["serve.queue_ms"] = median(rtt) - median(d.evalMs);
    layers["serve.codec_us"] = median(d.codecUs);
    layers["serve.overloaded_retries"] = overloads;
    layers["serve.trace_captures"] = static_cast<double>(d.captures);
    layers["capture.s"] = d.captureS;
    layers["capture.events"] = static_cast<double>(d.captureEvents);
    double rig_sum = 0.0;
    for (double ms : d.rigMs)
        rig_sum += ms;
    layers["rig.ms"] =
        d.rigMs.empty() ? 0.0 : rig_sum / static_cast<double>(d.rigMs.size());
    double replay_s = 0.0;
    for (double ms : d.replayMs)
        replay_s += ms / 1e3;
    layers["replay.s"] = replay_s;
    layers["replay.events"] = static_cast<double>(d.counts.events);
    layers["replay.ns_per_event"] =
        d.counts.events == 0
            ? 0.0
            : replay_s * 1e9 / static_cast<double>(d.counts.events);
    d.counts.report(layers);
    d.handle.report(layers);

    tracer.write(spansPath(options));
}

} // namespace perfbench
