#include "common/failpoint.hh"

#include <atomic>
#include <cstdlib>
#include <map>

#include "common/logging.hh"
#include "common/numfmt.hh"
#include "common/rng.hh"
#include "common/sync.hh"
#include "common/thread_annotations.hh"

namespace hllc::failpoint
{

namespace
{

/** Keep at most this many fired events (a runaway every:1 campaign
 *  must not grow the log without bound). */
constexpr std::size_t maxFiredLog = 4096;

enum class Trigger
{
    Off,
    Nth,   //!< fire exactly once, on hit index == n
    Every, //!< fire whenever hit index % n == 0
    Prob,  //!< fire when the seeded per-hit draw falls below p
};

struct PointState
{
    Trigger trigger = Trigger::Off;
    std::uint64_t n = 0;   //!< Nth / Every operand
    double p = 0.0;        //!< Prob operand
    std::uint64_t seed = 0;
    std::uint64_t hits = 0;
};

struct Registry
{
    Mutex mutex;
    std::map<std::string, PointState> points HLLC_GUARDED_BY(mutex);
    std::vector<FiredEvent> fired HLLC_GUARDED_BY(mutex);
    std::size_t firedDropped HLLC_GUARDED_BY(mutex) = 0;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

/**
 * Count of active failpoints: the fast-path gate. Relaxed is enough —
 * a site racing a concurrent configure() may miss the very first hits,
 * which chaos schedules must tolerate anyway (configuration is meant
 * to happen before the run starts).
 */
std::atomic<std::size_t> activeCount{ 0 };

std::atomic<bool> envApplied{ false };

/** FNV-1a over the failpoint name: the per-point salt of prob draws. */
std::uint64_t
nameHash(const std::string &name)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : name) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** The deterministic per-hit Bernoulli draw of prob triggers. */
bool
probFires(const PointState &state, const std::string &name,
          std::uint64_t hit)
{
    const std::uint64_t bits =
        mix64(state.seed ^ mix64(nameHash(name)) ^ hit);
    // Same uniform-double construction as Xoshiro256StarStar: top 53
    // bits over 2^53.
    const double draw =
        static_cast<double>(bits >> 11) * 0x1.0p-53;
    return draw < state.p;
}

bool
isCatalogName(const std::string &name)
{
    for (const std::string &known : allFailpoints()) {
        if (known == name)
            return true;
    }
    return false;
}

/** Parse a u64 field of a trigger spec; throws IoError on junk. */
std::uint64_t
parseCount(const std::string &text, const std::string &entry)
{
    if (text.empty())
        throw IoError("failpoint spec '" + entry + "': missing count");
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            throw IoError("failpoint spec '" + entry +
                          "': bad count '" + text + "'");
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (value == 0)
        throw IoError("failpoint spec '" + entry +
                      "': count must be >= 1");
    return value;
}

/** Parse one "name=trigger" entry into (name, state). */
std::pair<std::string, PointState>
parseEntry(const std::string &entry)
{
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0)
        throw IoError("failpoint spec '" + entry +
                      "': expected <name>=<trigger>");
    const std::string name = entry.substr(0, eq);
    if (!isCatalogName(name))
        throw IoError("unknown failpoint '" + name +
                      "' (see failpoint::allFailpoints())");
    const std::string trigger = entry.substr(eq + 1);

    PointState state;
    if (trigger == "off")
        return { name, state };
    if (trigger.rfind("nth:", 0) == 0) {
        state.trigger = Trigger::Nth;
        state.n = parseCount(trigger.substr(4), entry);
        return { name, state };
    }
    if (trigger.rfind("every:", 0) == 0) {
        state.trigger = Trigger::Every;
        state.n = parseCount(trigger.substr(6), entry);
        return { name, state };
    }
    if (trigger.rfind("prob:", 0) == 0) {
        const std::string rest = trigger.substr(5);
        const std::size_t at = rest.find('@');
        if (at == std::string::npos)
            throw IoError("failpoint spec '" + entry +
                          "': prob needs '<P>@<seed>'");
        double p = 0.0;
        if (!parseDoubleExact(rest.substr(0, at), p) || p < 0.0 ||
            p > 1.0) {
            throw IoError("failpoint spec '" + entry +
                          "': probability must be in [0, 1]");
        }
        state.trigger = Trigger::Prob;
        state.p = p;
        state.seed = parseCount(rest.substr(at + 1), entry);
        return { name, state };
    }
    throw IoError("failpoint spec '" + entry + "': unknown trigger '" +
                  trigger + "' (nth:N, every:K, prob:P@S, off)");
}

} // anonymous namespace

const std::vector<std::string> &
allFailpoints()
{
    // The closed catalog: every HLLC_FAILPOINT()/shouldFail() site in
    // the tree, in the order DESIGN.md §12 documents them. A site added
    // without a catalog entry can never be activated; a catalog entry
    // without a site is caught by the failpoint-sweep test.
    static const std::vector<std::string> names = {
        "serialize.write.open",    // writeFileAtomic: open of <path>.tmp
        "serialize.write.short",   // writeFileAtomic: truncated fwrite
        "serialize.write.fsync",   // writeFileAtomic: data fsync
        "serialize.write.rename",  // writeFileAtomic: rename into place
        "serialize.write.dirsync", // writeFileAtomic: parent-dir fsync
        "serialize.write.corrupt", // writeFileAtomic: payload bit flip
        "serialize.read",          // readFileBytes: whole-file read
        "trace.decode",            // LlcTrace::load: .hlt decode
        "forecast.checkpoint.save", // ForecastEngine::saveCheckpoint
        "forecast.checkpoint.load", // ForecastEngine::loadCheckpoint
        "threadpool.task.throw",   // runJobs job: injected throw
        "threadpool.task.stall",   // runJobs job: injected stall
        "grid.cell.throw",         // forecast grid cell body: throw
        "grid.cell.stall",         // forecast grid cell body: stall
        "stats.export",            // metrics::writeStatsFile
        "serve.accept",            // serve::Server: drop a fresh accept
        "serve.decode",            // serve::Server: force a frame-decode
                                   //   failure (error reply path)
        "serve.dispatch",          // serve::Server: force an OVERLOADED
                                   //   reply instead of enqueueing
        "serve.reply",             // serve::Server: fail the reply write
                                   //   (connection counted dead)
        "ingest.open",             // ingest::openByteSource: fail the
                                   //   trace-file open / decompressor
                                   //   spawn
        "ingest.decode",           // ingest::convertChampSim: fail the
                                   //   record-stream decode
        "ingest.write",            // ingest::writeTraceWithManifest:
                                   //   fail before the .hlt write
    };
    return names;
}

bool
shouldFail(const char *name)
{
    if (!envApplied.load(std::memory_order_acquire))
        configureFromEnv();
    if (activeCount.load(std::memory_order_relaxed) == 0)
        return false;

    Registry &reg = registry();
    MutexLock lock(reg.mutex);
    const auto it = reg.points.find(name);
    if (it == reg.points.end())
        return false;
    PointState &state = it->second;
    if (state.trigger == Trigger::Off)
        return false;
    const std::uint64_t hit = ++state.hits;

    bool fires = false;
    switch (state.trigger) {
    case Trigger::Nth:
        fires = hit == state.n;
        break;
    case Trigger::Every:
        fires = hit % state.n == 0;
        break;
    case Trigger::Prob:
        fires = probFires(state, it->first, hit);
        break;
    case Trigger::Off:
        break;
    }
    if (fires) {
        if (reg.fired.size() < maxFiredLog)
            reg.fired.push_back({ it->first, hit });
        else
            ++reg.firedDropped;
    }
    return fires;
}

void
configure(const std::string &spec)
{
    // Parse everything first so a bad entry leaves the previous
    // configuration fully intact.
    std::vector<std::pair<std::string, PointState>> parsed;
    std::size_t begin = 0;
    while (begin <= spec.size()) {
        std::size_t end = spec.find(';', begin);
        if (end == std::string::npos)
            end = spec.size();
        const std::string entry = spec.substr(begin, end - begin);
        begin = end + 1;
        if (entry.empty())
            continue;
        parsed.push_back(parseEntry(entry));
    }
    if (parsed.empty())
        return;

    Registry &reg = registry();
    MutexLock lock(reg.mutex);
    for (auto &[name, state] : parsed)
        reg.points[name] = state;
    std::size_t active = 0;
    for (const auto &[name, state] : reg.points) {
        if (state.trigger != Trigger::Off)
            ++active;
    }
    activeCount.store(active, std::memory_order_relaxed);
}

void
configureFromEnv()
{
    // First caller applies the environment; later calls (and the lazy
    // check in shouldFail) are no-ops.
    bool expected = false;
    if (!envApplied.compare_exchange_strong(expected, true,
                                            std::memory_order_acq_rel))
        return;
    if (const char *env = std::getenv("HLLC_FAILPOINTS")) {
        try {
            configure(env);
        } catch (const IoError &e) {
            // The first shouldFail() evaluation can sit under any call
            // stack (worker threads included): a malformed spec thrown
            // from there would terminate instead of diagnosing. A bad
            // HLLC_FAILPOINTS is a CLI configuration error, so fail it
            // like one.
            fatal("bad HLLC_FAILPOINTS: %s", e.what());
        }
    }
}

void
reset()
{
    Registry &reg = registry();
    MutexLock lock(reg.mutex);
    reg.points.clear();
    reg.fired.clear();
    reg.firedDropped = 0;
    activeCount.store(0, std::memory_order_relaxed);
    // Keep envApplied set: reset() means "no chaos", not "re-read the
    // environment" — tests that call reset() must stay clean even when
    // the harness itself runs under HLLC_FAILPOINTS.
    envApplied.store(true, std::memory_order_release);
}

std::vector<FiredEvent>
drainFired()
{
    Registry &reg = registry();
    MutexLock lock(reg.mutex);
    std::vector<FiredEvent> out = std::move(reg.fired);
    reg.fired.clear();
    reg.firedDropped = 0;
    return out;
}

} // namespace hllc::failpoint
