/**
 * @file
 * hllc_torture — seeded kill/corrupt/retry campaign driver.
 *
 * Turns the crash-safety and self-healing machinery into an automated
 * proof: a small fig10-style forecast grid (BH + CP_SD over two Table V
 * mixes at half scale) is run to completion under three campaigns, and
 * the surviving outputs are asserted byte-identical to a fault-free
 * reference run every time:
 *
 *  - chaos:   deterministic failpoint schedules (common/failpoint.hh)
 *             inject faults into checkpoint writes, trace decode and
 *             worker cells; bounded retry + checkpoint resume must
 *             recover every cell;
 *  - kill:    the grid runs in a worker subprocess that is SIGKILLed
 *             at a seeded delay, then respawned with --resume until it
 *             completes (the CI gate runs >= 25 such iterations);
 *  - corrupt: checkpoints and cached traces get seeded byte flips
 *             between runs; CRC rejection must fall back to scratch /
 *             re-capture, never to wrong results.
 *
 * The worker caches its captured traces as .hlt files in the campaign
 * directory (self-healing: a corrupt cache is re-captured), so process
 * respawns skip the capture cost, and writes:
 *
 *  - stats.json    deterministic per-cell results (one line per cell,
 *                  so partial grids can be compared cell-by-cell);
 *  - failures.json the hllc-failures-v1 resilience report.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <cerrno>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common/argparse.hh"
#include "common/failpoint.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "common/numfmt.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "hierarchy/hierarchy.hh"
#include "sim/grid.hh"
#include "workload/mixes.hh"

using namespace hllc;
using hybrid::PolicyKind;

namespace
{

constexpr std::size_t numMixes = 2;

struct TortureConfig
{
    std::string mode = "all";
    std::string dir = "/tmp/hllc_torture";
    std::uint64_t seed = 42;
    std::size_t iterations = 5;
    bool keep = false;
    // worker submode
    bool worker = false;
    std::size_t retries = 0;
    std::string chaos;
};

void
makeDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
        fatal("cannot create '%s': %s", path.c_str(),
              std::strerror(errno));
}

sim::SystemConfig
tortureSystemConfig()
{
    sim::SystemConfig config = sim::SystemConfig::tableIV(0.5);
    config.refsPerCore = 30'000;
    config.jobs = 2;
    return config;
}

std::string
tracePath(const std::string &dir, std::size_t mix)
{
    return dir + "/traces/mix" + formatU64(mix) + ".hlt";
}

/**
 * Load the cached trace of @p mix, re-capturing (and re-caching) when
 * the cache is missing or fails CRC/decode — the self-healing path the
 * corrupt campaign leans on.
 */
replay::LlcTrace
loadOrCaptureTrace(const sim::SystemConfig &config, const std::string &dir,
                   std::size_t mix)
{
    const std::string path = tracePath(dir, mix);
    try {
        return replay::LlcTrace::load(path);
    } catch (const IoError &e) {
        inform("trace cache '%s' unusable (%s); re-capturing",
               path.c_str(), e.what());
    }
    replay::LlcTrace trace = hierarchy::captureTrace(
        workload::tableVMixes()[mix], config.llcBlocks(),
        config.privateCaches, config.refsPerCore,
        childSeed(config.seed, mix), config.scheme);
    trace.save(path);
    return trace;
}

std::vector<sim::StudyEntry>
tortureEntries(const sim::SystemConfig &config)
{
    return {
        { "BH", config.llcConfig(PolicyKind::Bh) },
        { "CP_SD", config.llcConfig(PolicyKind::CpSd) },
    };
}

/** One deterministic per-cell result line (pure simulation outputs). */
std::string
cellLine(const sim::ForecastSummary &summary)
{
    std::string out = "    {\"label\": \"" + summary.label + "\"";
    out += ", \"lifetime_months\": " + formatDouble(summary.lifetimeMonths);
    out += ", \"initial_ipc\": " + formatDouble(summary.initialIpc);
    out += ", \"series\": [";
    for (std::size_t i = 0; i < summary.series.size(); ++i) {
        const auto &p = summary.series[i];
        if (i > 0)
            out += ", ";
        out += "[" + formatDouble(p.time) + ", " +
               formatDouble(p.capacity) + ", " + formatDouble(p.meanIpc) +
               ", " + formatDouble(p.hitRate) + ", " +
               formatDouble(p.nvmBytesPerSecond) + "]";
    }
    out += "]}";
    return out;
}

/**
 * One full grid run in this process: trace cache, checkpointed grid
 * with resilience, stats + failure report. Returns the process exit
 * code (0 ok, 1 failed cells, 128+sig interrupted).
 */
int
runOnce(const std::string &dir, std::size_t retries)
{
    const sim::SystemConfig config = tortureSystemConfig();
    makeDir(dir + "/traces");

    std::vector<replay::LlcTrace> traces;
    traces.reserve(numMixes);
    for (std::size_t mix = 0; mix < numMixes; ++mix)
        traces.push_back(loadOrCaptureTrace(config, dir, mix));
    const sim::Experiment experiment(config, std::move(traces));

    sim::CheckpointOptions checkpoint;
    checkpoint.dir = dir + "/ckpt";
    checkpoint.every = 1;
    checkpoint.resume = true; // a fresh run has no checkpoint to resume

    sim::ResilienceOptions resilience;
    resilience.retry.maxAttempts = retries + 1;
    resilience.retry.baseDelayMs = 5;
    resilience.retry.maxDelayMs = 50;
    resilience.failuresOut = dir + "/failures.json";

    installInterruptHandlers();
    const sim::ForecastGridOutcome outcome =
        sim::runForecastGridCheckpointed(experiment,
                                         tortureEntries(config), {},
                                         checkpoint, resilience);
    if (outcome.interrupted)
        return interruptExitCode();

    // Stats land even when cells were quarantined (partial results
    // degrade gracefully); one line per cell keeps them comparable
    // cell-by-cell. The write itself retries so write-site chaos
    // cannot fail a recovered grid at the last step.
    std::string body = "{\n  \"schema\": \"hllc-torture-stats-v1\",\n";
    body += "  \"cells\": [";
    for (std::size_t i = 0; i < outcome.summaries.size(); ++i) {
        body += i == 0 ? "\n" : ",\n";
        body += cellLine(outcome.summaries[i]);
    }
    body += outcome.summaries.empty() ? "]\n}\n" : "\n  ]\n}\n";
    const sim::CellReport write_result = sim::runWithRetry(
        { 5, 5, 50 }, 0, [&](std::size_t) {
            serial::writeFileAtomic(dir + "/stats.json", body.data(),
                                    body.size());
        });
    if (!write_result.succeeded())
        fatal("cannot write stats: %s", write_result.error.c_str());
    return outcome.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------

std::vector<std::string>
listCheckpointFiles(const std::string &dir)
{
    std::vector<std::string> files;
    const sim::SystemConfig config = tortureSystemConfig();
    const auto entries = tortureEntries(config);
    sim::CheckpointOptions checkpoint;
    checkpoint.dir = dir + "/ckpt";
    for (std::size_t i = 0; i < entries.size(); ++i)
        files.push_back(
            sim::checkpointCellPath(checkpoint, i, entries[i].label));
    return files;
}

void
clearRunState(const std::string &dir)
{
    for (const std::string &path : listCheckpointFiles(dir)) {
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }
    std::remove((dir + "/stats.json").c_str());
    std::remove((dir + "/failures.json").c_str());
}

std::string
readFileOrDie(const std::string &path)
{
    const std::vector<std::uint8_t> bytes = serial::readFileBytes(path);
    return std::string(bytes.begin(), bytes.end());
}

/** The "label" result lines of a stats.json, in file order. */
std::vector<std::string>
statsCellLines(const std::string &body)
{
    std::vector<std::string> lines;
    std::size_t begin = 0;
    while (begin < body.size()) {
        std::size_t end = body.find('\n', begin);
        if (end == std::string::npos)
            end = body.size();
        const std::string line = body.substr(begin, end - begin);
        if (line.find("{\"label\":") != std::string::npos)
            lines.push_back(line);
        begin = end + 1;
    }
    return lines;
}

/**
 * Assert every cell line in @p got matches the line of the same label
 * in @p reference byte-for-byte. Cells absent from @p got (quarantined)
 * are allowed; a label missing from the reference is not.
 */
bool
compareSurvivingCells(const std::string &reference, const std::string &got,
                      const char *what)
{
    const auto ref_lines = statsCellLines(reference);
    for (const std::string &line : statsCellLines(got)) {
        bool matched = false;
        bool label_known = false;
        const std::size_t label_end = line.find('"', line.find(": \"") + 3);
        const std::string label = line.substr(0, label_end + 1);
        for (const std::string &ref : ref_lines) {
            if (ref.compare(0, label.size(), label) != 0)
                continue;
            label_known = true;
            matched = ref == line;
            // Strip a trailing comma difference: the last line of a
            // partial grid has none even when the full grid's does.
            if (!matched) {
                std::string a = ref, b = line;
                if (!a.empty() && a.back() == ',')
                    a.pop_back();
                if (!b.empty() && b.back() == ',')
                    b.pop_back();
                matched = a == b;
            }
            break;
        }
        if (!label_known || !matched) {
            std::fprintf(stderr,
                         "FAIL [%s]: surviving cell diverges from the "
                         "fault-free reference:\n  got: %s\n",
                         what, line.c_str());
            return false;
        }
    }
    return true;
}

/** A deterministic chaos schedule per iteration (seeded rotation). */
std::string
chaosSchedule(std::uint64_t seed, std::size_t iteration)
{
    static const std::vector<std::string> schedules = {
        "grid.cell.throw=nth:1",
        "forecast.checkpoint.save=nth:2",
        "serialize.write.fsync=nth:3",
        "serialize.write.rename=nth:2",
        "serialize.write.corrupt=nth:1",
        "serialize.write.short=nth:4",
        "trace.decode=nth:1",
        "grid.cell.throw=every:2",
        "threadpool.task.stall=every:3",
        "stats.export=nth:1",
    };
    const std::uint64_t pick = mix64(seed ^ (0x9e3779b97f4a7c15ULL *
                                             (iteration + 1)));
    std::string spec = schedules[pick % schedules.size()];
    // Every third iteration stacks a seeded-probability write fault on
    // top, so multi-fault schedules get exercised too.
    if (iteration % 3 == 2) {
        spec += ";serialize.write.fsync=prob:0.1@" +
                formatU64(mix64(seed + iteration));
    }
    return spec;
}

int
chaosCampaign(const TortureConfig &torture, const std::string &reference)
{
    for (std::size_t i = 0; i < torture.iterations; ++i) {
        clearRunState(torture.dir);
        const std::string spec = chaosSchedule(torture.seed, i);
        std::printf("chaos %zu/%zu: %s\n", i + 1, torture.iterations,
                    spec.c_str());
        failpoint::reset();
        failpoint::configure(spec);
        const int rc = runOnce(torture.dir, /*retries=*/4);
        failpoint::reset();
        if (rc != 0 && rc != 1) {
            std::fprintf(stderr, "FAIL [chaos]: run exited %d\n", rc);
            return 1;
        }
        const std::string got =
            readFileOrDie(torture.dir + "/stats.json");
        if (!compareSurvivingCells(reference, got, "chaos"))
            return 1;
        // The failure report must exist and carry the schema marker.
        const std::string report =
            readFileOrDie(torture.dir + "/failures.json");
        if (report.find("hllc-failures-v1") == std::string::npos) {
            std::fprintf(stderr,
                         "FAIL [chaos]: failures.json lacks schema\n");
            return 1;
        }
    }
    return 0;
}

std::string
selfExePath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        fatal("cannot resolve /proc/self/exe: %s", std::strerror(errno));
    buf[n] = '\0';
    return buf;
}

/** Spawn a worker subprocess; returns its pid. */
pid_t
spawnWorker(const std::string &self, const TortureConfig &torture)
{
    // hllc-lint: allow(failpoint-coverage) the torture driver IS the
    // fault injector; killing its own fork() tests nothing.
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        const std::string retries = formatU64(torture.retries);
        const char *argv[] = {
            self.c_str(),    "--worker", "--dir", torture.dir.c_str(),
            "--retries",     retries.c_str(),     nullptr,
        };
        ::execv(self.c_str(), const_cast<char **>(argv));
        // Only reached when exec itself failed.
        std::fprintf(stderr, "execv '%s' failed: %s\n", self.c_str(),
                     std::strerror(errno));
        ::_exit(127);
    }
    return pid;
}

int
waitFor(pid_t pid)
{
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid)
        fatal("waitpid failed: %s", std::strerror(errno));
    return status;
}

void
sleepMs(std::uint64_t ms)
{
    struct timespec ts;
    ts.tv_sec = static_cast<time_t>(ms / 1000);
    ts.tv_nsec = static_cast<long>((ms % 1000) * 1'000'000);
    ::nanosleep(&ts, nullptr);
}

int
killCampaign(const TortureConfig &torture, const std::string &reference)
{
    const std::string self = selfExePath();
    std::size_t killed = 0;
    for (std::size_t i = 0; i < torture.iterations; ++i) {
        clearRunState(torture.dir);
        // Seeded kill delay: sweeps the whole run (capture happens only
        // once per campaign, so most of a worker's life is grid steps).
        const std::uint64_t delay =
            5 + mix64(torture.seed ^ (i * 1000003ULL)) % 400;

        const pid_t victim = spawnWorker(self, torture);
        sleepMs(delay);
        ::kill(victim, SIGKILL);
        const int status = waitFor(victim);
        const bool was_killed =
            WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
        if (was_killed)
            ++killed;

        // Respawn with the checkpoints in place until the grid lands.
        int rc = -1;
        for (int attempt = 0; attempt < 5 && rc != 0; ++attempt) {
            const int resumed = waitFor(spawnWorker(self, torture));
            rc = WIFEXITED(resumed) ? WEXITSTATUS(resumed) : -1;
        }
        if (rc != 0) {
            std::fprintf(stderr,
                         "FAIL [kill]: resume never completed "
                         "(iteration %zu)\n", i + 1);
            return 1;
        }
        const std::string got =
            readFileOrDie(torture.dir + "/stats.json");
        if (got != reference) {
            std::fprintf(stderr,
                         "FAIL [kill]: resumed output differs from the "
                         "fault-free reference (iteration %zu)\n",
                         i + 1);
            return 1;
        }
        std::printf("kill %zu/%zu: %s at %llu ms, resume ok\n", i + 1,
                    torture.iterations,
                    was_killed ? "killed" : "finished",
                    static_cast<unsigned long long>(delay));
    }
    std::printf("kill campaign: %zu/%zu iterations actually killed "
                "mid-run\n", killed, torture.iterations);
    return 0;
}

/** Flip one seeded byte of @p path in place (plain write: simulating
 *  external corruption, not our own I/O discipline). */
void
flipByte(const std::string &path, std::uint64_t seed)
{
    std::vector<std::uint8_t> bytes;
    try {
        bytes = serial::readFileBytes(path);
    } catch (const IoError &) {
        return; // nothing to corrupt (cell finished without this file)
    }
    if (bytes.empty())
        return;
    bytes[mix64(seed) % bytes.size()] ^= 0x40;
    serial::writeFileAtomic(path, bytes.data(), bytes.size());
}

int
corruptCampaign(const TortureConfig &torture, const std::string &reference)
{
    for (std::size_t i = 0; i < torture.iterations; ++i) {
        clearRunState(torture.dir);
        // Stage checkpoints mid-run: run once with an injected failure
        // so checkpoints exist but the grid did not complete cleanly.
        failpoint::reset();
        failpoint::configure("grid.cell.throw=nth:2");
        runOnce(torture.dir, /*retries=*/0);
        failpoint::reset();

        // Corrupt a checkpoint and a cached trace (seeded picks).
        const auto ckpts = listCheckpointFiles(torture.dir);
        const std::uint64_t pick = mix64(torture.seed + i);
        flipByte(ckpts[pick % ckpts.size()], pick);
        flipByte(tracePath(torture.dir, i % numMixes), pick ^ 0xabcdULL);

        // The next run must self-heal: CRC-rejected checkpoints restart
        // from scratch, a bad trace cache is re-captured — and the
        // results still match the fault-free reference exactly.
        const int rc = runOnce(torture.dir, /*retries=*/1);
        if (rc != 0) {
            std::fprintf(stderr,
                         "FAIL [corrupt]: run exited %d (iteration "
                         "%zu)\n", rc, i + 1);
            return 1;
        }
        const std::string got =
            readFileOrDie(torture.dir + "/stats.json");
        if (got != reference) {
            std::fprintf(stderr,
                         "FAIL [corrupt]: output differs from the "
                         "fault-free reference (iteration %zu)\n",
                         i + 1);
            return 1;
        }
        std::printf("corrupt %zu/%zu: self-healed, outputs identical\n",
                    i + 1, torture.iterations);
    }
    return 0;
}

TortureConfig
parseArgs(int argc, char **argv)
{
    TortureConfig torture;
    ArgParser cli(argv[0]);
    cli.add({
        { "--mode", "", "all|chaos|kill|corrupt", "campaigns to run",
          [&](const char *mode) {
              torture.mode = mode;
              return torture.mode == "all" || torture.mode == "chaos" ||
                     torture.mode == "kill" || torture.mode == "corrupt";
          } },
        { "--iterations", "", "1..10000", "iterations per campaign",
          storeNumber(torture.iterations, 1, 10000) },
        { "--seed", "", "S", "campaign seed", storeNumber(torture.seed) },
        { "--dir", "", "D", "campaign directory", storeText(torture.dir) },
        { "--keep", "", nullptr, "keep the campaign directory",
          storeSwitch(torture.keep) },
        { "--worker", "", nullptr, "internal: one grid run (kill mode)",
          storeSwitch(torture.worker) },
        { "--retries", "", "0..100", "worker: retries per cell",
          storeNumber(torture.retries, 0, 100) },
        { "--chaos", "", "SPEC", "worker: failpoint schedule",
          storeText(torture.chaos) },
    });
    cli.parse(argc, argv);
    return torture;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    setLogLevel(LogLevel::Warn);
    const TortureConfig torture = parseArgs(argc, argv);
    makeDir(torture.dir);

    if (torture.worker) {
        if (!torture.chaos.empty())
            failpoint::configure(torture.chaos);
        return runOnce(torture.dir, torture.retries);
    }

    // Fault-free reference: also warms the shared trace cache, so every
    // campaign run after this skips capture.
    clearRunState(torture.dir);
    if (runOnce(torture.dir, 0) != 0)
        fatal("fault-free reference run failed");
    const std::string reference =
        readFileOrDie(torture.dir + "/stats.json");
    std::printf("reference run ok (%zu bytes of stats)\n",
                reference.size());

    int rc = 0;
    if (rc == 0 && (torture.mode == "all" || torture.mode == "chaos"))
        rc = chaosCampaign(torture, reference);
    if (rc == 0 && (torture.mode == "all" || torture.mode == "kill"))
        rc = killCampaign(torture, reference);
    if (rc == 0 && (torture.mode == "all" || torture.mode == "corrupt"))
        rc = corruptCampaign(torture, reference);

    if (rc == 0)
        std::printf("torture: all campaigns passed\n");
    if (!torture.keep && rc == 0) {
        clearRunState(torture.dir);
        for (std::size_t mix = 0; mix < numMixes; ++mix)
            std::remove(tracePath(torture.dir, mix).c_str());
        ::rmdir((torture.dir + "/traces").c_str());
        ::rmdir((torture.dir + "/ckpt").c_str());
        ::rmdir(torture.dir.c_str());
    }
    return rc;
}
