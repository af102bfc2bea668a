/**
 * @file
 * Pure request evaluation for the serving daemon.
 *
 * Every evaluation is a deterministic function of the request bytes:
 * Replay requests capture (once, cached) the seeded Table V mix trace
 * and replay it against a fresh LLC; Batch requests wrap the inline
 * events into a trace and replay them the same way. No wall clock, no
 * shared mutable simulation state — which is what lets the daemon shard
 * requests freely while keeping per-request results byte-identical
 * across runs.
 *
 * Thread safety: evaluate() may be called concurrently from every
 * shard; only the trace cache is shared, behind a mutex.
 */

#ifndef HLLC_SERVE_EVAL_HH
#define HLLC_SERVE_EVAL_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>

#include "common/sync.hh"
#include "common/thread_annotations.hh"
#include "replay/llc_trace.hh"
#include "serve/protocol.hh"
#include "sim/config.hh"

namespace hllc::serve
{

/** Server-side evaluation bounds (violations get an error reply). */
struct EvalLimits
{
    std::uint64_t maxRefsPerCore = 100'000;
    std::uint32_t maxBatchEvents = 65'536;
    /** Distinct cached (mix, refs, seed) traces kept alive. */
    std::size_t traceCacheEntries = 16;
};

/** Resolve a wire policy name; nullopt for unknown names. */
using hybrid::policyFromName;

class Evaluator
{
  public:
    Evaluator(const sim::SystemConfig &config, const EvalLimits &limits);

    /**
     * Evaluate a Replay or Batch request. Throws IoError with a
     * client-presentable message on limit or argument violations (the
     * server turns it into an Error reply).
     */
    EvalResult evaluate(const Request &request);

    const EvalLimits &limits() const { return limits_; }

  private:
    using TraceKey = std::tuple<std::uint8_t, std::uint64_t,
                                std::uint64_t>;

    std::shared_ptr<const replay::LlcTrace>
    cachedTrace(std::uint8_t mix, std::uint64_t refs, std::uint64_t seed);

    EvalResult replayTrace(const replay::LlcTrace &trace,
                           const std::string &policy, std::uint8_t cpth,
                           double warmup_fraction);

    sim::SystemConfig config_;
    EvalLimits limits_;

    Mutex cacheMutex_;
    std::map<TraceKey, std::shared_ptr<const replay::LlcTrace>>
        traceCache_ HLLC_GUARDED_BY(cacheMutex_);
    /** Insertion order; the oldest entry is evicted at the bound. */
    std::deque<TraceKey> cacheOrder_ HLLC_GUARDED_BY(cacheMutex_);
};

} // namespace hllc::serve

#endif // HLLC_SERVE_EVAL_HH
