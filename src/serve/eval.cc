#include "serve/eval.hh"

#include "check/rig.hh"
#include "common/numfmt.hh"
#include "hierarchy/hierarchy.hh"
#include "replay/replayer.hh"
#include "workload/mixes.hh"

namespace hllc::serve
{

Evaluator::Evaluator(const sim::SystemConfig &config,
                     const EvalLimits &limits)
    : config_(config), limits_(limits)
{
}

std::shared_ptr<const replay::LlcTrace>
Evaluator::cachedTrace(std::uint8_t mix, std::uint64_t refs,
                       std::uint64_t seed)
{
    const TraceKey key{ mix, refs, seed };
    // The mutex is held across the capture on purpose: two shards
    // racing for the same uncached trace would otherwise burn the
    // capture twice, and capture time (not lookup time) dominates.
    MutexLock lock(cacheMutex_);
    const auto it = traceCache_.find(key);
    if (it != traceCache_.end())
        return it->second;

    const workload::MixSpec &spec = workload::tableVMixes()[mix - 1];
    auto trace = std::make_shared<replay::LlcTrace>(
        hierarchy::captureTrace(spec, config_.llcBlocks(),
                                config_.privateCaches, refs, seed,
                                config_.scheme));
    if (cacheOrder_.size() >= limits_.traceCacheEntries) {
        traceCache_.erase(cacheOrder_.front());
        cacheOrder_.pop_front();
    }
    traceCache_.emplace(key, trace);
    cacheOrder_.push_back(key);
    return trace;
}

EvalResult
Evaluator::replayTrace(const replay::LlcTrace &trace,
                       const std::string &policy, std::uint8_t cpth,
                       double warmup_fraction)
{
    const auto kind = policyFromName(policy);
    if (!kind)
        throw IoError("unknown policy '" + policy + "'");

    hybrid::PolicyParams params;
    if (cpth > 0)
        params.fixedCpth = cpth;
    const hybrid::HybridLlcConfig llc_config =
        *kind == hybrid::PolicyKind::SramOnly
            ? config_.llcConfigSramBound(config_.sramWays +
                                         config_.nvmWays)
            : config_.llcConfig(*kind, params);

    // Pristine endurance fabric (capacities never bind): the serving
    // path evaluates policies, not wear trajectories, and a fresh LLC
    // per request is what makes the result a pure function of the
    // request bytes.
    check::FastRig rig = check::makeFastRig(llc_config);
    hybrid::HybridLlc &llc = *rig.llc;
    const replay::TraceReplayer replayer(warmup_fraction);
    const replay::ReplayResult replayed = replayer.replay(trace, llc);

    EvalResult result;
    result.measuredEvents = replayed.measuredEvents;
    result.demandAccesses = replayed.demandAccesses;
    result.demandHits = replayed.demandHits;
    result.nvmBytesWritten = replayed.nvmBytesWritten;
    for (const replay::CoreOutcome &core : replayed.cores)
        result.nvmWrites += core.nvmWrites;
    result.hitRate = replayed.hitRate;
    result.policyName = std::string(llc.policy().name());
    return result;
}

EvalResult
Evaluator::evaluate(const Request &request)
{
    switch (request.type) {
    case RequestType::Replay: {
        const ReplayRequest &r = request.replay;
        if (r.refsPerCore > limits_.maxRefsPerCore) {
            throw IoError("refs_per_core " + formatU64(r.refsPerCore) +
                          " exceeds the server limit of " +
                          formatU64(limits_.maxRefsPerCore));
        }
        const auto trace = cachedTrace(r.mix, r.refsPerCore, r.seed);
        return replayTrace(*trace, r.policy, r.cpth, 0.2);
    }
    case RequestType::Batch: {
        const BatchRequest &b = request.batch;
        if (b.events.size() > limits_.maxBatchEvents) {
            throw IoError("batch of " + formatU64(b.events.size()) +
                          " events exceeds the server limit of " +
                          formatU64(limits_.maxBatchEvents));
        }
        replay::LlcTrace trace;
        trace.reserve(b.events.size());
        for (const hybrid::LlcEvent &event : b.events)
            trace.append(event);
        trace.meta().mixName = "batch";
        // No warm-up: the caller sent exactly the window to measure.
        return replayTrace(trace, b.policy, b.cpth, 0.0);
    }
    case RequestType::Stats:
    case RequestType::Ping:
        break;
    }
    throw IoError("evaluate() called for a non-evaluation request");
}

} // namespace hllc::serve
