#include "check/trace_fuzz.hh"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "check/oracle.hh"
#include "common/rng.hh"

namespace hllc::check
{

namespace
{

using hybrid::HybridLlcConfig;
using hybrid::LlcEvent;
using hybrid::LlcEventType;
using hybrid::PolicyKind;
using replay::LlcTrace;

/** ECB sizes the BDI table actually produces, plus off-by-one probes. */
constexpr unsigned kBoundaryEcbs[] = { 2,  3,  9,  16, 23, 29, 30, 31,
                                       34, 37, 38, 44, 51, 57, 58, 59,
                                       63, 64 };

LlcEventType
randomType(Xoshiro256StarStar &rng)
{
    const double p = rng.nextDouble();
    if (p < 0.40)
        return LlcEventType::GetS;
    if (p < 0.55)
        return LlcEventType::GetX;
    if (p < 0.75)
        return LlcEventType::PutClean;
    return LlcEventType::PutDirty;
}

std::uint8_t
randomEcb(Xoshiro256StarStar &rng)
{
    if (rng.nextBool(0.7)) {
        return static_cast<std::uint8_t>(
            kBoundaryEcbs[rng.nextBounded(std::size(kBoundaryEcbs))]);
    }
    return static_cast<std::uint8_t>(2 + rng.nextBounded(63));
}

LlcTrace
traceWithMeta(std::vector<LlcEvent> events, const replay::TraceMeta &meta)
{
    LlcTrace trace;
    trace.meta() = meta;
    trace.reserve(events.size());
    for (const LlcEvent &ev : events)
        trace.append(ev);
    return trace;
}

} // anonymous namespace

LlcTrace
makeTrace(std::vector<LlcEvent> events, const std::string &mix_name)
{
    replay::TraceMeta meta;
    meta.mixName = mix_name;
    return traceWithMeta(std::move(events), meta);
}

LlcTrace
generateTrace(std::uint64_t seed, std::size_t events,
              std::uint32_t num_sets)
{
    Xoshiro256StarStar rng(seed);
    // A working set a few times the cache keeps every set conflicting
    // without degenerating into an all-miss stream.
    const std::uint64_t working_set =
        static_cast<std::uint64_t>(num_sets) * 16 * 3;

    std::vector<LlcEvent> out;
    out.reserve(events);
    std::array<std::uint64_t, replay::traceCores> demands{};
    for (std::size_t i = 0; i < events; ++i) {
        LlcEvent ev{};
        ev.blockNum = rng.nextBool(0.01)
            ? rng.next()  // occasional full-width tag
            : rng.nextBounded(working_set);
        ev.type = randomType(rng);
        ev.ecbBytes = randomEcb(rng);
        ev.core = static_cast<CoreId>(rng.nextBounded(4));
        if (ev.type == LlcEventType::GetS ||
            ev.type == LlcEventType::GetX) {
            ++demands[ev.core];
        }
        out.push_back(ev);
    }

    LlcTrace trace = makeTrace(std::move(out));
    // Plausible per-core activity, so the timing model (and with it the
    // forecast loop the resume diff drives) sees real elapsed time
    // behind this stream instead of a zero-length window.
    for (std::size_t c = 0; c < replay::traceCores; ++c) {
        replay::CoreMeta &m = trace.meta().cores[c];
        m.llcDemands = demands[c];
        m.l2Hits = demands[c] * 3;
        m.l1Hits = demands[c] * 40;
        m.refs = m.l1Hits + m.l2Hits + demands[c];
        m.instructions = m.refs * 4;
    }
    return trace;
}

LlcTrace
mutateTrace(const LlcTrace &trace, std::uint64_t seed)
{
    Xoshiro256StarStar rng(seed);
    std::vector<LlcEvent> events = trace.events();
    if (events.empty())
        return traceWithMeta(std::move(events), trace.meta());

    const std::size_t edits = 1 + rng.nextBounded(8);
    for (std::size_t e = 0; e < edits; ++e) {
        const std::size_t i = rng.nextBounded(events.size());
        switch (rng.nextBounded(7)) {
          case 0: // type flip
            events[i].type = randomType(rng);
            break;
          case 1: // duplicate (Put-after-Put, Get-after-Get patterns)
            events.insert(events.begin() +
                              static_cast<std::ptrdiff_t>(
                                  rng.nextBounded(events.size() + 1)),
                          events[i]);
            break;
          case 2: // delete
            if (events.size() > 1)
                events.erase(events.begin() +
                             static_cast<std::ptrdiff_t>(i));
            break;
          case 3: { // swap (reorder a use/insert pair)
            const std::size_t j = rng.nextBounded(events.size());
            std::swap(events[i], events[j]);
            break;
          }
          case 4: // alias one block onto another (forces conflicts)
            events[i].blockNum =
                events[rng.nextBounded(events.size())].blockNum;
            break;
          case 5: // ECB boundary value
            events[i].ecbBytes = randomEcb(rng);
            break;
          default: // fold onto a hot set (32-alias mask)
            events[i].blockNum =
                (events[i].blockNum & ~Addr{31}) | rng.nextBounded(32);
            break;
        }
    }
    return traceWithMeta(std::move(events), trace.meta());
}

LlcTrace
shrinkTrace(const LlcTrace &trace, const FailPredicate &fails)
{
    std::vector<LlcEvent> current = trace.events();
    const replay::TraceMeta meta = trace.meta();

    // Classic ddmin over the event sequence: try dropping each of n
    // chunks; on success restart coarse, otherwise refine until chunks
    // are single events. Terminates 1-minimal.
    std::size_t n = 2;
    while (current.size() >= 2) {
        const std::size_t chunk = (current.size() + n - 1) / n;
        bool reduced = false;
        for (std::size_t start = 0; start < current.size();
             start += chunk) {
            std::vector<LlcEvent> candidate;
            candidate.reserve(current.size());
            candidate.insert(candidate.end(), current.begin(),
                             current.begin() +
                                 static_cast<std::ptrdiff_t>(start));
            const std::size_t stop =
                std::min(start + chunk, current.size());
            candidate.insert(candidate.end(),
                             current.begin() +
                                 static_cast<std::ptrdiff_t>(stop),
                             current.end());
            if (candidate.empty())
                continue;
            if (fails(traceWithMeta(candidate, meta))) {
                current = std::move(candidate);
                n = n > 2 ? n - 1 : 2;
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (n >= current.size())
                break;
            n = std::min(current.size(), n * 2);
        }
    }
    return traceWithMeta(std::move(current), meta);
}

FuzzReport
fuzz(const FuzzConfig &config, GoldenOptions golden)
{
    // Every policy is fair game: choosePart is shared with the golden
    // model, but each one routes through different cache mechanics
    // (global replacement, migration, dueling).
    static constexpr PolicyKind kPolicies[] = {
        PolicyKind::Bh,     PolicyKind::BhCp,    PolicyKind::Ca,
        PolicyKind::CaRwr,  PolicyKind::CpSd,    PolicyKind::CpSdTh,
        PolicyKind::LHybrid, PolicyKind::Tap,    PolicyKind::SramOnly,
    };
    static constexpr DegenerateMode kModes[] = {
        DegenerateMode::Pristine, DegenerateMode::CompressionOff,
        DegenerateMode::SramOnly,
    };

    const auto llcConfigFor = [&](PolicyKind policy) {
        HybridLlcConfig llc;
        llc.numSets = config.numSets;
        llc.sramWays = config.sramWays;
        llc.nvmWays = config.nvmWays;
        llc.policy = policy;
        // Short epochs so dueling actually flips CPth within a round.
        llc.epochCycles = 20'000;
        return llc;
    };

    const auto start = std::chrono::steady_clock::now();
    const auto expired = [&] {
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        return elapsed.count() >= config.budgetSeconds;
    };

    FuzzReport report;
    LlcTrace previous;
    for (std::size_t iter = 0;; ++iter) {
        if (expired() ||
            (config.maxIterations != 0 && iter >= config.maxIterations)) {
            break;
        }
        report.iterations = iter + 1;

        const std::uint64_t tseed = childSeed(config.seed, iter);
        LlcTrace trace =
            (iter % 3 != 0 && previous.size() > 0)
                ? mutateTrace(previous, tseed)
                : generateTrace(tseed, config.eventsPerTrace,
                                config.numSets);
        previous = trace;

        for (PolicyKind policy : kPolicies) {
            const HybridLlcConfig llc = llcConfigFor(policy);
            for (DegenerateMode mode : kModes) {
                ++report.tracesReplayed;
                const GoldenDiffResult diff =
                    diffGolden(trace, llc, mode, golden);
                if (diff.ok())
                    continue;

                const FailPredicate still_fails =
                    [&](const LlcTrace &t) {
                        return !diffGolden(t, llc, mode, golden).ok();
                    };
                FuzzFailure failure;
                failure.originalEvents = trace.size();
                failure.reproducer = shrinkTrace(trace, still_fails);
                failure.description =
                    diffGolden(failure.reproducer, llc, mode, golden)
                        .divergence->description;
                failure.config = llc;
                failure.mode = mode;
                failure.iteration = iter;
                report.failure = std::move(failure);
                return report;
            }
            if (expired())
                break;
        }

        // Periodic cross-cutting passes: determinism and the OPT bound.
        if (!expired() && iter % 5 == 0) {
            const HybridLlcConfig llc = llcConfigFor(PolicyKind::CpSd);
            if (auto why = diffRerun(trace, llc)) {
                FuzzFailure failure;
                failure.originalEvents = trace.size();
                failure.reproducer = shrinkTrace(
                    trace, [&](const LlcTrace &t) {
                        return diffRerun(t, llc).has_value();
                    });
                failure.description = *diffRerun(failure.reproducer, llc);
                failure.config = llc;
                failure.iteration = iter;
                report.failure = std::move(failure);
                return report;
            }
        }
        if (!expired() && iter % 7 == 0) {
            const HybridLlcConfig llc = llcConfigFor(PolicyKind::CpSd);
            if (auto why = checkPolicyAgainstOracle(trace, llc)) {
                FuzzFailure failure;
                failure.originalEvents = trace.size();
                failure.reproducer = shrinkTrace(
                    trace, [&](const LlcTrace &t) {
                        return checkPolicyAgainstOracle(t, llc)
                            .has_value();
                    });
                failure.description =
                    *checkPolicyAgainstOracle(failure.reproducer, llc);
                failure.config = llc;
                failure.iteration = iter;
                report.failure = std::move(failure);
                return report;
            }
        }
    }
    return report;
}

} // namespace hllc::check
