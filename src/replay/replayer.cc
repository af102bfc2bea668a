#include "replay/replayer.hh"

#include "common/logging.hh"

namespace hllc::replay
{

using hybrid::AccessOutcome;
using hybrid::LlcEvent;
using hybrid::LlcEventType;

TraceReplayer::TraceReplayer(double warmup_fraction)
    : warmupFraction_(warmup_fraction)
{
    HLLC_ASSERT(warmup_fraction >= 0.0 && warmup_fraction < 1.0);
}

void
addTally(ReplayResult &result, const SetTally &tally)
{
    for (std::size_t c = 0; c < traceCores; ++c) {
        const CoreOutcome &from = tally.cores[c];
        CoreOutcome &to = result.cores[c];
        to.llcHitsSram += from.llcHitsSram;
        to.llcHitsNvm += from.llcHitsNvm;
        to.llcMisses += from.llcMisses;
        to.nvmWrites += from.nvmWrites;
        const std::uint64_t hits = from.llcHitsSram + from.llcHitsNvm;
        result.demandHits += hits;
        result.demandAccesses += hits + from.llcMisses;
    }
    result.measuredEvents += tally.measuredEvents;
    result.nvmBytesWritten += tally.nvmBytesWritten;
    // Same expression as HybridLlc::hitRate(), so the bits match.
    result.hitRate = result.demandAccesses == 0
        ? 0.0
        : static_cast<double>(result.demandHits) /
          static_cast<double>(result.demandAccesses);
}

ReplayResult
TraceReplayer::replay(const LlcTrace &trace, hybrid::HybridLlc &llc,
                      const IntervalCallback &on_interval,
                      std::size_t num_intervals, SetFilter *sets) const
{
    llc.reset();
    llc.resetStats();

    ReplayResult result;
    result.warmupFraction = warmupFraction_;

    if (sets != nullptr) {
        const std::uint32_t num_sets = llc.config().numSets;
        HLLC_ASSERT(llc.dueling() == nullptr,
                    "a set-filtered replay needs an LLC without Set "
                    "Dueling");
        HLLC_ASSERT(sets->replaySet.size() == num_sets,
                    "set filter covers %zu sets, the LLC has %u",
                    sets->replaySet.size(), num_sets);
        sets->tallies.resize(num_sets);
        for (std::uint32_t s = 0; s < num_sets; ++s) {
            if (sets->replaySet[s])
                sets->tallies[s] = SetTally{};
        }
    }

    const auto &events = trace.events();
    const std::size_t warmup_end = static_cast<std::size_t>(
        warmupFraction_ * static_cast<double>(events.size()));

    // Interval boundaries split the measured window into equal event
    // ranges (the final boundary is exactly the last measured event, so
    // the last snapshot carries the replay totals).
    const std::size_t measured = events.size() - warmup_end;
    const bool sampling =
        on_interval && num_intervals > 0 && measured > 0;
    std::size_t next_interval = 0;
    const auto boundary = [&](std::size_t k) {
        return warmup_end + ((k + 1) * measured) / num_intervals;
    };

    // LLC write counters as of the last measured Put: a Put's growth is
    // attributed to its core (and, when filtering, to its set).
    std::uint64_t nvm_writes_seen = 0;
    std::uint64_t nvm_bytes_seen = 0;

    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i == warmup_end) {
            // Keep contents (that is the point of the warm-up) but drop
            // the statistics accumulated so far. This fires even when
            // the filter skips event i.
            llc.resetStats();
            nvm_writes_seen = 0;
            nvm_bytes_seen = 0;
        }

        const LlcEvent &ev = events[i];
        SetTally *tally = nullptr;
        if (sets != nullptr) {
            const std::uint32_t set = llc.setOf(ev.blockNum);
            if (!sets->replaySet[set])
                continue;
            tally = &sets->tallies[set];
        }

        const AccessOutcome outcome = llc.handle(ev);

        if (i < warmup_end)
            continue;

        ++result.measuredEvents;
        const std::size_t c = ev.core % traceCores;
        CoreOutcome &core = result.cores[c];
        const auto count = [&](std::uint64_t CoreOutcome::*field,
                               std::uint64_t n) {
            core.*field += n;
            if (tally != nullptr)
                tally->cores[c].*field += n;
        };
        if (tally != nullptr)
            ++tally->measuredEvents;

        if (ev.type == LlcEventType::GetS ||
            ev.type == LlcEventType::GetX) {
            // Per-core and per-set write attribution rely on this.
            HLLC_ASSERT(llc.nvmWrites() == nvm_writes_seen,
                        "NVM write outside a Put event");
            switch (outcome) {
              case AccessOutcome::HitSram:
                count(&CoreOutcome::llcHitsSram, 1);
                break;
              case AccessOutcome::HitNvm:
                count(&CoreOutcome::llcHitsNvm, 1);
                break;
              case AccessOutcome::Miss:
                count(&CoreOutcome::llcMisses, 1);
                break;
            }
        } else {
            // Attribute NVM write growth to the core issuing the Put.
            const std::uint64_t writes = llc.nvmWrites();
            count(&CoreOutcome::nvmWrites, writes - nvm_writes_seen);
            nvm_writes_seen = writes;
            if (tally != nullptr) {
                const std::uint64_t bytes = llc.nvmBytesWritten();
                tally->nvmBytesWritten += bytes - nvm_bytes_seen;
                nvm_bytes_seen = bytes;
            }
        }

        // With more intervals than events several boundaries coincide;
        // the loop emits every one of them (as empty intervals).
        while (sampling && next_interval < num_intervals &&
               i + 1 == boundary(next_interval)) {
            IntervalSnapshot snap;
            snap.interval = next_interval;
            snap.measuredEvents = result.measuredEvents;
            snap.demandAccesses = llc.demandAccesses();
            snap.demandHits = llc.demandHits();
            snap.nvmWrites = llc.nvmWrites();
            snap.nvmBytesWritten = llc.nvmBytesWritten();
            on_interval(snap);
            ++next_interval;
        }
    }

    result.demandAccesses = llc.demandAccesses();
    result.demandHits = llc.demandHits();
    result.hitRate = llc.hitRate();
    result.nvmBytesWritten = llc.nvmBytesWritten();
    return result;
}

} // namespace hllc::replay
