#include "check/oracle.hh"

#include <limits>
#include <sstream>
#include <unordered_map>

#include "check/rig.hh"
#include "common/logging.hh"

namespace hllc::check
{

namespace
{

using hybrid::LlcEvent;
using hybrid::LlcEventType;

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

bool
isDemand(LlcEventType type)
{
    return type == LlcEventType::GetS || type == LlcEventType::GetX;
}

} // anonymous namespace

OracleHits
beladyHits(const replay::LlcTrace &trace, std::uint32_t num_sets,
           std::uint32_t ways_per_set)
{
    HLLC_ASSERT(num_sets > 0 && (num_sets & (num_sets - 1)) == 0,
                "num_sets must be a power of two");
    HLLC_ASSERT(ways_per_set > 0);

    const auto events = trace.events();

    // Backward pass: next demand use of each event's block after it.
    std::vector<std::uint64_t> next_demand(events.size(), kNever);
    {
        std::unordered_map<Addr, std::uint64_t> next;
        for (std::size_t i = events.size(); i-- > 0;) {
            const auto it = next.find(events[i].blockNum);
            next_demand[i] = it == next.end() ? kNever : it->second;
            if (isDemand(events[i].type))
                next[events[i].blockNum] = i;
        }
    }

    // Forward pass: greedy furthest-next-use with bypass. Each resident
    // maps to the index of its next demand use (refreshed whenever an
    // event touches it, so entries never point into the past).
    OracleHits hits;
    hits.perSet.assign(num_sets, 0);
    std::vector<std::unordered_map<Addr, std::uint64_t>> sets(num_sets);

    for (std::size_t i = 0; i < events.size(); ++i) {
        const LlcEvent ev = events[i];
        const std::uint32_t s =
            static_cast<std::uint32_t>(ev.blockNum) & (num_sets - 1);
        auto &res = sets[s];
        const auto it = res.find(ev.blockNum);

        if (isDemand(ev.type)) {
            if (it == res.end())
                continue; // miss: block bypasses the LLC on refill
            ++hits.perSet[s];
            ++hits.total;
            if (ev.type == LlcEventType::GetX)
                res.erase(it); // invalidate-on-hit
            else
                it->second = next_demand[i];
            continue;
        }

        // Put: refresh a resident copy, or insert with OPT replacement.
        if (it != res.end()) {
            it->second = next_demand[i];
            continue;
        }
        if (res.size() < ways_per_set) {
            res.emplace(ev.blockNum, next_demand[i]);
            continue;
        }
        auto victim = res.begin();
        for (auto r = res.begin(); r != res.end(); ++r) {
            if (r->second > victim->second ||
                (r->second == victim->second && r->first < victim->first)) {
                victim = r;
            }
        }
        if (next_demand[i] >= victim->second)
            continue; // incoming is the furthest (or never) used: bypass
        res.erase(victim);
        res.emplace(ev.blockNum, next_demand[i]);
    }

    return hits;
}

std::optional<std::string>
checkPolicyAgainstOracle(const replay::LlcTrace &trace,
                         const hybrid::HybridLlcConfig &config)
{
    const OracleHits oracle =
        beladyHits(trace, config.numSets, config.totalWays());

    FastRig rig = makeFastRig(config);
    std::vector<std::uint64_t> policy_hits(config.numSets, 0);
    for (const LlcEvent &ev : trace.events()) {
        const hybrid::AccessOutcome outcome = rig.llc->handle(ev);
        if (isDemand(ev.type) && outcome != hybrid::AccessOutcome::Miss)
            ++policy_hits[rig.llc->setOf(ev.blockNum)];
    }

    for (std::uint32_t s = 0; s < config.numSets; ++s) {
        if (policy_hits[s] > oracle.perSet[s]) {
            std::ostringstream out;
            out << "set " << s << ": policy "
                << std::string(rig.llc->policy().name()) << " scored "
                << policy_hits[s] << " hits, Belady/OPT bound is "
                << oracle.perSet[s];
            return out.str();
        }
    }
    return std::nullopt;
}

} // namespace hllc::check
