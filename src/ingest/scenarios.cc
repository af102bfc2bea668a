#include "ingest/scenarios.hh"

#include <algorithm>
#include <array>
#include <functional>
#include <list>
#include <unordered_map>

#include "common/error.hh"
#include "common/numfmt.hh"
#include "common/rng.hh"
#include "ingest/champsim.hh"
#include "ingest/payload_synth.hh"

namespace hllc::ingest
{

namespace
{

using hybrid::LlcEvent;
using hybrid::LlcEventType;

/**
 * Tiny per-core private-cache filter. The LLC of the paper's
 * non-inclusive hierarchy fills on Put (L2 evictions) and only sees a
 * GetS/GetX when the private levels miss, so a realistic LLC event
 * stream needs exactly this filter in front of the application
 * pattern: hot blocks stay private, warm blocks cycle LLC reuse, cold
 * blocks stream through.
 */
class CoreCache
{
  public:
    explicit CoreCache(std::size_t capacity) : cap_(capacity) {}

    struct Evicted
    {
        Addr block = 0;
        bool dirty = false;
        bool valid = false;
    };

    /**
     * Touch @p block; returns true when the private levels miss (the
     * LLC sees the demand). A capacity victim, if any, lands in
     * @p evicted (the LLC sees the Put).
     */
    bool
    access(Addr block, bool write, Evicted &evicted)
    {
        evicted.valid = false;
        const auto it = map_.find(block);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second.pos);
            it->second.dirty = it->second.dirty || write;
            return false;
        }
        lru_.push_front(block);
        map_[block] = { write, lru_.begin() };
        if (map_.size() > cap_) {
            const Addr victim = lru_.back();
            const auto vit = map_.find(victim);
            evicted = { victim, vit->second.dirty, true };
            lru_.pop_back();
            map_.erase(vit);
        }
        return true;
    }

  private:
    struct Entry
    {
        bool dirty = false;
        std::list<Addr>::iterator pos;
    };

    std::size_t cap_;
    std::list<Addr> lru_;
    std::unordered_map<Addr, Entry> map_;
};

/**
 * Event sink: application touches filtered into LLC events. ECB sizes
 * are left for one PayloadSynth::fillEcbs pass over the finished trace.
 *
 * A family whose per-core working set fits the private filter stops
 * emitting once the filter is warm, so its generator would never reach
 * the target. World gives up after more consecutive silent touches
 * than both the whole target and 2^20: longer than any silent stretch
 * of a family that still emits (phase-shift's loop phase is target/8
 * touches).
 */
class World
{
  public:
    explicit World(const ScenarioOptions &options)
        : target_(options.events),
          silentLimit_(std::max<std::uint64_t>(options.events, 1u << 20))
    {
        // One sixteenth of the targeted LLC capacity of private cache
        // per core: small enough that warm working sets spill to the
        // LLC, big enough to absorb the hottest blocks.
        std::size_t cap = static_cast<std::size_t>(options.numSets) *
                          options.totalWays / 16;
        if (cap < 16)
            cap = 16;
        for (std::size_t c = 0; c < replay::traceCores; ++c)
            l2_.emplace_back(cap);
    }

    bool done() const { return trace_.size() >= target_ || stalled(); }

    /** True once the generator has stopped producing LLC events. */
    bool stalled() const { return silent_ > silentLimit_; }

    /** One application-level access through the private filter. */
    void
    touch(std::uint8_t core, Addr block, bool write)
    {
        CoreCache::Evicted evicted;
        const bool miss = l2_[core].access(block, write, evicted);
        silent_ = miss ? 0 : silent_ + 1; // a victim needs a miss
        if (miss) {
            emit(block, write ? LlcEventType::GetX : LlcEventType::GetS,
                 core);
        }
        if (evicted.valid) {
            emit(evicted.block,
                 evicted.dirty ? LlcEventType::PutDirty
                               : LlcEventType::PutClean,
                 core);
        }
    }

    replay::LlcTrace &&takeTrace() { return std::move(trace_); }

  private:
    void
    emit(Addr block, LlcEventType type, std::uint8_t core)
    {
        if (done())
            return;
        LlcEvent e;
        e.blockNum = block;
        e.type = type;
        e.core = core;
        trace_.append(e);
    }

    std::uint64_t target_;
    std::uint64_t silentLimit_;
    std::uint64_t silent_ = 0; //!< consecutive touches with no event
    replay::LlcTrace trace_;
    std::vector<CoreCache> l2_;
};

/** Capacity in blocks of the cache geometry the options target. */
std::uint64_t
capacityBlocks(const ScenarioOptions &opt)
{
    return static_cast<std::uint64_t>(opt.numSets) * opt.totalWays;
}

/** Per-core address-space base keeping tenants disjoint. */
Addr
coreBase(std::uint8_t core)
{
    return (static_cast<Addr>(core) + 1) << 32;
}

/**
 * One key-value-store access from a skewed key popularity: 80% of
 * operations land on the hottest eighth of @p keys (the classic
 * Zipf-ish server profile), the rest are uniform over the table.
 */
Addr
kvKey(Xoshiro256StarStar &rng, Addr base, std::uint64_t keys)
{
    const std::uint64_t hot = keys / 8 == 0 ? 1 : keys / 8;
    if (rng.nextBounded(10) < 8)
        return base + rng.nextBounded(hot);
    return base + rng.nextBounded(keys);
}

void
genKvServer(const ScenarioOptions &opt, World &world)
{
    Xoshiro256StarStar rng = childStream(opt.seed, 1, 0);
    const std::uint64_t keys = capacityBlocks(opt) / 2 + 64;
    while (!world.done()) {
        const auto core = static_cast<std::uint8_t>(
            rng.nextBounded(replay::traceCores));
        const Addr block = kvKey(rng, coreBase(core), keys);
        world.touch(core, block, rng.nextBounded(10) >= 8);
    }
}

void
genGraphAnalytics(const ScenarioOptions &opt, World &world)
{
    // Pointer chasing over a footprint far past capacity, with a small
    // frontier of recently visited vertices that does get revisited.
    Xoshiro256StarStar rng = childStream(opt.seed, 2, 0);
    const std::uint64_t footprint = capacityBlocks(opt) * 8;
    std::array<Addr, replay::traceCores> node{};
    std::array<std::array<Addr, 64>, replay::traceCores> frontier{};
    std::uint64_t step = 0;
    while (!world.done()) {
        const auto core = static_cast<std::uint8_t>(
            step % replay::traceCores);
        Addr &cur = node[core];
        if (rng.nextBounded(10) < 7)
            cur = mix64(cur + step) % footprint;
        else
            cur = frontier[core][rng.nextBounded(64)] % footprint;
        frontier[core][step % 64] = cur;
        world.touch(core, coreBase(core) + cur,
                    rng.nextBounded(10) == 0);
        ++step;
    }
}

void
genAnalyticsScan(const ScenarioOptions &opt, World &world)
{
    // Streaming column scan: strictly monotone application addresses,
    // so no demand access can ever find its block back in the LLC —
    // the adversarial zero-reuse case for scan-caching policies.
    Xoshiro256StarStar rng = childStream(opt.seed, 3, 0);
    std::array<Addr, replay::traceCores> cursor{};
    while (!world.done()) {
        const auto core = static_cast<std::uint8_t>(
            rng.nextBounded(replay::traceCores));
        world.touch(core, coreBase(core) + cursor[core]++, false);
    }
}

void
genThrash(const ScenarioOptions &opt, World &world)
{
    // The textbook LRU-defeating loop: a cyclic working set twice the
    // targeted capacity, touched strictly in order. The LLC fills on
    // Put, so what matters is the Put-to-reuse distance (working set
    // minus the private-filter capacity); at 2x capacity it exceeds
    // every set's ways and LRU evicts each block just before its next
    // use.
    const std::uint64_t working_set =
        2 * capacityBlocks(opt) + opt.numSets;
    std::uint64_t cursor = 0;
    std::uint64_t step = 0;
    while (!world.done()) {
        const auto core = static_cast<std::uint8_t>(
            step++ % replay::traceCores);
        world.touch(core, cursor, false);
        cursor = (cursor + 1) % working_set;
    }
}

void
genMultiTenant(const ScenarioOptions &opt, World &world)
{
    // Two tenants sharing the LLC: cores 0-1 run the key-value server,
    // cores 2-3 run a streaming scan that tries to flush them out.
    Xoshiro256StarStar rng = childStream(opt.seed, 4, 0);
    const std::uint64_t keys = capacityBlocks(opt) / 4 + 64;
    std::array<Addr, replay::traceCores> cursor{};
    std::uint64_t step = 0;
    while (!world.done()) {
        const auto core = static_cast<std::uint8_t>(
            step++ % replay::traceCores);
        if (core < 2) {
            world.touch(core, kvKey(rng, coreBase(core), keys),
                        rng.nextBounded(5) == 0);
        } else {
            world.touch(core, coreBase(core) + cursor[core]++, false);
        }
    }
}

void
genPhaseShift(const ScenarioOptions &opt, World &world)
{
    // Eight phases alternating a reuse-heavy loop with a streaming
    // sweep: the pattern that punishes policies whose learned state
    // (dueling CPth, reuse predictors) adapts slower than the phase
    // length.
    Xoshiro256StarStar rng = childStream(opt.seed, 5, 0);
    const std::uint64_t phase_len =
        opt.events / 8 == 0 ? 1 : opt.events / 8;
    const std::uint64_t loop_set = capacityBlocks(opt) / 2 + 16;
    std::array<Addr, replay::traceCores> stream{};
    std::uint64_t step = 0;
    while (!world.done()) {
        const auto core = static_cast<std::uint8_t>(
            step % replay::traceCores);
        const std::uint64_t phase = step / phase_len;
        Addr block;
        if (phase % 2 == 0)
            block = coreBase(core) + rng.nextBounded(loop_set);
        else
            block = coreBase(core) + 0x1000000 + stream[core]++;
        world.touch(core, block, rng.nextBounded(10) == 0);
        ++step;
    }
}

void
genEntropyHostile(const ScenarioOptions &opt, World &world)
{
    // High-entropy payloads: every block draws the incompressible
    // class, so compression-aware policies get zero byte-disabling or
    // fit-LRU leverage while reuse still exists to be managed.
    Xoshiro256StarStar rng = childStream(opt.seed, 6, 0);
    const std::uint64_t footprint = capacityBlocks(opt) + 32;
    while (!world.done()) {
        const auto core = static_cast<std::uint8_t>(
            rng.nextBounded(replay::traceCores));
        world.touch(core, coreBase(core) + rng.nextBounded(footprint),
                    rng.nextBounded(4) == 0);
    }
}

} // anonymous namespace

const std::vector<ScenarioInfo> &
scenarioCatalog()
{
    static const std::vector<ScenarioInfo> catalog = {
        { "kv-server",
          "skewed key-value store: hot-key reads, write bursts" },
        { "graph-analytics",
          "pointer chasing over a large graph with a hot frontier" },
        { "analytics-scan",
          "streaming column scan: strictly monotone, zero reuse" },
        { "thrash",
          "cyclic working set at twice capacity: LRU always evicts" },
        { "multi-tenant",
          "key-value tenant sharing the LLC with a streaming tenant" },
        { "phase-shift",
          "alternating loop/stream phases faster than policy learning" },
        { "entropy-hostile",
          "incompressible payloads: no compression leverage at all" },
    };
    return catalog;
}

replay::LlcTrace
generateScenario(const std::string &name, const ScenarioOptions &options)
{
    using Gen = std::function<void(const ScenarioOptions &, World &)>;
    struct Family
    {
        std::string_view name;
        bool forceIncompressible;
        Gen gen;
    };
    static const std::vector<Family> families = {
        { "kv-server", false, genKvServer },
        { "graph-analytics", false, genGraphAnalytics },
        { "analytics-scan", false, genAnalyticsScan },
        { "thrash", false, genThrash },
        { "multi-tenant", false, genMultiTenant },
        { "phase-shift", false, genPhaseShift },
        { "entropy-hostile", true, genEntropyHostile },
    };
    for (const Family &family : families) {
        if (family.name != name)
            continue;
        checkClassFractions(options.hcrFraction, options.lcrFraction);
        World world(options);
        family.gen(options, world);
        if (world.stalled()) {
            throw IoError("scenario '" + name + "' at " +
                          formatU64(options.numSets) + " sets x " +
                          formatU64(options.totalWays) +
                          " ways stopped emitting LLC events: each "
                          "core's working set fits its private cache; "
                          "use a larger --sets/--ways");
        }
        replay::LlcTrace trace = world.takeTrace();
        // entropy-hostile is compression-hostile by definition; the
        // other families honour the requested content mix.
        const bool hostile = family.forceIncompressible;
        PayloadSynth synth(
            workload::ContentMix::fromClassFractions(
                hostile ? 0.0 : options.hcrFraction,
                hostile ? 0.0 : options.lcrFraction),
            options.seed);
        synth.fillEcbs(trace.mutableEvents());
        synthesizeCaptureMeta(trace, name);
        return trace;
    }
    std::string known;
    for (const ScenarioInfo &info : scenarioCatalog()) {
        known += known.empty() ? "" : ", ";
        known += info.name;
    }
    throw IoError("unknown scenario '" + name + "' (families: " + known +
                  ")");
}

} // namespace hllc::ingest
