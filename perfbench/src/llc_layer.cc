#include "llc_layer.hh"

#include <algorithm>

#include "hierarchy/timing.hh"
#include "replay/replayer.hh"
#include "sim/grid.hh"

namespace perfbench
{

using hllc::hybrid::AccessOutcome;
using hllc::hybrid::HybridLlc;
using hllc::hybrid::LlcEvent;
using hllc::hybrid::LlcEventType;
using hllc::replay::LlcTrace;

void
LlcCounts::add(const HybridLlc &llc)
{
    const hllc::StatGroup &s = llc.stats();
    const auto v = [&](const char *name) { return s.counterValue(name); };
    gets += v("gets");
    getx += v("getx");
    puts += v("puts_clean") + v("puts_dirty");
    hits += v("gets_hits_sram") + v("gets_hits_nvm") + v("getx_hits_sram") +
            v("getx_hits_nvm");
    insertsNvm += v("inserts_nvm");
    insertsSram += v("inserts_sram");
    evictions += v("evictions_nvm") + v("evictions_sram");
    migrations += v("migrations_to_nvm");
    bypasses += v("bypasses");
    nvmFallbackSram += v("insert_nvm_fallback_sram");
    inplaceUpdates += v("inplace_updates");
}

void
LlcCounts::add(const LlcCounts &o)
{
    gets += o.gets;
    getx += o.getx;
    puts += o.puts;
    hits += o.hits;
    insertsNvm += o.insertsNvm;
    insertsSram += o.insertsSram;
    evictions += o.evictions;
    migrations += o.migrations;
    bypasses += o.bypasses;
    nvmFallbackSram += o.nvmFallbackSram;
    inplaceUpdates += o.inplaceUpdates;
    events += o.events;
}

void
LlcCounts::report(std::map<std::string, double> &layers) const
{
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    layers["llc.gets"] = d(gets);
    layers["llc.getx"] = d(getx);
    layers["llc.puts"] = d(puts);
    layers["llc.hits"] = d(hits);
    layers["llc.inserts_nvm"] = d(insertsNvm);
    layers["llc.inserts_sram"] = d(insertsSram);
    layers["llc.evictions"] = d(evictions);
    layers["llc.migrations"] = d(migrations);
    layers["llc.bypasses"] = d(bypasses);
    layers["llc.nvm_fallback_sram"] = d(nvmFallbackSram);
    layers["llc.inplace_updates"] = d(inplaceUpdates);
}

hllc::forecast::PhaseAggregate
replayTraced(const std::vector<const LlcTrace *> &traces, HybridLlc &llc,
             const hllc::hierarchy::TimingParams &timing,
             double warmup_fraction, Tracer &tracer, std::uint64_t parent,
             std::uint64_t op, LlcCounts &counts)
{
    // Mirrors forecast::replayAllTraces statement for statement (same
    // accumulation order), so the aggregate is bit-identical.
    const hllc::replay::TraceReplayer replayer(warmup_fraction);
    const double measured_frac = 1.0 - warmup_fraction;

    hllc::forecast::PhaseAggregate agg;
    double ipc_sum = 0.0;
    std::size_t ipc_count = 0;

    for (const LlcTrace *trace : traces) {
        hllc::replay::ReplayResult res;
        {
            Scope span(tracer, "replay", parent, op);
            res = replayer.replay(*trace, llc);
        }
        counts.add(llc);
        counts.events += trace->size();

        double trace_cycles = 0.0;
        for (std::size_t c = 0; c < hllc::replay::traceCores; ++c) {
            const hllc::replay::CoreMeta &m = trace->meta().cores[c];
            if (m.refs == 0)
                continue;
            hllc::hierarchy::CoreActivity a;
            a.instructions = static_cast<std::uint64_t>(
                static_cast<double>(m.instructions) * measured_frac);
            a.refs = static_cast<std::uint64_t>(
                static_cast<double>(m.refs) * measured_frac);
            a.l1Hits = static_cast<std::uint64_t>(
                static_cast<double>(m.l1Hits) * measured_frac);
            a.l2Hits = static_cast<std::uint64_t>(
                static_cast<double>(m.l2Hits) * measured_frac);
            a.llcHitsSram = res.cores[c].llcHitsSram;
            a.llcHitsNvm = res.cores[c].llcHitsNvm;
            a.llcMisses = res.cores[c].llcMisses;
            a.nvmWrites = res.cores[c].nvmWrites;
            a.baseCpi = m.baseCpi;

            ipc_sum += hllc::hierarchy::coreIpc(a, timing);
            ++ipc_count;
            trace_cycles += hllc::hierarchy::coreCycles(a, timing);
        }
        agg.measuredSeconds += hllc::cyclesToSeconds(static_cast<hllc::Cycle>(
            trace_cycles / static_cast<double>(hllc::replay::traceCores)));

        agg.demandHits += res.demandHits;
        agg.demandAccesses += res.demandAccesses;
        agg.nvmBytesWritten += res.nvmBytesWritten;
    }

    agg.meanIpc =
        ipc_count == 0 ? 0.0 : ipc_sum / static_cast<double>(ipc_count);
    agg.hitRate = agg.demandAccesses == 0
        ? 0.0
        : static_cast<double>(agg.demandHits) /
          static_cast<double>(agg.demandAccesses);
    return agg;
}

void
HandleSamples::report(std::map<std::string, double> &layers) const
{
    static const char *const names[] = { "gets_hit", "gets_miss",
                                         "getx_hit", "getx_miss",
                                         "put_present", "put_insert" };
    for (std::size_t i = 0; i < ns.size(); ++i) {
        layers[std::string("llc.ns.") + names[i]] =
            count[i] == 0 ? 0.0 : ns[i] / static_cast<double>(count[i]);
    }
}

namespace
{

/** Cost of one back-to-back pair of clock reads, in ns (median). */
double
clockPairNs()
{
    static const double cost = [] {
        std::vector<double> v(2001);
        for (double &x : v) {
            const auto a = Clock::now();
            const auto b = Clock::now();
            x = std::chrono::duration<double, std::nano>(b - a).count();
        }
        std::nth_element(v.begin(), v.begin() + 1000, v.end());
        return v[1000];
    }();
    return cost;
}

/** All counters of @p llc, by name. */
std::map<std::string, std::uint64_t>
llcCounters(const HybridLlc &llc)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, c] : llc.stats().counters())
        out[name] = c.value();
    return out;
}

/** One in this many events of the sampled loop is timed. */
constexpr std::size_t sampleStride = 16;

std::map<std::string, std::uint64_t>
sampledReplay(const LlcTrace &trace, HybridLlc &llc, double warmup_fraction,
              HandleSamples &samples)
{
    const double overhead = clockPairNs();
    llc.reset();
    llc.resetStats();
    const auto &events = trace.events();
    const std::size_t warmup_end = static_cast<std::size_t>(
        warmup_fraction * static_cast<double>(events.size()));

    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i == warmup_end)
            llc.resetStats();
        const LlcEvent &ev = events[i];
        if (i % sampleStride != 0) {
            llc.handle(ev);
            continue;
        }
        const bool put = ev.type == LlcEventType::PutClean ||
                         ev.type == LlcEventType::PutDirty;
        const std::uint64_t present_before =
            put ? llc.stats().counterValue("puts_present") : 0;
        const auto t0 = Clock::now();
        const AccessOutcome outcome = llc.handle(ev);
        const auto t1 = Clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count() -
            overhead;

        EventClass cls;
        if (put) {
            cls = llc.stats().counterValue("puts_present") != present_before
                ? EventClass::PutPresent
                : EventClass::PutInsert;
        } else {
            const bool hit = outcome != AccessOutcome::Miss;
            if (ev.type == LlcEventType::GetS)
                cls = hit ? EventClass::GetsHit : EventClass::GetsMiss;
            else
                cls = hit ? EventClass::GetxHit : EventClass::GetxMiss;
        }
        const auto k = static_cast<std::size_t>(cls);
        samples.ns[k] += std::max(0.0, ns);
        ++samples.count[k];
    }
    return llcCounters(llc);
}

} // anonymous namespace

Rig
experimentRig(const hllc::sim::Experiment &experiment,
              const hllc::hybrid::HybridLlcConfig &llc, double capacity,
              Tracer &tracer, std::uint64_t parent, std::uint64_t op)
{
    Scope span(tracer, "rig", parent, op);
    Rig rig;
    rig.endurance = std::make_unique<hllc::fault::EnduranceModel>(
        experiment.makeEndurance(llc));
    const auto policy =
        hllc::hybrid::InsertionPolicy::create(llc.policy, llc.params);
    rig.map = std::make_unique<hllc::fault::FaultMap>(*rig.endurance,
                                                      policy->granularity());
    if (capacity < 1.0) {
        // Same seed as Experiment::runPhase.
        Scope degrade(tracer, "degrade", span.id(), op);
        hllc::sim::degradeUniform(*rig.map, capacity,
                                  experiment.config().seed ^ 0xdeadULL);
    }
    rig.llc = std::make_unique<HybridLlc>(
        llc, llc.nvmWays > 0 ? rig.map.get() : nullptr);
    return rig;
}

bool
sampledMatchesReplayer(const LlcTrace &trace,
                       const std::function<Rig()> &make_rig,
                       double warmup_fraction, HandleSamples &samples)
{
    const Rig reference = make_rig();
    hllc::replay::TraceReplayer(warmup_fraction).replay(trace,
                                                        *reference.llc);
    const Rig sampled = make_rig();
    return sampledReplay(trace, *sampled.llc, warmup_fraction, samples) ==
           llcCounters(*reference.llc);
}

} // namespace perfbench
