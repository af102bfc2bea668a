#include "hierarchy/hierarchy.hh"

#include <memory>
#include <vector>

namespace hllc::hierarchy
{

replay::LlcTrace
captureTrace(const workload::MixSpec &mix, std::uint64_t llc_blocks,
             const PrivateCacheConfig &config, std::uint64_t refs_per_core,
             std::uint64_t seed, compression::Scheme scheme)
{
    replay::LlcTrace trace;
    const std::vector<std::unique_ptr<workload::AppModel>> apps =
        workload::instantiateMix(mix, llc_blocks, seed, scheme);
    std::vector<std::unique_ptr<CoreHierarchy>> cores;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        cores.push_back(std::make_unique<CoreHierarchy>(
            static_cast<CoreId>(i), config, apps[i].get(), &trace));
    }

    // Round-robin interleave: one reference per core per step, the usual
    // approximation of four cores progressing in parallel.
    for (std::uint64_t r = 0; r < refs_per_core; ++r) {
        for (std::size_t i = 0; i < cores.size(); ++i)
            cores[i]->access(apps[i]->next());
    }

    replay::TraceMeta &meta = trace.meta();
    meta.mixName = mix.name;
    for (std::size_t i = 0; i < cores.size() && i < replay::traceCores;
         ++i) {
        const CoreHierarchy &core = *cores[i];
        const workload::AppProfile &profile = apps[i]->profile();
        replay::CoreMeta &m = meta.cores[i];
        m.instructions = static_cast<std::uint64_t>(
            static_cast<double>(core.refs()) / profile.memIntensity);
        m.refs = core.refs();
        m.l1Hits = core.l1Hits();
        m.l2Hits = core.l2Hits();
        m.llcDemands = core.llcDemands();
        m.baseCpi = profile.baseCpi;
    }
    return trace;
}

} // namespace hllc::hierarchy
