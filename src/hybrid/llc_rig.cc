#include "hybrid/llc_rig.hh"

#include "common/rng.hh"

namespace hllc::hybrid
{

namespace
{

fault::NvmGeometry
nvmGeometry(const HybridLlcConfig &config)
{
    return { config.numSets, config.nvmWays,
             static_cast<std::uint32_t>(blockBytes) };
}

/** The one place the fabric seed is keyed on the master seed. */
Xoshiro256StarStar
fabricRng(std::uint64_t seed)
{
    return Xoshiro256StarStar(seed ^ 0xe17da1ceULL);
}

} // namespace

fault::EnduranceModel
drawFabric(const HybridLlcConfig &config,
           const fault::EnduranceParams &params, std::uint64_t seed)
{
    return fault::EnduranceModel(nvmGeometry(config), params,
                                 fabricRng(seed));
}

LlcRig
buildLlcRig(const HybridLlcConfig &config,
            const fault::EnduranceParams &params, std::uint64_t seed)
{
    LlcRig rig;
    if (config.nvmWays > 0) {
        rig.endurance = std::make_unique<fault::EnduranceModel>(
            nvmGeometry(config), params, fabricRng(seed));
        rig.map = std::make_unique<fault::FaultMap>(
            *rig.endurance, granularityOf(config.policy));
    }
    rig.llc = std::make_unique<HybridLlc>(config, rig.map.get());
    return rig;
}

LlcRig
buildLlcRig(const HybridLlcConfig &config,
            const fault::EnduranceModel &fabric,
            fault::WearDistribution wear)
{
    LlcRig rig;
    rig.map = std::make_unique<fault::FaultMap>(
        fabric, granularityOf(config.policy), wear);
    rig.llc = std::make_unique<HybridLlc>(
        config, config.nvmWays > 0 ? rig.map.get() : nullptr);
    return rig;
}

LlcRig
buildPristineRig(const HybridLlcConfig &config)
{
    // cv = 0 draws every limit as exactly meanWrites, so the fabric does
    // not depend on the seed.
    return buildLlcRig(config, fault::EnduranceParams{ 1e15, 0.0 }, 0);
}

} // namespace hllc::hybrid
