#include "sim/config.hh"

#include <cmath>
#include <cstdlib>

#include "common/logging.hh"
#include "common/numfmt.hh"

namespace hllc::sim
{

double
scaleFromEnv()
{
    const char *env = std::getenv("HLLC_SCALE");
    if (env == nullptr || env[0] == '\0')
        return 1.0;
    double raw = 0.0;
    if (!parseDoubleExact(env, raw) || raw <= 0.0) {
        warn("ignoring invalid HLLC_SCALE '%s'", env);
        return 1.0;
    }
    // Snap to a power of two so set counts stay powers of two.
    const double snapped = std::exp2(std::round(std::log2(raw)));
    if (!(snapped >= 0.25 && snapped <= 64.0))
        fatal("HLLC_SCALE '%s' is outside the supported [0.25, 64] range",
              env);
    if (snapped != raw)
        inform("HLLC_SCALE %.3f snapped to %.3f", raw, snapped);
    return snapped;
}

SystemConfig
SystemConfig::tableIV()
{
    return tableIV(scaleFromEnv());
}

SystemConfig
SystemConfig::tableIV(double scale)
{
    HLLC_ASSERT(scale >= 0.25 && scale <= 64.0,
                "HLLC_SCALE %.3f out of the supported [0.25, 64] range",
                scale);

    SystemConfig cfg;
    cfg.scale = scale;
    cfg.llcSets = static_cast<std::uint32_t>(128 * scale);
    cfg.privateCaches.l1Bytes =
        static_cast<std::size_t>(2 * 1024 * scale);
    cfg.privateCaches.l2Bytes =
        static_cast<std::size_t>(8 * 1024 * scale);
    cfg.refsPerCore = static_cast<std::uint64_t>(400'000 * scale);
    cfg.epochCycles = static_cast<Cycle>(200'000 * scale);
    return cfg;
}

hybrid::HybridLlcConfig
SystemConfig::llcConfig(hybrid::PolicyKind policy,
                        hybrid::PolicyParams params) const
{
    hybrid::HybridLlcConfig cfg;
    cfg.numSets = llcSets;
    cfg.policy = policy;
    cfg.params = params;
    cfg.epochCycles = epochCycles;

    if (policy == hybrid::PolicyKind::SramOnly) {
        // SRAM bounds keep the total associativity, all in SRAM.
        cfg.sramWays = sramWays + nvmWays;
        cfg.nvmWays = 0;
    } else {
        cfg.sramWays = sramWays;
        cfg.nvmWays = nvmWays;
    }
    return cfg;
}

hybrid::HybridLlcConfig
SystemConfig::llcConfigSramBound(std::uint32_t ways) const
{
    hybrid::HybridLlcConfig cfg = llcConfig(hybrid::PolicyKind::SramOnly);
    cfg.sramWays = ways;
    cfg.nvmWays = 0;
    return cfg;
}

} // namespace hllc::sim
