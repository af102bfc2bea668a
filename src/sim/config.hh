/**
 * @file
 * System configuration presets (paper Table IV) with proportional
 * scaling.
 *
 * Experiments run at a configurable scale so the full bench suite
 * completes on a single laptop core: geometry (LLC sets, private cache
 * sizes), trace length and Set Dueling epoch all scale together, keeping
 * capacity ratios and pressure identical. scale = 16 reproduces the
 * paper's absolute geometry (2 MB LLC, 128 KB L2, 32 KB L1). The scale is
 * read from the HLLC_SCALE environment variable (default 1, snapped to a
 * power of two).
 */

#ifndef HLLC_SIM_CONFIG_HH
#define HLLC_SIM_CONFIG_HH

#include <cstdint>

#include "compression/compressor.hh"
#include "fault/endurance.hh"
#include "hierarchy/private_cache.hh"
#include "hierarchy/timing.hh"
#include "hybrid/hybrid_llc.hh"

namespace hllc::sim
{

struct SystemConfig
{
    double scale = 1.0;

    /** @name LLC geometry (Table IV: 16 ways = 4 SRAM + 12 NVM) */
    ///@{
    std::uint32_t llcSets = 128;
    std::uint32_t sramWays = 4;
    std::uint32_t nvmWays = 12;
    ///@}

    hierarchy::PrivateCacheConfig privateCaches{ 2 * 1024, 4,
                                                 8 * 1024, 16 };
    hierarchy::TimingParams timing;
    fault::EnduranceParams endurance{ 1e10, 0.2 };

    /** References per core used to capture each mix's trace. */
    std::uint64_t refsPerCore = 400'000;
    /** Set Dueling epoch length (scales with the trace). */
    Cycle epochCycles = 200'000;
    /** Master seed (workloads and endurance fabric). */
    std::uint64_t seed = 42;
    /**
     * Worker threads for trace capture and experiment grids: 0 = auto
     * (HLLC_JOBS environment variable, else hardware_concurrency); 1 =
     * serial. Results are identical for every value (see sim/grid.hh).
     */
    unsigned jobs = 0;
    /** Compression scheme (the paper uses modified BDI). */
    compression::Scheme scheme = compression::Scheme::Bdi;

    /**
     * Months-at-full-scale per simulated month: the scaled system is a
     * 1/N miniature with the same cores and write traffic, so its NVM
     * wears N times faster than the paper-scale (scale = 16) geometry.
     * Multiply forecast months by this to report full-scale lifetimes.
     */
    double fullScaleFactor() const { return 16.0 / scale; }

    /** Table IV preset at the scale given by HLLC_SCALE. */
    static SystemConfig tableIV();

    /** Table IV preset at an explicit scale. */
    static SystemConfig tableIV(double scale);

    /** LLC capacity in blocks (resolves workload working-set factors). */
    std::uint64_t llcBlocks() const
    {
        return static_cast<std::uint64_t>(llcSets) *
               (sramWays + nvmWays);
    }

    /** Build the LLC configuration for @p policy. */
    hybrid::HybridLlcConfig
    llcConfig(hybrid::PolicyKind policy,
              hybrid::PolicyParams params = {}) const;

    /**
     * All-SRAM LLC with @p ways ways: the paper's performance bounds
     * (16w upper bound; 4w lower bound, as if every NVM way had died).
     */
    hybrid::HybridLlcConfig llcConfigSramBound(std::uint32_t ways) const;
};

/**
 * HLLC_SCALE from the environment (default 1.0), snapped to 2^k. An
 * unparsable value warns and gives 1.0; a value that snaps outside
 * [0.25, 64] is fatal().
 */
double scaleFromEnv();

} // namespace hllc::sim

#endif // HLLC_SIM_CONFIG_HH
