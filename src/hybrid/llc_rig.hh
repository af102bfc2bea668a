/**
 * @file
 * The one place an LLC is assembled: the NVM endurance fabric, the fault
 * map, and the HybridLlc over them.
 *
 * The fault map's disabling granularity is a trait of the insertion
 * policy (Table III): the compression policies keep byte-disabled frames
 * usable for ECBs, the others retire whole frames. The builder reads it
 * from policyTable, so no caller picks it by hand.
 */

#ifndef HLLC_HYBRID_LLC_RIG_HH
#define HLLC_HYBRID_LLC_RIG_HH

#include <cstdint>
#include <memory>

#include "fault/endurance.hh"
#include "fault/fault_map.hh"
#include "hybrid/hybrid_llc.hh"

namespace hllc::hybrid
{

/**
 * An LLC plus the endurance fabric and fault map backing its NVM part.
 * With no NVM ways the fabric and map are null; a rig built over a
 * caller-held fabric leaves `endurance` null.
 */
struct LlcRig
{
    std::unique_ptr<fault::EnduranceModel> endurance;
    std::unique_ptr<fault::FaultMap> map;
    std::unique_ptr<HybridLlc> llc;
};

/**
 * The endurance fabric of @p config's NVM part, drawn from @p params and
 * keyed on master seed @p seed. Same seed and geometry, same fabric: every
 * policy of a run ages an identical fabric (the paper's fair-comparison
 * setup).
 */
fault::EnduranceModel drawFabric(const HybridLlcConfig &config,
                                 const fault::EnduranceParams &params,
                                 std::uint64_t seed);

/** Fabric (drawFabric), fault map and LLC for @p config. */
LlcRig buildLlcRig(const HybridLlcConfig &config,
                   const fault::EnduranceParams &params,
                   std::uint64_t seed);

/**
 * Fault map and LLC over @p fabric, which the caller holds and which must
 * outlive the rig (the forecast engine re-ages one fabric per policy).
 */
LlcRig buildLlcRig(const HybridLlcConfig &config,
                   const fault::EnduranceModel &fabric,
                   fault::WearDistribution wear);

/**
 * A rig over a pristine fabric: write limits far beyond anything a replay
 * can accumulate and zero variability, so frame capacities never bind.
 */
LlcRig buildPristineRig(const HybridLlcConfig &config);

} // namespace hllc::hybrid

#endif // HLLC_HYBRID_LLC_RIG_HH
