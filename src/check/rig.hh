/**
 * @file
 * Shared test-rig construction for the check subsystem: a fast
 * HybridLlc over a pristine endurance fabric (hybrid::buildPristineRig),
 * so frame capacities never bind and the degenerate-config assumptions
 * of the golden model and oracle hold.
 */

#ifndef HLLC_CHECK_RIG_HH
#define HLLC_CHECK_RIG_HH

#include "hybrid/llc_rig.hh"

namespace hllc::check
{

/** A fast LLC plus the pristine endurance fabric backing its NVM part. */
using FastRig = hybrid::LlcRig;

inline FastRig
makeFastRig(const hybrid::HybridLlcConfig &config)
{
    return hybrid::buildPristineRig(config);
}

} // namespace hllc::check

#endif // HLLC_CHECK_RIG_HH
