/**
 * @file
 * Trace capture: four application models behind private L1/L2 stacks,
 * interleaved round-robin, with their LLC-bound stream recorded into an
 * LlcTrace. This is the only way the private stacks run; every LLC
 * configuration is then evaluated by replaying the trace
 * (replay::TraceReplayer), as the paper replays gem5 captures in HyCSim
 * (Sec. V-A).
 */

#ifndef HLLC_HIERARCHY_HIERARCHY_HH
#define HLLC_HIERARCHY_HIERARCHY_HH

#include "hierarchy/private_cache.hh"
#include "replay/llc_trace.hh"
#include "workload/mixes.hh"

namespace hllc::hierarchy
{

/**
 * Capture the LLC trace of @p mix: @p refs_per_core references on every
 * core, round-robin. The metadata carries each core's private-level
 * counts, instructions (derived per memIntensity) and base CPI.
 *
 * @param llc_blocks LLC capacity in blocks (working-set scaling)
 * @param seed workload seed (deterministic runs)
 */
replay::LlcTrace
captureTrace(const workload::MixSpec &mix, std::uint64_t llc_blocks,
             const PrivateCacheConfig &config, std::uint64_t refs_per_core,
             std::uint64_t seed,
             compression::Scheme scheme = compression::Scheme::Bdi);

} // namespace hllc::hierarchy

#endif // HLLC_HIERARCHY_HIERARCHY_HH
