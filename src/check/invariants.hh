/**
 * @file
 * Structural and accounting invariants of a live HybridLlc.
 *
 * Each checker walks the LLC's introspection surface (LineView, stats
 * counters, fault map) and returns every violated invariant as a
 * human-readable message — an empty vector means the instance is
 * consistent. Property tests call these after driving random streams;
 * the differential runner calls them on both sides before comparing
 * decision streams, so a corrupted tag store is reported as itself
 * rather than as a mysterious divergence later.
 */

#ifndef HLLC_CHECK_INVARIANTS_HH
#define HLLC_CHECK_INVARIANTS_HH

#include <string>
#include <vector>

#include "hybrid/hybrid_llc.hh"

namespace hllc::check
{

/**
 * Tag-store structure: each valid line's block maps to the set holding
 * it, no block is resident twice in a set, ECB sizes are in [2, 64],
 * every valid NVM resident still fits its frame's live capacity, and no
 * resident block also has a reuse-tracker entry (a resident's tag lives
 * in its line).
 */
std::vector<std::string>
checkLlcStructure(const hybrid::HybridLlc &llc);

/**
 * Counter identities that hold after any event stream: hit/miss
 * decompositions sum to the request counts, every GetX hit invalidated
 * a line, byte-attribution buckets sum to the insertion byte traffic,
 * and derived stats (demandHits/demandAccesses/hitRate) agree with the
 * raw counters.
 */
std::vector<std::string>
checkStatsAccounting(const hybrid::HybridLlc &llc);

/**
 * Wear accounting: pending byte-writes recorded in the fault map equal
 * the LLC's nvm_bytes_written counter. Only valid while no age() or
 * discardPending() call has consumed the pending wear and the LLC's
 * stats have not been reset mid-stream — property tests and the
 * differential runner satisfy both.
 */
std::vector<std::string>
checkWearAccounting(const hybrid::HybridLlc &llc);

/** Run every checker above and concatenate the violations. */
std::vector<std::string>
checkAllInvariants(const hybrid::HybridLlc &llc);

} // namespace hllc::check

#endif // HLLC_CHECK_INVARIANTS_HH
