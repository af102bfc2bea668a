/**
 * @file
 * First-class scenario library: server-class, phase-changing and
 * adversarial workload families emitted as verified .hlt traces.
 *
 * The synthetic Table V mixes reproduce the paper's SPEC blends; this
 * library widens the evaluated space with workloads the policies were
 * not tuned on: key-value/graph/analytics server mixes, multi-tenant
 * and phase-changing interleavings, and adversarial patterns (thrash,
 * streaming scan, compression-hostile payloads) designed to expose
 * pathological insertion behaviour. Every family is a pure function of
 * its options — same seed, byte-identical .hlt — and flows through the
 * same trace+manifest emission path as converted external traces.
 */

#ifndef HLLC_INGEST_SCENARIOS_HH
#define HLLC_INGEST_SCENARIOS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "replay/llc_trace.hh"

namespace hllc::ingest
{

/** One scenario family the library can generate. */
struct ScenarioInfo
{
    std::string_view name;    //!< CLI-facing family name
    std::string_view summary; //!< one-line description
};

/** The closed list of scenario families, in documentation order. */
const std::vector<ScenarioInfo> &scenarioCatalog();

/** Generation knobs shared by every family. */
struct ScenarioOptions
{
    std::uint64_t events = 100'000; //!< LLC events to emit
    std::uint64_t seed = 1;         //!< master seed (determinism key)
    /**
     * Geometry the footprints scale against: adversarial families size
     * their working sets just past numSets * totalWays blocks so they
     * defeat LRU at exactly the targeted cache size.
     */
    std::uint32_t numSets = 128;
    std::uint32_t totalWays = 16;
    double hcrFraction = 0.4;       //!< content mix of payload synthesis
    double lcrFraction = 0.3;
};

/**
 * Generate one trace of family @p name (a scenarioCatalog() entry).
 * Deterministic in @p options; the trace carries synthesized capture
 * metadata and the family name as its mix name. Throws IoError for an
 * unknown family name, for content-class fractions checkClassFractions
 * rejects, and for a geometry so small that the family stops emitting
 * LLC events before it reaches @p options.events.
 */
replay::LlcTrace generateScenario(const std::string &name,
                                  const ScenarioOptions &options);

} // namespace hllc::ingest

#endif // HLLC_INGEST_SCENARIOS_HH
