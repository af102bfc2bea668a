/**
 * @file
 * Full-system assembly: four cores with private stacks, the shared
 * hybrid LLC, its fault/endurance models, and the timing layer — the
 * gem5-analogue "detailed" simulation used by the examples and the
 * library's quickstart API.
 */

#ifndef HLLC_SIM_SYSTEM_HH
#define HLLC_SIM_SYSTEM_HH

#include <memory>

#include "hierarchy/hierarchy.hh"
#include "hierarchy/trace_recorder.hh"
#include "hybrid/llc_rig.hh"
#include "sim/config.hh"
#include "workload/mixes.hh"

namespace hllc::sim
{

class System
{
  public:
    /**
     * @param config scaled Table IV preset
     * @param mix workload (one application per core)
     * @param policy LLC insertion policy under test
     */
    System(const SystemConfig &config, const workload::MixSpec &mix,
           hybrid::PolicyKind policy, hybrid::PolicyParams params = {});

    /** Run @p refs_per_core references per core against the live LLC. */
    void run(std::uint64_t refs_per_core);

    /** Arithmetic mean of the four cores' IPC over the run. */
    double meanIpc() const;

    /** Per-core activity (event counts) of the last run. */
    hierarchy::CoreActivity coreActivity(std::size_t core) const;

    hybrid::HybridLlc &llc() { return *rig_.llc; }
    const hybrid::HybridLlc &llc() const { return *rig_.llc; }
    fault::FaultMap &faultMap() { return *rig_.map; }
    const fault::EnduranceModel &endurance() const
    {
        return *rig_.endurance;
    }
    const SystemConfig &config() const { return config_; }

  private:
    SystemConfig config_;
    hybrid::LlcRig rig_;
    std::unique_ptr<hierarchy::HybridLlcSink> sink_;
    std::unique_ptr<hierarchy::MixSimulation> mixSim_;
};

} // namespace hllc::sim

#endif // HLLC_SIM_SYSTEM_HH
