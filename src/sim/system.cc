#include "sim/system.hh"

#include "common/logging.hh"

namespace hllc::sim
{

System::System(const SystemConfig &config, const workload::MixSpec &mix,
               hybrid::PolicyKind policy, hybrid::PolicyParams params)
    : config_(config),
      rig_(hybrid::buildLlcRig(config.llcConfig(policy, params),
                               config.endurance, config.seed))
{
    sink_ = std::make_unique<hierarchy::HybridLlcSink>(rig_.llc.get());
    mixSim_ = std::make_unique<hierarchy::MixSimulation>(
        mix, config.llcBlocks(), config.privateCaches, config.seed);
}

void
System::run(std::uint64_t refs_per_core)
{
    mixSim_->run(refs_per_core, *sink_);
}

hierarchy::CoreActivity
System::coreActivity(std::size_t core) const
{
    hierarchy::CoreActivity a = mixSim_->activityOf(core);
    // NVM write stalls are charged evenly: the LLC does not track the
    // writing core in detailed mode.
    a.nvmWrites = rig_.llc->stats().counterValue("nvm_writes") /
                  mixSim_->numCores();
    return a;
}

double
System::meanIpc() const
{
    double sum = 0.0;
    for (std::size_t c = 0; c < mixSim_->numCores(); ++c)
        sum += hierarchy::coreIpc(coreActivity(c), config_.timing);
    return sum / static_cast<double>(mixSim_->numCores());
}

} // namespace hllc::sim
