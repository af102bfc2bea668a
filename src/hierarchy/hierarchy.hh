/**
 * @file
 * Multi-core simulation driver: four application models behind private
 * L1/L2 stacks, interleaved round-robin in front of a shared LLC sink
 * (a live HybridLlc or a trace recorder).
 */

#ifndef HLLC_HIERARCHY_HIERARCHY_HH
#define HLLC_HIERARCHY_HIERARCHY_HH

#include <memory>
#include <vector>

#include "hierarchy/private_cache.hh"
#include "hierarchy/timing.hh"
#include "replay/llc_trace.hh"
#include "workload/mixes.hh"

namespace hllc::hierarchy
{

class MixSimulation
{
  public:
    /**
     * Instantiate the four applications of @p mix and their private
     * stacks.
     *
     * @param llc_blocks LLC capacity in blocks (working-set scaling)
     * @param seed workload seed (deterministic runs)
     */
    MixSimulation(const workload::MixSpec &mix,
                  std::uint64_t llc_blocks,
                  const PrivateCacheConfig &config,
                  std::uint64_t seed,
                  compression::Scheme scheme =
                      compression::Scheme::Bdi);

    /**
     * Run @p refs_per_core references on every core, round-robin, against
     * @p sink.
     */
    void run(std::uint64_t refs_per_core, LlcSink &sink);

    /** Event counts of core @p i, instructions derived per memIntensity. */
    CoreActivity activityOf(std::size_t i) const;

    /** Fill trace metadata from the accumulated core counters. */
    void exportMeta(replay::TraceMeta &meta) const;

    const workload::MixSpec &mix() const { return mix_; }
    workload::AppModel &app(std::size_t i) { return *apps_.at(i); }
    std::size_t numCores() const { return cores_.size(); }

  private:
    workload::MixSpec mix_;
    PrivateCacheConfig config_;
    std::vector<std::unique_ptr<workload::AppModel>> apps_;
    std::vector<std::unique_ptr<CoreHierarchy>> cores_;
};

/**
 * Convenience: capture the LLC trace of @p mix with @p refs_per_core
 * references per core.
 */
replay::LlcTrace
captureTrace(const workload::MixSpec &mix, std::uint64_t llc_blocks,
             const PrivateCacheConfig &config, std::uint64_t refs_per_core,
             std::uint64_t seed,
             compression::Scheme scheme = compression::Scheme::Bdi);

} // namespace hllc::hierarchy

#endif // HLLC_HIERARCHY_HIERARCHY_HH
