/**
 * @file
 * The private per-core cache stack (L1D + L2) of the simulated CMP
 * (paper Table IV), including the non-inclusive protocol edge towards
 * the LLC.
 *
 * L1 is writeback/write-allocate and inclusive in L2 (L2 evictions
 * back-invalidate L1). Lines track a writable bit standing in for MOESI
 * ownership: a store to a line filled by a read triggers a GetX upgrade
 * towards the LLC, which invalidates its copy (invalidate-on-hit,
 * Sec. III-A). Every L2 eviction is sent to the LLC as a clean or dirty
 * Put, carrying the block's compressed size.
 *
 * The stack never sees an LLC answer: its LLC-bound GetS/GetX/Put
 * events are appended to a replay::LlcTrace, which any LLC
 * configuration replays later (Sec. V-A). The private levels are
 * LLC-independent (Sec. III-A), so the captured stream is the one a
 * live LLC would have received.
 */

#ifndef HLLC_HIERARCHY_PRIVATE_CACHE_HH
#define HLLC_HIERARCHY_PRIVATE_CACHE_HH

#include "cache/set_assoc.hh"
#include "replay/llc_trace.hh"
#include "workload/app_model.hh"

namespace hllc::hierarchy
{

/** Geometry of the private levels (Table IV defaults). */
struct PrivateCacheConfig
{
    std::size_t l1Bytes = 32 * 1024;
    std::uint32_t l1Ways = 4;
    std::size_t l2Bytes = 128 * 1024;
    std::uint32_t l2Ways = 16;
};

class CoreHierarchy
{
  public:
    /**
     * @param app the application bound to this core (owns block contents)
     * @param trace where LLC-bound events are appended; must outlive the
     *        stack
     */
    CoreHierarchy(CoreId core, const PrivateCacheConfig &config,
                  workload::AppModel *app, replay::LlcTrace *trace);

    /**
     * Process one memory reference through L1/L2, appending any GetS,
     * GetX or Put it sends towards the LLC to the trace.
     */
    void access(const workload::MemRef &ref);

    /** @name Counters for the trace metadata */
    ///@{
    std::uint64_t refs() const { return refs_; }
    std::uint64_t l1Hits() const { return l1Hits_; }
    std::uint64_t l2Hits() const { return l2Hits_; }
    std::uint64_t llcDemands() const { return llcDemands_; }
    ///@}

    cache::SetAssocCache &l1() { return l1_; }
    cache::SetAssocCache &l2() { return l2_; }

  private:
    /** Line metadata bit: the copy has write permission (M/E-like). */
    static constexpr std::uint32_t metaWritable = 1u << 0;

    /** Append a GetS or GetX for @p block (an L2 miss or upgrade). */
    void demand(Addr block, bool getx);

    /** Evict handling for an L2 victim: back-invalidate L1, Put to LLC. */
    void handleL2Victim(const cache::Victim &victim);

    CoreId core_;
    workload::AppModel *app_;
    replay::LlcTrace *trace_;
    cache::SetAssocCache l1_;
    cache::SetAssocCache l2_;

    std::uint64_t refs_ = 0;
    std::uint64_t l1Hits_ = 0;
    std::uint64_t l2Hits_ = 0;
    std::uint64_t llcDemands_ = 0;
};

} // namespace hllc::hierarchy

#endif // HLLC_HIERARCHY_PRIVATE_CACHE_HH
