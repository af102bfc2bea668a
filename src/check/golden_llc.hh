/**
 * @file
 * Golden-model shadow LLC for differential validation.
 *
 * A deliberately simple reimplementation of the hybrid LLC's protocol
 * semantics (paper Sec. III/IV): per-set vectors of ways, recency as a
 * plain monotone counter per line, a std::map reuse tracker, linear
 * scans everywhere, no bit tricks, no incremental stats machinery. It
 * replays the same GetS/GetX/Put stream as HybridLlc and must produce
 * the identical decision sequence (hit/miss outcome, victim choice,
 * dirty writebacks, migrations) — any divergence is a bug in one of the
 * two implementations.
 *
 * The golden model deliberately does NOT model fault maps or SRRIP: it
 * covers the degenerate configurations the differential checker drives
 * (compression off, SRAM-only, pristine NVM frames, LRU replacement),
 * where frame-capacity constraints never bind and (Fit-)LRU collapses
 * to plain LRU. Policy steering and the five structural policy traits
 * are re-derived here from the paper's tables (goldenPolicy,
 * goldenChoosePart) rather than read from hybrid::InsertionPolicy, so a
 * steering bug in either copy shows up as a divergence. Set Dueling is
 * the one component still shared with the fast LLC; it is cross-checked
 * by its own unit suite.
 */

#ifndef HLLC_CHECK_GOLDEN_LLC_HH
#define HLLC_CHECK_GOLDEN_LLC_HH

#include <map>
#include <memory>
#include <vector>

#include "check/decision.hh"
#include "hybrid/hybrid_llc.hh"
#include "hybrid/insertion_policy.hh"
#include "hybrid/set_dueling.hh"

namespace hllc::check
{

/**
 * The golden model's own reading of a policy's structure: the Table III
 * traits and the Set Dueling winner rule (Sec. IV-D).
 */
struct GoldenPolicy
{
    bool compressed = false;        //!< NVM stores ECBs (byte disabling)
    bool global = false;            //!< one LRU over every way
    bool migrateReadReuse = false;  //!< read-reused SRAM victims go to NVM
    bool loopBlockSram = false;     //!< LHybrid: free SRAM via loop-block
    bool dueling = false;           //!< Set Dueling selects the CPth
    double thPercent = 0.0;         //!< winner rule Th (CP_SD_Th only)
    double twPercent = 5.0;         //!< winner rule Tw (CP_SD_Th only)
};

/** Traits of @p kind, written straight from paper Table III. */
GoldenPolicy goldenPolicy(hybrid::PolicyKind kind,
                          const hybrid::PolicyParams &params);

/**
 * Part the block of @p ctx enters under @p kind: Table II for the CA_RWR
 * family, Sec. II-C for LHybrid and TAP, Sec. IV-A for CA.
 */
hybrid::Part goldenChoosePart(hybrid::PolicyKind kind,
                              const hybrid::PolicyParams &params,
                              const hybrid::InsertContext &ctx);

/**
 * Fault-injection knobs for mutation-testing the checker itself: a
 * deliberately wrong golden model must make the differential runner
 * report a divergence and the fuzzer shrink it to a tiny reproducer.
 * Production checks always run with every knob off.
 */
struct GoldenOptions
{
    /**
     * Victim selection picks the second-least-recently-used eligible
     * way whenever more than one candidate exists (a classic off-by-one
     * in a recency scan).
     */
    bool buggyLruOffByOne = false;
};

class GoldenLlc
{
  public:
    /**
     * @param config the same configuration handed to the fast LLC;
     *        replacement must be Lru. NVM frames are assumed pristine
     *        (the degenerate configs the golden model covers).
     */
    explicit GoldenLlc(const hybrid::HybridLlcConfig &config,
                       GoldenOptions options = {});

    /**
     * Handle one trace event, appending every structural decision to
     * @p log (when non-null) in the same order the fast LLC's probe
     * emits them.
     */
    hybrid::AccessOutcome handle(const hybrid::LlcEvent &event,
                                 std::vector<DecisionRecord> *log);

    /** @name Introspection for final-state comparison */
    ///@{
    struct WayView
    {
        Addr blockNum = 0;
        bool valid = false;
        bool dirty = false;
        unsigned ecbBytes = 0;
    };
    WayView way(std::uint32_t set, std::uint32_t w) const;
    const hybrid::HybridLlcConfig &config() const { return config_; }
    unsigned cpthForSet(std::uint32_t set) const;
    std::uint64_t demandAccesses() const { return gets_ + getx_; }
    std::uint64_t demandHits() const { return hits_; }
    std::uint64_t nvmBytesWritten() const { return nvmBytes_; }
    std::uint64_t writebacks() const { return writebacks_; }
    ///@}

  private:
    struct Way
    {
        Addr blockNum = 0;
        bool valid = false;
        bool dirty = false;
        unsigned ecbBytes = 0;
        /** Monotone recency stamp; larger = touched more recently. */
        std::uint64_t lastTouch = 0;
    };

    /** Naive reuse bookkeeping (mirrors hybrid::ReuseTracker). */
    struct Reuse
    {
        hybrid::ReuseClass cls = hybrid::ReuseClass::None;
        unsigned hits = 0;
    };

    std::uint32_t setOf(Addr block) const
    {
        return static_cast<std::uint32_t>(block) & (config_.numSets - 1);
    }
    bool isNvmWay(std::uint32_t w) const { return w >= config_.sramWays; }
    unsigned storedSize(std::uint32_t w, unsigned ecb) const;

    hybrid::ReuseClass classOf(Addr block) const;
    unsigned hitsOf(Addr block) const;
    void noteHit(Addr block, bool getx, bool copy_dirty);

    int findWay(std::uint32_t set, Addr block) const;
    /** Invalid-first then LRU victim among ways [begin, end). */
    int victimWay(std::uint32_t set, std::uint32_t begin,
                  std::uint32_t end) const;
    void touch(std::uint32_t set, std::uint32_t w);

    void evictWay(std::uint32_t set, std::uint32_t w,
                  std::vector<DecisionRecord> *log);
    void fill(std::uint32_t set, std::uint32_t w, Addr block, bool dirty,
              unsigned ecb, std::vector<DecisionRecord> *log);
    void migrateToNvm(std::uint32_t set, std::uint32_t w,
                      std::vector<DecisionRecord> *log);
    void insert(Addr block, bool dirty, unsigned ecb,
                std::vector<DecisionRecord> *log);
    void bypass(Addr block, bool dirty, std::vector<DecisionRecord> *log);

    hybrid::AccessOutcome onGetS(Addr block,
                                 std::vector<DecisionRecord> *log);
    hybrid::AccessOutcome onGetX(Addr block,
                                 std::vector<DecisionRecord> *log);
    void onPut(Addr block, bool dirty, unsigned ecb,
               std::vector<DecisionRecord> *log);

    hybrid::HybridLlcConfig config_;
    GoldenOptions options_;
    GoldenPolicy policy_;
    std::unique_ptr<hybrid::SetDueling> dueling_;
    std::vector<std::vector<Way>> sets_;
    std::map<Addr, Reuse> reuse_;
    std::uint64_t clock_ = 0;

    std::uint64_t gets_ = 0;
    std::uint64_t getx_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t nvmBytes_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace hllc::check

#endif // HLLC_CHECK_GOLDEN_LLC_HH
