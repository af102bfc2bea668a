/**
 * @file
 * The insertion policies of the hybrid LLC as one table plus one switch.
 *
 * The paper's nine policies (Table III) differ only in five structural
 * traits the LLC must enable — compression + byte disabling vs. raw
 * frames + frame disabling, global vs. per-part replacement,
 * SRAM-eviction migration, LHybrid's loop-block-aware SRAM replacement,
 * and Set Dueling — and in the rule that steers each incoming block to a
 * part (Table II for the CA_RWR family, Sec. II-C for LHybrid/TAP).
 * policyTable holds the traits, indexed by PolicyKind; InsertionPolicy
 * pairs a kind with its tunables and answers choosePart() with one
 * inline switch, so the LLC's per-access path reads plain bools and
 * never makes a virtual call.
 */

#ifndef HLLC_HYBRID_INSERTION_POLICY_HH
#define HLLC_HYBRID_INSERTION_POLICY_HH

#include <array>
#include <cstddef>
#include <memory>
#include <string_view>

#include "fault/fault_map.hh"
#include "hybrid/types.hh"

namespace hllc::hybrid
{

/** Everything a policy may consult when steering one incoming block. */
struct InsertContext
{
    Addr blockNum;      //!< block being inserted
    bool dirty;         //!< Put-dirty vs Put-clean
    unsigned ecbBytes;  //!< compressed (ECB) size of the contents
    ReuseClass reuse;   //!< current reuse classification
    unsigned hits;      //!< LLC hits since last memory fetch (TAP)
    std::uint32_t set;  //!< target set
    unsigned cpth;      //!< compression threshold in force for this set
};

/** Tunables of the policies that have any. */
struct PolicyParams
{
    unsigned fixedCpth = 58;    //!< CA / CA_RWR compression threshold
    unsigned tapThreshold = 2;  //!< hits needed to become thrashing (TAP)
    double thPercent = 4.0;     //!< CP_SD_Th: Th (max hits sacrificed, %)
    double twPercent = 5.0;     //!< CP_SD_Th: Tw (min write reduction, %)
};

/** One row of the policy table: the paper label and its Table III traits. */
struct PolicyTraits
{
    PolicyKind kind;
    std::string_view name;  //!< paper label, e.g. "CP_SD"
    /** Blocks are stored compressed in NVM (byte disabling). */
    bool usesCompression;
    /**
     * NVM-unaware policies (SRAM, BH, BH_CP) pick the victim with a
     * single (Fit-)LRU over all ways instead of steering to a part.
     */
    bool globalReplacement;
    /**
     * CA_RWR family: an SRAM victim that has shown read reuse migrates
     * into the NVM part instead of being dropped (Sec. IV-B).
     */
    bool migrateReadReuseOnSramEviction;
    /**
     * LHybrid: on SRAM replacement the MRU loop-block (if any) migrates
     * to NVM to free its frame (Sec. II-C).
     */
    bool lhybridSramReplacement;
    /** CP_SD family: Set Dueling picks the CPth at runtime (Sec. IV-C). */
    bool usesSetDueling;
};

/** Every policy, indexed by PolicyKind. */
inline constexpr std::array<PolicyTraits, 9> policyTable{ {
    // kind                name        compr  global migrate lhyb   duel
    { PolicyKind::SramOnly, "SRAM",     false, true,  false, false, false },
    { PolicyKind::Bh,       "BH",       false, true,  false, false, false },
    { PolicyKind::BhCp,     "BH_CP",    true,  true,  false, false, false },
    { PolicyKind::Ca,       "CA",       true,  false, false, false, false },
    { PolicyKind::CaRwr,    "CA_RWR",   true,  false, true,  false, false },
    { PolicyKind::CpSd,     "CP_SD",    true,  false, true,  false, true },
    { PolicyKind::CpSdTh,   "CP_SD_Th", true,  false, true,  false, true },
    { PolicyKind::LHybrid,  "LHybrid",  false, false, false, true,  false },
    { PolicyKind::Tap,      "TAP",      false, false, false, false, false },
} };

static_assert([] {
    for (std::size_t i = 0; i < policyTable.size(); ++i) {
        if (static_cast<std::size_t>(policyTable[i].kind) != i)
            return false;
    }
    return true;
}(), "policyTable rows must be in PolicyKind order");

/**
 * Disabling granularity the NVM part of a @p kind LLC must be configured
 * with: byte disabling keeps partly worn frames usable for ECBs, so only
 * the compression policies use it.
 */
constexpr fault::DisableGranularity
granularityOf(PolicyKind kind)
{
    return policyTable[static_cast<std::size_t>(kind)].usesCompression
        ? fault::DisableGranularity::Byte
        : fault::DisableGranularity::Frame;
}

/** A policy kind bound to its tunables: what the LLC steers with. */
class InsertionPolicy final
{
  public:
    explicit InsertionPolicy(PolicyKind kind,
                             const PolicyParams &params = {});

    /** Heap-allocated policy, for callers that hold one by pointer. */
    static std::unique_ptr<InsertionPolicy>
    create(PolicyKind kind, const PolicyParams &params = {})
    {
        return std::make_unique<InsertionPolicy>(kind, params);
    }

    PolicyKind kind() const { return traits_.kind; }
    /** Paper label, e.g. "CP_SD". */
    std::string_view name() const { return traits_.name; }

    bool usesCompression() const { return traits_.usesCompression; }
    bool globalReplacement() const { return traits_.globalReplacement; }
    bool
    migrateReadReuseOnSramEviction() const
    {
        return traits_.migrateReadReuseOnSramEviction;
    }
    bool
    lhybridSramReplacement() const
    {
        return traits_.lhybridSramReplacement;
    }
    bool usesSetDueling() const { return traits_.usesSetDueling; }

    /** Disabling granularity the NVM part must be configured with. */
    fault::DisableGranularity
    granularity() const
    {
        return granularityOf(kind());
    }

    /**
     * Th of the Set Dueling winner rule (Sec. IV-D). Plain CP_SD duels
     * for maximum hits (Th = 0) whatever the params say.
     */
    double
    thPercent() const
    {
        return kind() == PolicyKind::CpSdTh ? params_.thPercent : 0.0;
    }

    /** Tw of the Set Dueling winner rule (5% unless CP_SD_Th). */
    double
    twPercent() const
    {
        return kind() == PolicyKind::CpSdTh ? params_.twPercent : 5.0;
    }

    /** Steer the incoming block of @p ctx to a part. */
    Part
    choosePart(const InsertContext &ctx) const
    {
        switch (kind()) {
          case PolicyKind::SramOnly:
          case PolicyKind::Bh:
          case PolicyKind::BhCp:
            // Global replacement: the victim search decides where the
            // block lands; this is only a tie-break default.
            return Part::Sram;
          case PolicyKind::Ca:
            // ctx.cpth is this set's threshold: the fixed value for CA,
            // the dueling-selected one for the CP_SD family.
            return ctx.ecbBytes <= ctx.cpth ? Part::Nvm : Part::Sram;
          case PolicyKind::CaRwr:
          case PolicyKind::CpSd:
          case PolicyKind::CpSdTh:
            // Paper Table II: read-reused blocks are long-lived NVM
            // residents, write-reused ones will be rewritten soon.
            if (ctx.reuse == ReuseClass::Read)
                return Part::Nvm;
            if (ctx.reuse == ReuseClass::Write)
                return Part::Sram;
            return ctx.ecbBytes <= ctx.cpth ? Part::Nvm : Part::Sram;
          case PolicyKind::LHybrid:
            // Loop-blocks (clean, read-reused) only; a dirty Put can
            // never be a loop-block.
            return !ctx.dirty && ctx.reuse == ReuseClass::Read
                ? Part::Nvm
                : Part::Sram;
          case PolicyKind::Tap:
            // Clean thrashing-blocks: reuse beyond the threshold.
            return !ctx.dirty && ctx.reuse != ReuseClass::Write &&
                    ctx.hits >= params_.tapThreshold
                ? Part::Nvm
                : Part::Sram;
        }
        return Part::Sram;
    }

  private:
    PolicyTraits traits_;
    PolicyParams params_;
};

} // namespace hllc::hybrid

#endif // HLLC_HYBRID_INSERTION_POLICY_HH
