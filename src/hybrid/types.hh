/**
 * @file
 * Shared vocabulary of the hybrid LLC: parts, events, reuse classes and
 * policy identifiers.
 */

#ifndef HLLC_HYBRID_TYPES_HH
#define HLLC_HYBRID_TYPES_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace hllc::hybrid
{

/** The two technologies a hybrid-LLC way can be built from. */
enum class Part : std::uint8_t { Sram, Nvm };

/**
 * Reuse classification of a block (paper Sec. IV-B): every block starts
 * non-reused when fetched from memory; an LLC hit reclassifies it as
 * read-reused (clean copy) or write-reused (GetX hit / dirty copy).
 * Read-reuse corresponds to LHybrid's loop-blocks.
 */
enum class ReuseClass : std::uint8_t { None, Read, Write };

/** Request types the LLC observes from the private levels (Sec. III-A). */
enum class LlcEventType : std::uint8_t
{
    GetS,       //!< read request from an L2 miss
    GetX,       //!< write-permission request; invalidates on LLC hit
    PutClean,   //!< clean block evicted from L2
    PutDirty    //!< dirty block evicted from L2
};

/** Where a GetS/GetX request was serviced. */
enum class AccessOutcome : std::uint8_t { HitSram, HitNvm, Miss };

/** The insertion policies evaluated in the paper (Table III). */
enum class PolicyKind : std::uint8_t
{
    SramOnly,   //!< performance bound: every way is SRAM
    Bh,         //!< baseline hybrid: NVM-unaware global LRU
    BhCp,       //!< BH + compression + byte disabling (global Fit-LRU)
    Ca,         //!< naive compression-aware (fixed CPth)
    CaRwr,      //!< compression + read/write-reuse aware (fixed CPth)
    CpSd,       //!< CA_RWR + Set Dueling CPth selection
    CpSdTh,     //!< CP_SD + rule-based hits/bytes-written trade-off
    LHybrid,    //!< loop-block-aware state of the art [9]
    Tap         //!< thrashing-aware state of the art [32]
};

/** Printable name of a policy (matches the paper's labels). */
std::string_view policyName(PolicyKind kind);

/** Inverse of policyName(); nullopt for any other string. */
std::optional<PolicyKind> policyFromName(std::string_view name);

/**
 * Parse a comma-separated list of policyName()s ("BH,CP_SD"). nullopt
 * when the list is empty or an entry names no policy; that entry then
 * goes to @p unknown, for the caller's usage error.
 */
std::optional<std::vector<PolicyKind>>
parsePolicyList(std::string_view list, std::string &unknown);

/** One LLC-level request, as recorded in traces and replayed. */
struct LlcEvent
{
    Addr blockNum;          //!< block number (address / 64)
    LlcEventType type;
    std::uint8_t ecbBytes;  //!< compressed (ECB) size of the content
    CoreId core;            //!< requesting core (stats only)
};

} // namespace hllc::hybrid

#endif // HLLC_HYBRID_TYPES_HH
