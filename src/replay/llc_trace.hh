/**
 * @file
 * LLC-level trace container.
 *
 * Because the private L1/L2 levels behave independently of the LLC's
 * contents in the non-inclusive hierarchy (Sec. III-A), the stream of
 * GetS/GetX/Put events the LLC observes is policy-independent: it can be
 * captured once per workload mix and replayed against any number of LLC
 * configurations. This is the same decomposition the paper uses (the
 * HyCSim fast trace-driven simulator [16] for exploration, gem5 for
 * capture-grade detail).
 */

#ifndef HLLC_REPLAY_LLC_TRACE_HH
#define HLLC_REPLAY_LLC_TRACE_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hybrid/types.hh"

namespace hllc::replay
{

/** Number of cores the trace format carries. */
inline constexpr std::size_t traceCores = 4;

/**
 * Throw hllc::IoError "<where>: bad <field> <value>". Out of line so
 * checkedEvent() stays small enough to inline into decode loops.
 */
[[noreturn]] void throwBadEventField(const std::string &where,
                                     const char *field, unsigned value);

/**
 * One LLC event from its raw encoded fields, checked against what the
 * LLC accepts from any input: a known event type, an ECB size in
 * [2, 64] (no encoding compresses a block below 2 bytes) and a core
 * below traceCores. The .hlt loaders and the hllc-req-v1 decoder share
 * it, so an event that decodes can never abort a replay. @p where names
 * the input (file or protocol) in the error.
 */
inline hybrid::LlcEvent
checkedEvent(Addr block, std::uint8_t type, std::uint8_t ecb,
             std::uint8_t core, const std::string &where)
{
    if (type > static_cast<std::uint8_t>(hybrid::LlcEventType::PutDirty))
        throwBadEventField(where, "event type", type);
    if (ecb < 2 || ecb > blockBytes)
        throwBadEventField(where, "ECB size", ecb);
    if (core >= traceCores)
        throwBadEventField(where, "core", core);
    return { block, static_cast<hybrid::LlcEventType>(type), ecb, core };
}

/** Per-core capture statistics needed to rebuild timing during replay. */
struct CoreMeta
{
    std::uint64_t instructions = 0;
    std::uint64_t refs = 0;        //!< memory references issued
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;      //!< serviced by the private L2
    std::uint64_t llcDemands = 0;  //!< GetS + GetX sent to the LLC
    double baseCpi = 0.4;          //!< non-memory CPI of the app model
};

/** Capture-wide metadata. */
struct TraceMeta
{
    std::array<CoreMeta, traceCores> cores;
    std::string mixName;
};

class LlcTrace
{
  public:
    void append(const hybrid::LlcEvent &event) { events_.push_back(event); }

    const std::vector<hybrid::LlcEvent> &events() const { return events_; }
    /** In-place access for batch fills of a field (e.g. ECB sizes). */
    std::span<hybrid::LlcEvent> mutableEvents() { return events_; }
    std::size_t size() const { return events_.size(); }

    TraceMeta &meta() { return meta_; }
    const TraceMeta &meta() const { return meta_; }

    void reserve(std::size_t n) { events_.reserve(n); }

    /**
     * Serialise to a binary .hlt file. Writes the v2 format: a
     * CRC32-checksummed chunked container (common/serialize.hh),
     * persisted atomically (temp file + fsync + rename). Throws
     * hllc::IoError on I/O failure.
     */
    void save(const std::string &path) const;

    /**
     * Load a trace written by save(). Reads both the current v2
     * container format and legacy v1 raw-struct files; every declared
     * length is validated against the actual file size before any
     * allocation. Throws hllc::IoError on corruption, truncation or
     * unsupported version — library code never kills the process.
     */
    static LlcTrace load(const std::string &path);

  private:
    std::vector<hybrid::LlcEvent> events_;
    TraceMeta meta_;
};

} // namespace hllc::replay

#endif // HLLC_REPLAY_LLC_TRACE_HH
