#include "check/invariants.hh"

#include <map>
#include <sstream>

namespace hllc::check
{

namespace
{

using hybrid::HybridLlc;

void
violation(std::vector<std::string> &out, const std::ostringstream &what)
{
    out.push_back(what.str());
}

/** counter equality helper: "lhs (a) != rhs (b)" on mismatch. */
void
expectEqual(std::vector<std::string> &out, std::uint64_t a, std::uint64_t b,
            const char *what)
{
    if (a != b) {
        std::ostringstream s;
        s << what << ": " << a << " != " << b;
        violation(out, s);
    }
}

} // anonymous namespace

std::vector<std::string>
checkLlcStructure(const HybridLlc &llc)
{
    std::vector<std::string> out;
    const hybrid::HybridLlcConfig &cfg = llc.config();
    const bool compressed = llc.policy().usesCompression();

    for (std::uint32_t set = 0; set < cfg.numSets; ++set) {
        std::map<Addr, std::uint32_t> residents;
        for (std::uint32_t w = 0; w < cfg.totalWays(); ++w) {
            const HybridLlc::LineView l = llc.lineView(set, w);
            if (!l.valid)
                continue;

            if (llc.setOf(l.blockNum) != set) {
                std::ostringstream s;
                s << "block 0x" << std::hex << l.blockNum << std::dec
                  << " resident in set " << set << " way " << w
                  << " but maps to set " << llc.setOf(l.blockNum);
                violation(out, s);
            }
            if (l.ecbBytes < 2 || l.ecbBytes > blockBytes) {
                std::ostringstream s;
                s << "set " << set << " way " << w << ": ECB size "
                  << unsigned{l.ecbBytes} << " outside [2, 64]";
                violation(out, s);
            }
            if (llc.tracker().contains(l.blockNum)) {
                std::ostringstream s;
                s << "block 0x" << std::hex << l.blockNum << std::dec
                  << " resident in set " << set << " way " << w
                  << " also has a reuse-tracker entry";
                violation(out, s);
            }
            const auto [it, fresh] = residents.emplace(l.blockNum, w);
            if (!fresh) {
                std::ostringstream s;
                s << "block 0x" << std::hex << l.blockNum << std::dec
                  << " resident twice in set " << set << " (ways "
                  << it->second << " and " << w << ")";
                violation(out, s);
            }

            if (w >= cfg.sramWays && llc.faultMap()) {
                const std::uint32_t frame =
                    set * cfg.nvmWays + (w - cfg.sramWays);
                const unsigned stored =
                    compressed ? l.ecbBytes
                               : static_cast<unsigned>(blockBytes);
                const unsigned cap = llc.faultMap()->frameCapacity(frame);
                if (cap < stored) {
                    std::ostringstream s;
                    s << "set " << set << " way " << w << ": resident needs "
                      << stored << " B but frame " << frame << " holds "
                      << cap << " B";
                    violation(out, s);
                }
            }
        }
    }
    return out;
}

std::vector<std::string>
checkStatsAccounting(const HybridLlc &llc)
{
    std::vector<std::string> out;
    const StatGroup &st = llc.stats();
    const auto c = [&](const char *name) { return st.counterValue(name); };

    expectEqual(out, c("gets"),
                c("gets_hits_sram") + c("gets_hits_nvm") + c("gets_misses"),
                "gets != hit/miss decomposition");
    expectEqual(out, c("getx"),
                c("getx_hits_sram") + c("getx_hits_nvm") + c("getx_misses"),
                "getx != hit/miss decomposition");
    expectEqual(out, c("invalidate_on_getx"),
                c("getx_hits_sram") + c("getx_hits_nvm"),
                "every GetX hit must invalidate");
    expectEqual(out, llc.demandAccesses(), c("gets") + c("getx"),
                "demandAccesses != gets + getx");
    expectEqual(out, llc.demandHits(),
                c("gets_hits_sram") + c("gets_hits_nvm") +
                    c("getx_hits_sram") + c("getx_hits_nvm"),
                "demandHits != hit counters");
    // Every insert() bumps one mix counter and ends in exactly one
    // writeLine or bypass; migrations deposit one extra block without a
    // mix entry of their own.
    expectEqual(out, c("inserts_nvm") + c("inserts_sram"),
                c("ins_none_clean") + c("ins_none_dirty") +
                    c("ins_read_clean") + c("ins_read_dirty") +
                    c("ins_write_clean") + c("ins_write_dirty") -
                    c("bypasses") + c("migrations_to_nvm"),
                "insertion mix != insert counters");

    if (c("puts_present") > c("puts_clean") + c("puts_dirty")) {
        std::ostringstream s;
        s << "puts_present (" << c("puts_present")
          << ") exceeds total Puts ("
          << c("puts_clean") + c("puts_dirty") << ")";
        violation(out, s);
    }
    if (c("nvm_writes") < c("inserts_nvm")) {
        std::ostringstream s;
        s << "nvm_writes (" << c("nvm_writes")
          << ") below inserts_nvm (" << c("inserts_nvm") << ")";
        violation(out, s);
    }
    const std::uint64_t buckets =
        c("nvm_bytes_none_clean") + c("nvm_bytes_none_dirty") +
        c("nvm_bytes_read") + c("nvm_bytes_write_reuse");
    if (buckets > c("nvm_bytes_written")) {
        std::ostringstream s;
        s << "byte-attribution buckets (" << buckets
          << " B) exceed nvm_bytes_written ("
          << c("nvm_bytes_written") << " B)";
        violation(out, s);
    }
    return out;
}

std::vector<std::string>
checkWearAccounting(const HybridLlc &llc)
{
    std::vector<std::string> out;
    const fault::FaultMap *map = llc.faultMap();
    if (!map)
        return out;

    double pending = 0.0;
    std::uint64_t live = 0;
    for (std::uint32_t f = 0; f < map->geometry().numFrames(); ++f) {
        pending += map->pendingWrites(f);
        live += map->liveBytes(f);
    }
    if (live != map->totalLiveBytes()) {
        std::ostringstream s;
        s << "fault map totalLiveBytes (" << map->totalLiveBytes()
          << ") != per-frame sum (" << live << ")";
        violation(out, s);
    }
    // Pending wear accumulates exactly (integral increments well below
    // 2^53), so un-aged wear must equal the LLC's byte counter.
    const auto bytes = llc.stats().counterValue("nvm_bytes_written");
    if (pending != static_cast<double>(bytes)) {
        std::ostringstream s;
        s << "pending fault-map wear (" << pending
          << " B) != nvm_bytes_written (" << bytes << " B)";
        violation(out, s);
    }
    return out;
}

std::vector<std::string>
checkAllInvariants(const HybridLlc &llc)
{
    std::vector<std::string> out = checkLlcStructure(llc);
    for (auto &v : checkStatsAccounting(llc))
        out.push_back(std::move(v));
    for (auto &v : checkWearAccounting(llc))
        out.push_back(std::move(v));
    return out;
}

} // namespace hllc::check
