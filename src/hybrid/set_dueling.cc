#include "hybrid/set_dueling.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/numfmt.hh"
#include "common/serialize.hh"

namespace hllc::hybrid
{

SetDueling::SetDueling(std::uint32_t num_sets,
                       std::vector<unsigned> candidates,
                       Cycle epoch_cycles,
                       double th_percent,
                       double tw_percent)
    : candidates_(std::move(candidates)),
      epochCycles_(epoch_cycles),
      th_(th_percent),
      tw_(tw_percent)
{
    HLLC_ASSERT(!candidates_.empty());
    HLLC_ASSERT(std::is_sorted(candidates_.begin(), candidates_.end()));
    HLLC_ASSERT(candidates_.size() <= duelingSlots);
    HLLC_ASSERT(num_sets >= duelingSlots,
                "need at least %u sets for set dueling", duelingSlots);
    HLLC_ASSERT(epoch_cycles > 0);
    HLLC_ASSERT(th_ >= 0.0 && tw_ >= 0.0);

    // When num_sets is not a multiple of the 32 dueling slots, the
    // trailing partial stripe would give slots 0..(num_sets % 32 - 1)
    // one leader set more than the rest, biasing the hit/bytes race
    // toward low-index (small-CPth) candidates. Keep leader groups
    // equal-sized by making the trailing sets plain followers.
    const std::uint32_t leader_sets = num_sets - num_sets % duelingSlots;
    groupOf_.assign(num_sets, -1);
    for (std::uint32_t set = 0; set < leader_sets; ++set) {
        const std::uint32_t slot = set % duelingSlots;
        if (slot < candidates_.size())
            groupOf_[set] = static_cast<std::int8_t>(slot);
    }

    // Start following the largest CPth: closest to the unconstrained
    // (BH-like) insertion behaviour until the first epoch resolves.
    winner_ = candidates_.back();
    hits_.assign(candidates_.size(), 0);
    bytes_.assign(candidates_.size(), 0);
}

void
SetDueling::snapshot(serial::Encoder &enc) const
{
    enc.u32(static_cast<std::uint32_t>(candidates_.size()));
    enc.u32(winner_);
    enc.u64(clock_);
    enc.u64(epochs_);
    enc.u64Vec(hits_);
    enc.u64Vec(bytes_);
    std::vector<std::uint64_t> history(winnerHistory_.begin(),
                                       winnerHistory_.end());
    enc.u64Vec(history);
}

void
SetDueling::restore(serial::Decoder &dec)
{
    const std::uint32_t count = dec.u32();
    if (count != candidates_.size())
        throw IoError("set-dueling snapshot has " + formatU64(count) +
                      " candidates, instance has " +
                      formatU64(candidates_.size()));
    const std::uint32_t winner = dec.u32();
    if (std::find(candidates_.begin(), candidates_.end(), winner) ==
        candidates_.end()) {
        throw IoError("set-dueling snapshot winner " +
                      formatU64(winner) + " is not a candidate");
    }
    const std::uint64_t clock = dec.u64();
    const std::uint64_t epochs = dec.u64();
    std::vector<std::uint64_t> hits = dec.u64Vec();
    std::vector<std::uint64_t> bytes = dec.u64Vec();
    const std::vector<std::uint64_t> history = dec.u64Vec();
    if (hits.size() != candidates_.size() ||
        bytes.size() != candidates_.size()) {
        throw IoError("set-dueling snapshot accumulator size mismatch");
    }

    winner_ = winner;
    clock_ = clock;
    epochs_ = epochs;
    hits_ = std::move(hits);
    bytes_ = std::move(bytes);
    winnerHistory_.assign(history.begin(), history.end());
}

void
SetDueling::closeEpoch()
{
    ++epochs_;

    std::uint64_t total_hits = 0;
    for (auto h : hits_)
        total_hits += h;

    if (total_hits > 0) {
        // i: the candidate with the maximum number of hits.
        std::size_t i = 0;
        for (std::size_t c = 1; c < candidates_.size(); ++c) {
            if (hits_[c] > hits_[i])
                i = c;
        }

        std::size_t chosen = i;
        if (th_ > 0.0) {
            // Eq. (1): smallest CPth j trading <= Th% hits for >= Tw%
            // fewer NVM bytes written.
            const double h_floor =
                static_cast<double>(hits_[i]) * (1.0 - th_ / 100.0);
            const double w_ceil =
                static_cast<double>(bytes_[i]) * (1.0 - tw_ / 100.0);
            for (std::size_t j = 0; j < candidates_.size(); ++j) {
                if (static_cast<double>(hits_[j]) > h_floor &&
                    static_cast<double>(bytes_[j]) < w_ceil) {
                    chosen = j;
                    break;
                }
            }
        }
        winner_ = candidates_[chosen];
        winnerHistory_.push_back(winner_);
    }

    std::fill(hits_.begin(), hits_.end(), 0);
    std::fill(bytes_.begin(), bytes_.end(), 0);
}

} // namespace hllc::hybrid
