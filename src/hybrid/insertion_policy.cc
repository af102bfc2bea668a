#include "hybrid/insertion_policy.hh"

#include "common/logging.hh"

namespace hllc::hybrid
{

std::string_view
policyName(PolicyKind kind)
{
    const auto i = static_cast<std::size_t>(kind);
    return i < policyTable.size() ? policyTable[i].name : "?";
}

std::optional<PolicyKind>
policyFromName(std::string_view name)
{
    for (const PolicyTraits &row : policyTable) {
        if (row.name == name)
            return row.kind;
    }
    return std::nullopt;
}

namespace
{

const PolicyTraits &
traitsOf(PolicyKind kind)
{
    const auto i = static_cast<std::size_t>(kind);
    HLLC_ASSERT(i < policyTable.size(), "unknown policy kind %zu", i);
    return policyTable[i];
}

} // namespace

InsertionPolicy::InsertionPolicy(PolicyKind kind, const PolicyParams &params)
    : traits_(traitsOf(kind)), params_(params)
{
}

} // namespace hllc::hybrid
