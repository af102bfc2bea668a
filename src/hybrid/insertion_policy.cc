#include "hybrid/insertion_policy.hh"

#include <sstream>

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

std::optional<std::vector<PolicyKind>>
parsePolicyList(std::string_view list, std::string &unknown)
{
    std::vector<PolicyKind> policies;
    std::stringstream stream{ std::string(list) };
    std::string token;
    while (std::getline(stream, token, ',')) {
        const auto kind = policyFromName(token);
        if (!kind) {
            unknown = token;
            return std::nullopt;
        }
        policies.push_back(*kind);
    }
    if (policies.empty()) {
        unknown = list;
        return std::nullopt;
    }
    return policies;
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
