#include "common/argparse.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "common/logging.hh"

namespace hllc
{

namespace
{

/** "--jobs|-j N": how the usage text spells @p flag. */
std::string
spelling(const Flag &flag)
{
    std::string out(flag.name);
    if (!flag.alias.empty())
        out.append("|").append(flag.alias);
    if (flag.value != nullptr)
        out.append(" ").append(flag.value);
    return out;
}

} // anonymous namespace

ArgParser::ArgParser(std::string prog, std::string positionals,
                     std::size_t min, std::size_t max)
    : prog_(std::move(prog)), positionals_(std::move(positionals)),
      min_(min), max_(max)
{
}

void
ArgParser::add(std::vector<Flag> flags)
{
    for (Flag &flag : flags)
        flags_.push_back(std::move(flag));
}

void
ArgParser::refuse(std::string_view name, std::string_view alias)
{
    refused_.push_back(name);
    if (!alias.empty())
        refused_.push_back(alias);
}

const Flag *
ArgParser::find(std::string_view arg) const
{
    const auto it = std::find_if(
        flags_.begin(), flags_.end(), [arg](const Flag &flag) {
            return arg == flag.name ||
                   (!flag.alias.empty() && arg == flag.alias);
        });
    return it != flags_.end() ? &*it : nullptr;
}

bool
ArgParser::actionReads(const Flag &flag) const
{
    if (flag.readBy.empty() || action_.empty())
        return true;
    std::string_view list = flag.readBy;
    while (!list.empty()) {
        const std::size_t slash = list.find('/');
        const std::string_view entry = list.substr(0, slash);
        if (entry == action_ || entry == actionWithValue_)
            return true;
        list.remove_prefix(slash == list.npos ? list.size() : slash + 1);
    }
    return false;
}

std::vector<std::string>
ArgParser::parse(int argc, char **argv, int first)
{
    std::vector<std::string> positionals;
    std::vector<const Flag *> seen;
    for (int i = first; i < argc; ++i) {
        const char *arg = argv[i];
        if (arg[0] != '-') {
            if (positionals.size() == max_)
                fail("unexpected argument '%s'", arg);
            positionals.emplace_back(arg);
            continue;
        }
        const Flag *flag = find(arg);
        if (flag == nullptr &&
            std::find(refused_.begin(), refused_.end(), arg) !=
                refused_.end())
            fail("%s does not take %s", prog_.c_str(), arg);
        if (flag == nullptr)
            fail("unknown flag '%s'", arg);
        if (std::find(seen.begin(), seen.end(), flag) != seen.end())
            fail("%s given twice", arg);
        seen.push_back(flag);
        const char *value = nullptr;
        if (flag->value != nullptr) {
            if (i + 1 == argc)
                fail("%s requires a value", arg);
            value = argv[i + 1];
            i += 1;
        }
        if (!flag->apply(value))
            fail("bad %s value '%s'", arg, value != nullptr ? value : "");
    }
    if (positionals.size() < min_)
        fail("missing argument (%zu given, %zu needed)",
             positionals.size(), min_);
    // After the loop: the action may come after the flags it reads.
    for (const Flag *flag : seen) {
        if (!actionReads(*flag))
            fail("--%s does not read %s (only %s does)",
                 actionWithValue_.c_str(), std::string(flag->name).c_str(),
                 std::string(flag->readBy).c_str());
    }
    return positionals;
}

std::function<bool(const char *)>
ArgParser::action(std::string &chosen, std::string name,
                  std::function<bool(const char *)> store)
{
    return [this, &chosen, name = std::move(name),
            store = std::move(store)](const char *value) {
        if (!chosen.empty())
            fail("conflicting actions --%s and --%s", chosen.c_str(),
                 name.c_str());
        chosen = name;
        action_ = name;
        actionWithValue_ =
            value != nullptr ? name + " " + value : name;
        return !store || store(value);
    };
}

std::string
ArgParser::usageLine() const
{
    std::string line = "usage: " + prog_;
    if (!positionals_.empty())
        line += " " + positionals_;
    for (const Flag &flag : flags_)
        line.append(" [").append(spelling(flag)).append("]");
    return line;
}

std::string
ArgParser::usage() const
{
    // Help texts line up after the spellings, unless one is so long
    // that it would push every text off to the right.
    constexpr std::size_t maxColumn = 24;
    std::size_t column = 0;
    for (const Flag &flag : flags_) {
        const std::size_t width = spelling(flag).size();
        if (width <= maxColumn)
            column = std::max(column, width);
    }
    std::string text = usageLine();
    for (const Flag &flag : flags_) {
        if (flag.help.empty())
            continue;
        const std::string spelled = spelling(flag);
        text.append("\n  ")
            .append(spelled)
            .append(std::max(column, spelled.size()) - spelled.size() + 2,
                    ' ')
            .append(flag.help);
        if (!flag.readBy.empty())
            text.append(" (").append(flag.readBy).append(")");
    }
    return text;
}

void
ArgParser::fail(const char *fmt, ...) const
{
    char message[512];
    std::va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(message, sizeof(message), fmt, ap);
    va_end(ap);
    usageError(usage(), "%s", message);
}

} // namespace hllc
