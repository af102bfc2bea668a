/**
 * @file
 * The command line of every binary: validated number parsing and one
 * table-driven flag parser.
 *
 * std::atoi silently turns "12abc" and "xyz" into usable-looking values
 * (12 and 0); these helpers instead parse the whole token or return
 * nothing, so the tools can reject malformed arguments with a usage
 * message instead of running a subtly wrong experiment.
 *
 * ArgParser reads argv against a table of Flag rows. Each row names the
 * flag, its value placeholder and its one-line help, so the usage text
 * is built from the same table the parser reads: a flag cannot be
 * parsed but missing from the help. Every bad command line goes through
 * usageError() (message, usage text, exit 2) before the binary does any
 * work, so a script can tell a typo from a failed run (exit 1).
 */

#ifndef HLLC_COMMON_ARGPARSE_HH
#define HLLC_COMMON_ARGPARSE_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/numfmt.hh"

namespace hllc
{

/** Parse a full decimal token into [min, max]; nullopt on any junk. */
inline std::optional<std::uint64_t>
parseU64(const char *token, std::uint64_t min = 0,
         std::uint64_t max = UINT64_MAX)
{
    if (token == nullptr || *token == '\0' || *token == '-')
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(token, &end, 10);
    if (errno != 0 || end == token || *end != '\0')
        return std::nullopt;
    if (parsed < min || parsed > max)
        return std::nullopt;
    return static_cast<std::uint64_t>(parsed);
}

/** Parse a full decimal token into an unsigned within [min, max]. */
inline std::optional<unsigned>
parseUnsigned(const char *token, unsigned min = 0,
              unsigned max = UINT32_MAX)
{
    const auto v = parseU64(token, min, max);
    if (!v)
        return std::nullopt;
    return static_cast<unsigned>(*v);
}

/**
 * Parse a full floating-point token; nullopt on junk or non-finite.
 * from_chars-based (common/numfmt contract): a de_DE locale neither
 * accepts "0,25" nor rejects "0.25" here.
 */
inline std::optional<double>
parseDouble(const char *token)
{
    if (token == nullptr || *token == '\0')
        return std::nullopt;
    double parsed = 0.0;
    if (!parseDoubleExact(token, parsed) || !std::isfinite(parsed))
        return std::nullopt;
    return parsed;
}

/** One flag of a command line. */
struct Flag
{
    std::string_view name;  //!< "--jobs"
    std::string_view alias; //!< "-j", or "" for none
    const char *value;      //!< value placeholder; nullptr for a switch
    std::string_view help;  //!< one line for the usage text
    /** Store the value (nullptr for a switch); false if it is junk. */
    std::function<bool(const char *)> apply;
    /**
     * The actions that read this flag, '/'-separated ("diff/oracle"); an
     * entry "diff resume" names one value of an action. Empty: every
     * action reads it. The usage text shows the list after the help.
     */
    std::string_view readBy = "";
};

/** Flag::apply of an integer flag: stores a value in [min, max]. */
template <typename T>
std::function<bool(const char *)>
storeNumber(T &out, std::uint64_t min = 0,
            std::uint64_t max = std::numeric_limits<T>::max())
{
    return [&out, min, max](const char *value) {
        const auto parsed = parseU64(value, min, max);
        if (parsed)
            out = static_cast<T>(*parsed);
        return parsed.has_value();
    };
}

/** Flag::apply of a text flag: stores any value. */
inline std::function<bool(const char *)>
storeText(std::string &out)
{
    return [&out](const char *value) {
        out = value;
        return true;
    };
}

/** Flag::apply of a switch: sets @p out. */
inline std::function<bool(const char *)>
storeSwitch(bool &out)
{
    return [&out](const char *) {
        out = true;
        return true;
    };
}

/**
 * A command line declared as a table of flags plus min..max positional
 * arguments. parse() reports each of these through fail(): an unknown
 * flag, a flag this binary refuses, a repeated flag, a missing or
 * malformed value, a positional beyond the maximum, fewer positionals
 * than the minimum, and a flag the chosen action does not read (see
 * Flag::readBy). A token that starts with '-' is a flag; any other
 * token is a positional.
 */
class ArgParser
{
  public:
    /**
     * A parser for program @p prog whose usage line names its
     * @p positionals ("<mix 1..10> <out.hlt> [refs]"); it accepts
     * @p min to @p max of them.
     */
    explicit ArgParser(std::string prog, std::string positionals = "",
                       std::size_t min = 0, std::size_t max = 0);

    // action() flags hold this parser's address.
    ArgParser(const ArgParser &) = delete;
    ArgParser &operator=(const ArgParser &) = delete;

    /** Add @p flags to the table, in usage-line order. */
    void add(std::vector<Flag> flags);

    /**
     * Know @p name (and @p alias) as a flag other binaries take but this
     * one does not: "<prog> does not take <flag>" instead of "unknown".
     */
    void refuse(std::string_view name, std::string_view alias = "");

    /**
     * Parse argv[first, argc), applying every flag in command-line
     * order; returns the positionals.
     */
    std::vector<std::string> parse(int argc, char **argv, int first = 1);

    /**
     * Flag::apply of one of several exclusive action flags: sets
     * @p chosen to @p name, then stores the value through @p store (if
     * any); a second action is a usage error. The parser keeps the name
     * and value to check every flag's Flag::readBy against.
     */
    std::function<bool(const char *)>
    action(std::string &chosen, std::string name,
           std::function<bool(const char *)> store = nullptr);

    /** "usage: <prog> <positionals> [flag VALUE]..." */
    std::string usageLine() const;

    /** The usage line, then one line per flag with its help text. */
    std::string usage() const;

    /** Report a bad command line: usageError() with usage(), exit 2. */
    [[noreturn]] void fail(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

  private:
    const Flag *find(std::string_view arg) const;
    /** Whether the chosen action (if any) reads @p flag. */
    bool actionReads(const Flag &flag) const;

    std::string prog_;
    std::string positionals_;
    std::size_t min_;
    std::size_t max_;
    std::vector<Flag> flags_;
    std::vector<std::string_view> refused_;
    std::string action_;          //!< name of the chosen action; "" = none
    std::string actionWithValue_; //!< "diff golden"; the name of a switch
};

} // namespace hllc

#endif // HLLC_COMMON_ARGPARSE_HH
