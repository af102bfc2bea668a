/**
 * @file
 * ArgParser contract tests: flags apply in command-line order, the usage
 * text is built from the flag table, and every usage-error class (an
 * unknown, refused or repeated flag, a missing or malformed value, too
 * many or too few positionals, a second action, a flag the action does
 * not read) exits 2 with the message and usage text.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/argparse.hh"

namespace
{

using namespace hllc;

/** What the test command line stores. */
struct Parsed
{
    unsigned count = 7;
    std::string name;
    bool verbose = false;
    std::vector<std::string> positionals;
};

/** "prog <in> [out]" with --count|-c 1..9, --name and --verbose. */
Parsed
parse(std::vector<std::string> args, int first = 1)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    Parsed p;
    ArgParser cli("prog", "<in> [out]", 1, 2);
    cli.add({
        { "--count", "-c", "1..9", "how many", storeNumber(p.count, 1, 9) },
        { "--name", "", "NAME", "", storeText(p.name) },
        { "--verbose", "", nullptr, "say more", storeSwitch(p.verbose) },
    });
    cli.refuse("--jobs", "-j");
    p.positionals =
        cli.parse(static_cast<int>(argv.size()), argv.data(), first);
    return p;
}

TEST(ArgParser, FlagsAndPositionalsInAnyOrder)
{
    const Parsed p = parse({ "a", "--count", "3", "b", "--verbose" });
    EXPECT_EQ(p.count, 3u);
    EXPECT_TRUE(p.verbose);
    EXPECT_EQ(p.positionals, (std::vector<std::string>{ "a", "b" }));

    const Parsed q = parse({ "-c", "9", "--name", "", "a" });
    EXPECT_EQ(q.count, 9u);
    EXPECT_EQ(q.name, "");
    EXPECT_FALSE(q.verbose);
    EXPECT_EQ(q.positionals, (std::vector<std::string>{ "a" }));
}

TEST(ArgParser, DefaultsStayWhenAFlagIsAbsent)
{
    const Parsed p = parse({ "a" });
    EXPECT_EQ(p.count, 7u);
    EXPECT_EQ(p.name, "");
    EXPECT_FALSE(p.verbose);
}

TEST(ArgParser, ParsingStartsAtFirst)
{
    // argv[1] is skipped, so "--bogus" is never read.
    EXPECT_EQ(parse({ "--bogus", "a", "-c", "2" }, 2).count, 2u);
}

TEST(ArgParser, UsageIsBuiltFromTheTable)
{
    ArgParser cli("prog", "<in>");
    bool on = false;
    std::uint64_t n = 0;
    cli.add({ { "--long-flag", "-l", "N", "a number", storeNumber(n) },
              { "--on", "", nullptr, "", storeSwitch(on) },
              { "--x", "", nullptr, "switch x", storeSwitch(on) } });
    EXPECT_EQ(cli.usageLine(),
              "usage: prog <in> [--long-flag|-l N] [--on] [--x]");
    // Flags without help text get no help line.
    EXPECT_EQ(cli.usage(), cli.usageLine() +
                               "\n  --long-flag|-l N  a number"
                               "\n  --x               switch x");
    EXPECT_EQ(ArgParser("bare").usage(), "usage: bare");
}

TEST(ArgParserDeathTest, UnknownFlagIsAUsageError)
{
    EXPECT_EXIT(parse({ "a", "--cuont", "3" }), ::testing::ExitedWithCode(2),
                "error: unknown flag '--cuont'\nusage: prog <in> \\[out\\] "
                "\\[--count\\|-c 1..9\\]");
}

TEST(ArgParserDeathTest, RefusedFlagIsAUsageError)
{
    EXPECT_EXIT(parse({ "a", "-j", "2" }), ::testing::ExitedWithCode(2),
                "prog does not take -j");
}

TEST(ArgParserDeathTest, MissingValueIsAUsageError)
{
    EXPECT_EXIT(parse({ "a", "--name" }), ::testing::ExitedWithCode(2),
                "--name requires a value");
}

TEST(ArgParserDeathTest, RepeatedFlagIsAUsageError)
{
    EXPECT_EXIT(parse({ "a", "--verbose", "--verbose" }),
                ::testing::ExitedWithCode(2), "--verbose given twice");
    // The alias is the same flag.
    EXPECT_EXIT(parse({ "a", "--count", "2", "-c", "3" }),
                ::testing::ExitedWithCode(2), "-c given twice");
}

TEST(ArgParserDeathTest, MalformedValueIsAUsageError)
{
    for (const char *bad : { "0", "10", "3x", "-1", "" }) {
        EXPECT_EXIT(parse({ "a", "--count", bad }),
                    ::testing::ExitedWithCode(2),
                    std::string("bad --count value '") + bad + "'");
    }
}

TEST(ArgParserDeathTest, PositionalCountIsChecked)
{
    EXPECT_EXIT(parse({ "a", "b", "c" }), ::testing::ExitedWithCode(2),
                "unexpected argument 'c'");
    EXPECT_EXIT(parse({ "--verbose" }), ::testing::ExitedWithCode(2),
                "missing argument \\(0 given, 1 needed\\)");
}

TEST(ArgParser, ActionRecordsItsNameAndValue)
{
    std::string action;
    std::string input;
    ArgParser cli("prog");
    cli.add({ { "--list", "", nullptr, "", cli.action(action, "list") },
              { "--convert", "", "IN", "",
                cli.action(action, "convert", storeText(input)) } });
    char prog[] = "prog", flag[] = "--convert", value[] = "in.ct";
    char *argv[] = { prog, flag, value };
    cli.parse(3, argv);
    EXPECT_EQ(action, "convert");
    EXPECT_EQ(input, "in.ct");
}

TEST(ArgParserDeathTest, SecondActionIsAUsageError)
{
    std::string action;
    ArgParser cli("prog");
    cli.add({ { "--a", "", nullptr, "", cli.action(action, "a") },
              { "--b", "", nullptr, "", cli.action(action, "b") } });
    char prog[] = "prog", a[] = "--a", b[] = "--b";
    char *argv[] = { prog, a, b };
    EXPECT_EXIT(cli.parse(3, argv), ::testing::ExitedWithCode(2),
                "conflicting actions --a and --b");
}

/**
 * "prog" with the actions --list and --diff KIND and a --dir that only
 * "--diff resume" reads; returns the --dir value.
 */
std::string
parseDiff(std::vector<std::string> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    std::string action, kind, dir;
    ArgParser cli("prog");
    cli.add({ { "--list", "", nullptr, "", cli.action(action, "list") },
              { "--diff", "", "KIND", "",
                cli.action(action, "diff", storeText(kind)) },
              { "--dir", "", "D", "checkpoints", storeText(dir),
                "diff resume" } });
    cli.parse(static_cast<int>(argv.size()), argv.data());
    return dir;
}

TEST(ArgParserDeathTest, FlagTheActionDoesNotReadIsAUsageError)
{
    // The action may come after the flags it reads.
    EXPECT_EQ(parseDiff({ "--dir", "d", "--diff", "resume" }), "d");
    // The usage text names the readers from the same table entry.
    EXPECT_EXIT(parseDiff({ "--dir", "d", "--diff", "golden" }),
                ::testing::ExitedWithCode(2),
                "error: --diff golden does not read --dir \\(only diff "
                "resume does\\)\n.*--dir D +checkpoints \\(diff "
                "resume\\)");
    EXPECT_EXIT(parseDiff({ "--list", "--dir", "d" }),
                ::testing::ExitedWithCode(2),
                "--list does not read --dir");
}

TEST(ArgParserDeathTest, FailPrintsTheUsageText)
{
    ArgParser cli("prog");
    bool on = false;
    cli.add({ { "--on", "", nullptr, "switch on", storeSwitch(on) } });
    EXPECT_EXIT(cli.fail("no %s given", "action"),
                ::testing::ExitedWithCode(2),
                "error: no action given\nusage: prog \\[--on\\]\n"
                "  --on  switch on");
}

} // namespace
