/**
 * @file
 * sim::parseBenchArgs contract tests: every flag group round-trips its
 * values, every usage-error class exits 2 with the usage line, and
 * parsing starts at `first`, so hllc-replay's positional CPth is never
 * taken for a flag value and a flag value never for a CPth.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/grid.hh"

namespace
{

using namespace hllc;
using sim::BenchArgs;
using sim::FlagGroups;

/** Parse "bench" followed by @p args. */
BenchArgs
parse(std::vector<std::string> args,
      FlagGroups accepted = sim::allFlagGroups, int first = 1,
      const char *positional = "")
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &arg : args)
        argv.push_back(arg.data());
    return sim::parseBenchArgs(static_cast<int>(argv.size()), argv.data(),
                               accepted, first, positional);
}

TEST(BenchArgs, DefaultsWhenNoFlagIsGiven)
{
    const BenchArgs args = parse({});
    EXPECT_EQ(args.jobs, 0u);
    EXPECT_EQ(args.statsOut, "");
    EXPECT_FALSE(args.checkpoint.enabled());
    EXPECT_EQ(args.checkpoint.every, 1u);
    EXPECT_FALSE(args.checkpoint.resume);
    EXPECT_EQ(args.resilience.retry.maxAttempts, 1u);
    EXPECT_EQ(args.resilience.retry.baseDelayMs, 100u);
    EXPECT_EQ(args.resilience.cellTimeoutMs, 0u);
    EXPECT_EQ(args.resilience.failuresOut, "");
}

TEST(BenchArgs, EveryGroupRoundTripsItsValues)
{
    EXPECT_EQ(parse({ "--jobs", "4" }, { .jobs = true }).jobs, 4u);
    EXPECT_EQ(parse({ "-j", "2" }, { .jobs = true }).jobs, 2u);
    EXPECT_EQ(parse({ "--stats-out", "s.json" }, { .statsOut = true })
                  .statsOut,
              "s.json");
    EXPECT_EQ(parse({ "--stats-out", "s.csv" }, { .statsOut = true })
                  .statsOut,
              "s.csv");

    const BenchArgs ck = parse({ "--checkpoint-dir", "ck",
                                 "--checkpoint-every", "3", "--resume" },
                               { .checkpoint = true });
    EXPECT_EQ(ck.checkpoint.dir, "ck");
    EXPECT_EQ(ck.checkpoint.every, 3u);
    EXPECT_TRUE(ck.checkpoint.resume);

    const BenchArgs re = parse(
        { "--retries", "2", "--retry-delay-ms", "50", "--cell-timeout-ms",
          "1000", "--failures-out", "f.json" },
        { .resilience = true });
    EXPECT_EQ(re.resilience.retry.maxAttempts, 3u); // 2 retries
    EXPECT_EQ(re.resilience.retry.baseDelayMs, 50u);
    EXPECT_EQ(re.resilience.cellTimeoutMs, 1000u);
    EXPECT_EQ(re.resilience.failuresOut, "f.json");
}

TEST(BenchArgs, UsageLineListsOnlyTheAcceptedFlags)
{
    EXPECT_EQ(parse({}, {}).usage, "usage: bench");
    EXPECT_EQ(parse({ "t.hlt" }, { .jobs = true, .statsOut = true }, 2,
                    " <trace.hlt>")
                  .usage,
              "usage: bench <trace.hlt> [--jobs|-j N] "
              "[--stats-out FILE.{json,csv}]");
}

TEST(BenchArgsDeathTest, UnknownFlagIsAUsageError)
{
    // The typo line that used to run to the end with crash safety off.
    EXPECT_EXIT(parse({ "--jobs", "4", "--chekpoint-dir", "ck", "--resum",
                        "--stats-out", "s.json" }),
                ::testing::ExitedWithCode(2),
                "unknown flag '--chekpoint-dir'\nusage: bench ");
    // Retry backoff has no jitter, so there is no seed to set.
    EXPECT_EXIT(parse({ "--retry-jitter-seed", "9" }),
                ::testing::ExitedWithCode(2),
                "unknown flag '--retry-jitter-seed'\nusage: bench ");
}

TEST(BenchArgsDeathTest, FlagOfAnUnacceptedGroupIsAUsageError)
{
    EXPECT_EXIT(parse({ "--jobs", "2" }, { .statsOut = true }),
                ::testing::ExitedWithCode(2), "bench does not take --jobs");
    EXPECT_EXIT(parse({ "--resume" }, {}), ::testing::ExitedWithCode(2),
                "bench does not take --resume");
}

TEST(BenchArgsDeathTest, StrayPositionalIsAUsageError)
{
    EXPECT_EXIT(parse({ "extra" }, {}), ::testing::ExitedWithCode(2),
                "unexpected argument 'extra'");
    EXPECT_EXIT(parse({ "--jobs", "2", "3" }), ::testing::ExitedWithCode(2),
                "unexpected argument '3'");
}

TEST(BenchArgsDeathTest, MissingValueIsAUsageError)
{
    EXPECT_EXIT(parse({ "--stats-out" }), ::testing::ExitedWithCode(2),
                "--stats-out requires a value");
    EXPECT_EXIT(parse({ "-j" }), ::testing::ExitedWithCode(2),
                "-j requires a value");
}

TEST(BenchArgsDeathTest, RepeatedFlagIsAUsageError)
{
    EXPECT_EXIT(parse({ "--jobs", "2", "-j", "3" }),
                ::testing::ExitedWithCode(2), "-j given twice");
    EXPECT_EXIT(parse({ "--checkpoint-dir", "a", "--resume", "--resume" }),
                ::testing::ExitedWithCode(2), "--resume given twice");
}

TEST(BenchArgsDeathTest, BadValueIsAUsageError)
{
    const std::vector<std::vector<std::string>> bad = {
        { "--jobs", "0" },
        { "--jobs", "4x" },
        { "--stats-out", "s.txt" },
        { "--checkpoint-every", "0" },
        { "--retries", "101" },
        { "--retry-delay-ms", "-1" },
        { "--cell-timeout-ms", "0" },
        { "--failures-out", "f.csv" },
    };
    for (const auto &args : bad) {
        EXPECT_EXIT(parse(args), ::testing::ExitedWithCode(2),
                    "bad " + args[0] + " value '" + args[1] + "'");
    }
}

TEST(BenchArgsDeathTest, ResumeWithoutCheckpointDirIsAUsageError)
{
    EXPECT_EXIT(parse({ "--resume" }), ::testing::ExitedWithCode(2),
                "--resume requires --checkpoint-dir");
}

TEST(BenchArgs, ParsingStartsAfterThePositionals)
{
    // hllc-replay <trace> <policies> <cpth> --jobs 2: argv[1..3] are
    // positional, so first = 4.
    const FlagGroups replay{ .jobs = true, .statsOut = true };
    EXPECT_EQ(parse({ "t.hlt", "BH,CP_SD", "8", "--jobs", "2" }, replay, 4)
                  .jobs,
              2u);
    // A flag right after the trace: its value is the flag's, not a CPth.
    EXPECT_EQ(parse({ "t.hlt", "--jobs", "65" }, replay, 2).jobs, 65u);
    EXPECT_EXIT(parse({ "t.hlt", "BH", "8", "9" }, replay, 4),
                ::testing::ExitedWithCode(2), "unexpected argument '9'");
}

} // namespace
