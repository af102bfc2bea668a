/**
 * @file
 * hllc_lint: enforce the project's hard-won invariants as named,
 * suppressible static-analysis rules (see DESIGN.md §11).
 *
 * PATHs are directories or files relative to --root (default: the
 * current directory); with none given the project default set
 * `src tools bench tests examples` is walked. Every file is lexed once;
 * the token-level rules and the cross-file semantic engines
 * (failpoint-coverage, lock-discipline, rng-discipline, schema-drift,
 * include-graph) run over that one pass. Exit status: 0 when the tree
 * is clean, 1 when findings remain, 2 on usage or I/O errors — the
 * contract the CI lint job relies on. --help prints the usage text and
 * exits 0.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/argparse.hh"
#include "common/error.hh"
#include "lint/lint.hh"

using namespace hllc;

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string format = "text";
    bool list_rules = false;
    bool help = false;
    ArgParser cli(argv[0], "[PATH...]", 0, SIZE_MAX);
    cli.add({
        { "--root", "", "DIR", "tree root (default .)", storeText(root) },
        { "--format", "", "text|json", "report format (default text)",
          [&](const char *value) {
              format = value;
              return format == "text" || format == "json";
          } },
        { "--list-rules", "", nullptr, "print the rule names",
          storeSwitch(list_rules) },
        { "--help", "-h", nullptr, "print this text", storeSwitch(help) },
    });
    const std::vector<std::string> paths = cli.parse(argc, argv);
    if (help) {
        std::fprintf(stderr, "%s\n", cli.usage().c_str());
        return 0;
    }
    if (list_rules) {
        for (const std::string &rule : lint::allRules())
            std::printf("%s\n", rule.c_str());
        return 0;
    }

    try {
        const lint::RunResult result = lint::analyzeTree(root, paths);
        const std::string report = format == "json"
            ? lint::formatJson(result)
            : lint::formatText(result);
        std::fputs(report.c_str(), stdout);
        return result.findings.empty() ? 0 : 1;
    } catch (const Error &e) {
        std::fprintf(stderr, "hllc_lint: %s\n", e.what());
        return 2;
    }
}
