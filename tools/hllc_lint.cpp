/**
 * @file
 * hllc_lint: enforce the project's hard-won invariants as named,
 * suppressible static-analysis rules (see DESIGN.md §11).
 *
 * Usage: hllc_lint [--root DIR] [--format text|json] [--list-rules]
 *                  [PATH...]
 *
 * PATHs are directories or files relative to --root (default: the
 * current directory); with none given the project default set
 * `src tools bench tests examples` is walked. Every file is lexed once;
 * the token-level rules and the cross-file semantic engines
 * (failpoint-coverage, lock-discipline, rng-discipline, schema-drift,
 * include-graph) run over that one pass. Exit status: 0 when the tree
 * is clean, 1 when findings remain, 2 on usage or I/O errors — the
 * contract the CI lint job relies on.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hh"
#include "lint/lint.hh"

using namespace hllc;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--root DIR] [--format text|json]"
                 " [--list-rules] [PATH...]\n",
                 argv0);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string format = "text";
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--root") == 0 && i + 1 < argc) {
            root = argv[++i];
        } else if (std::strcmp(arg, "--format") == 0 && i + 1 < argc) {
            format = argv[++i];
            if (format != "text" && format != "json")
                return usage(argv[0]);
        } else if (std::strcmp(arg, "--list-rules") == 0) {
            for (const std::string &rule : lint::allRules())
                std::printf("%s\n", rule.c_str());
            return 0;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            usage(argv[0]);
            return 0;
        } else if (arg[0] == '-') {
            return usage(argv[0]);
        } else {
            paths.push_back(arg);
        }
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
