/**
 * @file
 * The `hllc_lint` driver: tree walking, one pass per file, the
 * cross-file engines, waivers and the text/JSON reporters.
 *
 * analyzeTree() walks `src/ tools/ bench/ tests/ examples/` (or the
 * requested paths) and runs the per-file pass (lint/index.hh) over
 * each file: one lex, from which the token rules run, the waivers are
 * collected and the index is built. The semantic engines
 * (lint/engines.hh) then run over the merged index, and one waiver
 * filter covers token and semantic findings alike.
 */

#ifndef HLLC_LINT_LINT_HH
#define HLLC_LINT_LINT_HH

#include <string>
#include <vector>

#include "lint/rules.hh"

namespace hllc::lint
{

/** Outcome of linting a tree. */
struct RunResult
{
    /** Findings after waivers, sorted by file then line. */
    std::vector<Finding> findings;
    std::size_t filesScanned = 0;
};

/**
 * Sorted, de-duplicated repo-relative paths of every lintable C++ file
 * under @p paths (empty = the project default set). Throws
 * hllc::IoError when a requested path does not exist.
 */
std::vector<std::string>
collectLintFiles(const std::string &root,
                 const std::vector<std::string> &paths);

/**
 * Lint every C++ source below @p root limited to @p paths (empty =
 * the project default set), under every rule. `<root>/EXPERIMENTS.md`,
 * when present, supplies the schema-drift tables. Throws
 * hllc::IoError when the root or a requested path cannot be read.
 */
RunResult analyzeTree(const std::string &root,
                      const std::vector<std::string> &paths = {});

/**
 * Lint one translation unit as a one-file tree: @p path is the
 * repo-relative path (it selects which rules apply and the expected
 * include-guard name), @p content the file's text. Findings come back
 * after waivers, sorted by line.
 */
std::vector<Finding> lintSource(const std::string &path,
                                const std::string &content);

/** Human-readable report: `file:line: [rule] message`. */
std::string formatText(const RunResult &result);

/** Machine-readable report (schema "hllc-lint-v1"). */
std::string formatJson(const RunResult &result);

} // namespace hllc::lint

#endif // HLLC_LINT_LINT_HH
