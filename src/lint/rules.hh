/**
 * @file
 * The project-invariant rules `hllc_lint` enforces, and the per-file
 * token view they run over.
 *
 * Each rule encodes a contract an earlier change established the hard
 * way (see DESIGN.md §11 for the rule → bug mapping). Six rules are
 * token-local and run here, per file:
 *
 *  - `determinism`: no ambient randomness (the std engines,
 *    rand()-family calls, time(nullptr) seeding, thread-id-derived
 *    values) outside common/rng — grid results must be byte-identical
 *    for any --jobs.
 *  - `atomic-io`: no raw std::ofstream/fopen file creation outside
 *    common/serialize — everything written goes through
 *    writeFileAtomic so a crash never leaves a torn file.
 *  - `atomic-rename`: no raw rename()/renameat()/renameat2() outside
 *    common/serialize — the commit step of an atomic write belongs to
 *    writeFileAtomic, which also fsyncs the file and its parent
 *    directory so the published name survives a power cut.
 *  - `locale`: no std::to_string/setprecision/strtod-family formatting
 *    or parsing outside common/numfmt — a de_DE process locale must
 *    not turn "0.25" into "0,25" in machine-readable output.
 *  - `no-exit-in-library`: exit()/abort() only in CLI mains and the
 *    sanctioned logging sinks; library code throws hllc::IoError.
 *  - `header-hygiene`: include guards named HLLC_<PATH>_HH, no
 *    `using namespace` in headers, and module includes that respect
 *    the CMake layering DAG.
 *
 * Five rules are semantic: they run over the merged tree index
 * (lint/engines.hh) — `failpoint-coverage`, `lock-discipline`,
 * `rng-discipline`, `schema-drift` and `include-graph`.
 *
 * Findings can be waived inline with
 * `// hllc-lint: allow(<rule>[,<rule>...]) <justification>` on the
 * offending line or alone on the line above; an allow() without a
 * justification is itself reported (rule `suppression`).
 */

#ifndef HLLC_LINT_RULES_HH
#define HLLC_LINT_RULES_HH

#include <set>
#include <string>
#include <vector>

#include "lint/lexer.hh"

namespace hllc::lint
{

/** One rule violation at one source location. */
struct Finding
{
    std::string file; //!< repo-relative path, forward slashes
    int line = 0;     //!< 1-based
    std::string rule;
    std::string message;
};

/** Every rule name, in reporting order. */
const std::vector<std::string> &allRules();

/**
 * One file's token stream split three ways: code tokens (the rules and
 * the indexer reason about them by index), preprocessor directives,
 * and comments (where the waivers live).
 */
struct CodeView
{
    std::vector<Token> code;
    std::vector<Token> directives;
    std::vector<Token> comments;

    explicit CodeView(std::vector<Token> tokens);

    bool isPunct(std::size_t i, char c) const
    {
        return i < code.size() && code[i].kind == TokKind::Punct &&
               code[i].text.size() == 1 && code[i].text[0] == c;
    }
    /** An identifier at @p i (spelled @p text, when given). */
    bool isIdent(std::size_t i, const char *text = nullptr) const
    {
        return i < code.size() && code[i].kind == TokKind::Identifier &&
               (text == nullptr || code[i].text == text);
    }

    /** code[i] reached via `.` or `->` (a member, not the std one). */
    bool memberAccessBefore(std::size_t i) const
    {
        if (i >= 1 && isPunct(i - 1, '.'))
            return true;
        return i >= 2 && isPunct(i - 2, '-') && isPunct(i - 1, '>');
    }

    /** code[i] qualified as `<ns>::code[i]`; "" when unqualified. */
    std::string qualifierBefore(std::size_t i) const
    {
        if (i >= 3 && isPunct(i - 1, ':') && isPunct(i - 2, ':') &&
            isIdent(i - 3)) {
            return code[i - 3].text;
        }
        return "";
    }

    bool callAfter(std::size_t i) const { return isPunct(i + 1, '('); }

    /** Index just past the `)` matching the `(` at @p open. */
    std::size_t matchParen(std::size_t open) const;
};

/**
 * One `hllc-lint: allow(...)` waiver and the line range it covers (a
 * comment sharing its line with code covers that line; a standalone
 * comment covers the next line holding code).
 */
struct Waiver
{
    int firstLine = 0;
    int lastLine = 0;
    std::set<std::string> rules;

    bool covers(const std::string &rule, int line) const
    {
        return line >= firstLine && line <= lastLine &&
               rules.count(rule) != 0;
    }
};

/**
 * Run the six token-local rules over one file. @p path is the
 * repo-relative path (it selects which rules apply and the expected
 * include-guard name). Findings are not yet filtered by waivers.
 */
void checkTokenRules(const std::string &path, const CodeView &view,
                     std::vector<Finding> &findings);

/**
 * The well-formed waivers of one file. Malformed waivers (no
 * justification, unknown rule) are appended to @p findings under rule
 * `suppression`.
 */
std::vector<Waiver> collectWaivers(const std::string &path,
                                   const CodeView &view,
                                   std::vector<Finding> &findings);

} // namespace hllc::lint

#endif // HLLC_LINT_RULES_HH
