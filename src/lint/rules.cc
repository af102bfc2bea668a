#include "lint/rules.hh"

#include <algorithm>
#include <cctype>
#include <map>

namespace hllc::lint
{

namespace
{

const char *const kDeterminism = "determinism";
const char *const kAtomicIo = "atomic-io";
const char *const kAtomicRename = "atomic-rename";
const char *const kLocale = "locale";
const char *const kNoExit = "no-exit-in-library";
const char *const kHeaderHygiene = "header-hygiene";
// Semantic rules: engines live in lint/engines.cc, but the names are
// registered here so waivers and the JSON counts treat them exactly
// like the token-level rules.
const char *const kFailpointCoverage = "failpoint-coverage";
const char *const kLockDiscipline = "lock-discipline";
const char *const kRngDiscipline = "rng-discipline";
const char *const kSchemaDrift = "schema-drift";
const char *const kIncludeGraph = "include-graph";
const char *const kSuppression = "suppression";

bool
isHeaderPath(const std::string &path)
{
    return path.ends_with(".hh") || path.ends_with(".h") ||
           path.ends_with(".hpp");
}

/** The src/ module a path belongs to ("" when not under src/). */
std::string
moduleOf(const std::string &path)
{
    if (!path.starts_with("src/"))
        return "";
    const std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos)
        return "";
    return path.substr(4, slash - 4);
}

/**
 * The CMake layering DAG, transitively closed: module -> modules it may
 * include from (itself is always allowed). A module missing here is a
 * finding: new subsystems must take a conscious layering position.
 */
const std::map<std::string, std::set<std::string>> &
layerDeps()
{
    static const std::map<std::string, std::set<std::string>> deps = {
        { "common", {} },
        { "compression", { "common" } },
        { "fault", { "common" } },
        { "cache", { "common" } },
        { "lint", { "common" } },
        { "hybrid", { "common", "cache", "compression", "fault" } },
        { "workload", { "common", "compression" } },
        { "replay",
          { "common", "cache", "compression", "fault", "hybrid" } },
        { "hierarchy",
          { "common", "cache", "compression", "fault", "hybrid",
            "workload", "replay" } },
        { "forecast",
          { "common", "cache", "compression", "fault", "hybrid",
            "workload", "replay", "hierarchy" } },
        { "sim",
          { "common", "cache", "compression", "fault", "hybrid",
            "workload", "replay", "hierarchy", "forecast" } },
        { "check",
          { "common", "cache", "compression", "fault", "hybrid",
            "workload", "replay", "hierarchy", "forecast", "sim" } },
        { "serve",
          { "common", "cache", "compression", "fault", "hybrid",
            "workload", "replay", "hierarchy", "forecast", "sim" } },
        { "ingest",
          { "common", "cache", "compression", "fault", "hybrid",
            "workload", "replay", "hierarchy", "forecast", "sim",
            "check" } },
    };
    return deps;
}

/** HLLC_<PATH>_HH expected for @p path (leading "src/" dropped). */
std::string
expectedGuard(const std::string &path)
{
    std::string stem = path.starts_with("src/") ? path.substr(4) : path;
    const std::size_t dot = stem.rfind('.');
    if (dot != std::string::npos)
        stem = stem.substr(0, dot);
    std::string guard = "HLLC_";
    for (char c : stem) {
        guard += std::isalnum(static_cast<unsigned char>(c))
            ? static_cast<char>(
                  std::toupper(static_cast<unsigned char>(c)))
            : '_';
    }
    return guard + "_HH";
}

/** Context shared by the per-file rule engines. */
struct FileLint
{
    const std::string &path;
    const CodeView &view;
    std::vector<Finding> &findings;

    void
    report(const char *rule, int line, std::string message)
    {
        findings.push_back({ path, line, rule, std::move(message) });
    }
};

void
checkDeterminism(FileLint &ctx)
{
    if (ctx.path.starts_with("src/common/rng."))
        return;
    // The project's one RNG ban list (rng-discipline only checks how
    // Xoshiro256StarStar is seeded). Engine types are banned wherever
    // they appear; plain functions only when actually called (an
    // identifier named `rand` is legal).
    static const std::set<std::string> engines = {
        "random_device", "mt19937",      "mt19937_64",
        "default_random_engine",         "minstd_rand",
        "minstd_rand0",  "ranlux24",     "ranlux48",
        "knuth_b",       "random_shuffle",
    };
    static const std::set<std::string> calls = {
        "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48",
        "pthread_self", "gettid",
    };
    const CodeView &v = ctx.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
        const Token &tok = v.code[i];
        if (tok.kind != TokKind::Identifier || v.memberAccessBefore(i))
            continue;
        if (engines.count(tok.text) != 0) {
            ctx.report(kDeterminism, tok.line,
                       "'" + tok.text + "' is a non-deterministic source;"
                       " derive randomness from common/rng streams");
            continue;
        }
        if (calls.count(tok.text) != 0 && v.callAfter(i)) {
            ctx.report(kDeterminism, tok.line,
                       "'" + tok.text + "()' is non-deterministic;"
                       " derive randomness from common/rng streams");
            continue;
        }
        // Seeding from the wall clock: time(nullptr) / time(NULL) /
        // time(0).
        if (tok.text == "time" && v.callAfter(i) &&
            (v.isIdent(i + 2, "nullptr") || v.isIdent(i + 2, "NULL") ||
             (i + 2 < v.code.size() &&
              v.code[i + 2].kind == TokKind::Number &&
              v.code[i + 2].text == "0")) &&
            v.isPunct(i + 3, ')')) {
            ctx.report(kDeterminism, tok.line,
                       "seeding from the wall clock breaks grid"
                       " reproducibility; use common/rng childStream");
        }
        if (tok.text == "get_id" &&
            v.qualifierBefore(i) == "this_thread") {
            ctx.report(kDeterminism, tok.line,
                       "thread-id-derived values break the jobs=1 vs"
                       " jobs=N contract; key on the grid index instead");
        }
    }
}

void
checkAtomicIo(FileLint &ctx)
{
    if (ctx.path.starts_with("src/common/serialize."))
        return;
    static const std::set<std::string> types = { "ofstream", "wofstream",
                                                 "fstream" };
    static const std::set<std::string> calls = {
        "fopen", "fopen64", "freopen", "creat", "mkstemp", "tmpfile",
    };
    const CodeView &v = ctx.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
        const Token &tok = v.code[i];
        if (tok.kind != TokKind::Identifier || v.memberAccessBefore(i))
            continue;
        const bool banned_type = types.count(tok.text) != 0;
        const bool banned_call =
            calls.count(tok.text) != 0 && v.callAfter(i);
        if (banned_type || banned_call) {
            ctx.report(kAtomicIo, tok.line,
                       "raw file creation via '" + tok.text +
                       "' can leave torn output on a crash; write"
                       " through serial::writeFileAtomic");
        }
    }
}

void
checkAtomicRename(FileLint &ctx)
{
    // serialize.cc owns the rename(2) that commits an atomic write (and
    // fsyncs the parent directory afterwards); everywhere else a raw
    // rename publishes a file whose durability is unknown.
    if (ctx.path.starts_with("src/common/serialize."))
        return;
    static const std::set<std::string> calls = { "rename", "renameat",
                                                 "renameat2" };
    const CodeView &v = ctx.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
        const Token &tok = v.code[i];
        if (tok.kind != TokKind::Identifier || v.memberAccessBefore(i))
            continue;
        if (calls.count(tok.text) == 0 || !v.callAfter(i))
            continue;
        const std::string qual = v.qualifierBefore(i);
        if (!qual.empty() && qual != "std" && qual != "filesystem")
            continue; // somebody else's rename()
        ctx.report(kAtomicRename, tok.line,
                   "'" + tok.text + "' outside common/serialize bypasses"
                   " the atomic-write protocol (tmp + fsync + rename +"
                   " parent-dir fsync); go through"
                   " serial::writeFileAtomic");
    }
}

void
checkLocale(FileLint &ctx)
{
    if (ctx.path.starts_with("src/common/numfmt."))
        return;
    static const std::set<std::string> calls = {
        "to_string", "setprecision", "stod",   "stof",   "stold",
        "strtod",    "strtof",       "strtold", "atof",
    };
    const CodeView &v = ctx.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
        const Token &tok = v.code[i];
        if (tok.kind != TokKind::Identifier || v.memberAccessBefore(i))
            continue;
        if (calls.count(tok.text) == 0 || !v.callAfter(i))
            continue;
        const std::string qual = v.qualifierBefore(i);
        if (!qual.empty() && qual != "std")
            continue; // somebody else's to_string
        ctx.report(kLocale, tok.line,
                   "'" + tok.text + "' honours the process locale;"
                   " use common/numfmt (formatDouble/formatU64/"
                   "parseDoubleExact)");
    }
}

void
checkNoExitInLibrary(FileLint &ctx)
{
    // Only library code: CLI mains (tools/bench/examples) and tests may
    // terminate the process. logging owns the sanctioned sinks.
    if (!ctx.path.starts_with("src/") ||
        ctx.path.starts_with("src/common/logging.")) {
        return;
    }
    static const std::set<std::string> calls = {
        "exit", "_exit", "_Exit", "quick_exit", "abort",
    };
    const CodeView &v = ctx.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
        const Token &tok = v.code[i];
        if (tok.kind != TokKind::Identifier || v.memberAccessBefore(i))
            continue;
        if (calls.count(tok.text) == 0 || !v.callAfter(i))
            continue;
        const std::string qual = v.qualifierBefore(i);
        if (!qual.empty() && qual != "std")
            continue;
        ctx.report(kNoExit, tok.line,
                   "library code must not '" + tok.text +
                   "'; throw hllc::IoError (fatal() lives in CLI"
                   " mains)");
    }
}

void
checkHeaderHygiene(FileLint &ctx)
{
    const CodeView &v = ctx.view;
    const bool header = isHeaderPath(ctx.path);

    if (header) {
        // Include guard: the first two directives must be
        // #ifndef/#define of the path-derived name.
        const std::string want = expectedGuard(ctx.path);
        const std::vector<Token> &directives = v.directives;
        if (directives.size() < 2 || directives[0].text != "ifndef" ||
            directives[1].text != "define" ||
            directives[1].payload != directives[0].payload) {
            ctx.report(kHeaderHygiene,
                       directives.empty() ? 1 : directives[0].line,
                       "header must open with the include guard"
                       " #ifndef/#define " + want);
        } else if (directives[0].payload != want) {
            ctx.report(kHeaderHygiene, directives[0].line,
                       "include guard '" + directives[0].payload +
                       "' does not match the path-derived name '" +
                       want + "'");
        }
        for (const Token &dir : directives) {
            if (dir.text == "pragma" && dir.payload.starts_with("once")) {
                ctx.report(kHeaderHygiene, dir.line,
                           "#pragma once: this project uses named"
                           " include guards (" + want + ")");
            }
        }
        for (std::size_t i = 0; i + 1 < v.code.size(); ++i) {
            if (v.isIdent(i, "using") && v.isIdent(i + 1, "namespace")) {
                ctx.report(kHeaderHygiene, v.code[i].line,
                           "'using namespace' in a header leaks into"
                           " every includer");
            }
        }
    }

    // Include-graph layering: modules may only include from layers the
    // CMake DAG says they link against.
    const std::string module = moduleOf(ctx.path);
    if (module.empty())
        return; // tools/bench/tests/examples may include anything
    const auto &deps = layerDeps();
    const auto self = deps.find(module);
    for (const Token &tok : v.directives) {
        if (tok.text != "include")
            continue;
        const std::string &arg = tok.payload;
        if (arg.size() < 2 || arg.front() != '"')
            continue; // system include
        const std::string target = arg.substr(1, arg.size() - 2);
        const std::size_t slash = target.find('/');
        if (slash == std::string::npos)
            continue; // same-directory include
        const std::string target_module = target.substr(0, slash);
        if (target_module == module)
            continue;
        if (self == deps.end()) {
            ctx.report(kHeaderHygiene, tok.line,
                       "module '" + module + "' is not in the layering"
                       " table; add it to lint/rules.cc layerDeps()");
            return;
        }
        if (deps.find(target_module) == deps.end()) {
            ctx.report(kHeaderHygiene, tok.line,
                       "include of unknown module '" + target_module +
                       "'; add it to lint/rules.cc layerDeps()");
            continue;
        }
        if (self->second.count(target_module) == 0) {
            ctx.report(kHeaderHygiene, tok.line,
                       "layering violation: module '" + module +
                       "' must not include from '" + target_module +
                       "' (see the CMake dependency DAG)");
        }
    }
}

} // anonymous namespace

const std::vector<std::string> &
allRules()
{
    static const std::vector<std::string> rules = {
        kDeterminism,    kAtomicIo,      kAtomicRename,
        kLocale,         kNoExit,        kHeaderHygiene,
        kFailpointCoverage, kLockDiscipline, kRngDiscipline,
        kSchemaDrift,    kIncludeGraph,  kSuppression,
    };
    return rules;
}

CodeView::CodeView(std::vector<Token> tokens)
{
    for (Token &tok : tokens) {
        if (tok.kind == TokKind::Comment)
            comments.push_back(std::move(tok));
        else if (tok.kind == TokKind::Directive)
            directives.push_back(std::move(tok));
        else
            code.push_back(std::move(tok));
    }
}

std::size_t
CodeView::matchParen(std::size_t open) const
{
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        if (isPunct(i, '('))
            ++depth;
        else if (isPunct(i, ')') && --depth == 0)
            return i + 1;
    }
    return code.size();
}

void
checkTokenRules(const std::string &path, const CodeView &view,
                std::vector<Finding> &findings)
{
    FileLint ctx{ path, view, findings };
    checkDeterminism(ctx);
    checkAtomicIo(ctx);
    checkAtomicRename(ctx);
    checkLocale(ctx);
    checkNoExitInLibrary(ctx);
    checkHeaderHygiene(ctx);
}

std::vector<Waiver>
collectWaivers(const std::string &path, const CodeView &view,
               std::vector<Finding> &findings)
{
    static const std::string marker = "hllc-lint:";
    FileLint ctx{ path, view, findings };
    // Lines holding code; a directive line counts (a waiver above an
    // #include covers it).
    std::set<int> code_lines;
    for (const Token &tok : view.code)
        code_lines.insert(tok.line);
    for (const Token &tok : view.directives)
        code_lines.insert(tok.line);

    std::vector<Waiver> out;
    for (const Token &comment : view.comments) {
        const std::size_t at = comment.text.find(marker);
        if (at == std::string::npos)
            continue;
        std::size_t pos = at + marker.size();
        while (pos < comment.text.size() &&
               std::isspace(static_cast<unsigned char>(comment.text[pos])))
            ++pos;
        if (comment.text.compare(pos, 6, "allow(") != 0) {
            ctx.report(kSuppression, comment.line,
                       "malformed waiver; expected 'hllc-lint:"
                       " allow(RULE) JUSTIFICATION'");
            continue;
        }
        pos += 6;
        const std::size_t close = comment.text.find(')', pos);
        if (close == std::string::npos) {
            ctx.report(kSuppression, comment.line,
                       "unterminated 'allow(' in waiver");
            continue;
        }
        // Prose quoting the waiver syntax ("allow(RULE)", angle-bracket
        // placeholders, ellipses) is not a waiver attempt: rule names
        // are strictly [a-z-].
        bool prose = false;
        for (std::size_t i = pos; i < close; ++i) {
            const char c = comment.text[i];
            if (!std::islower(static_cast<unsigned char>(c)) &&
                c != '-' && c != ',' &&
                !std::isspace(static_cast<unsigned char>(c))) {
                prose = true;
                break;
            }
        }
        if (prose)
            continue;
        Waiver sup;
        sup.firstLine = comment.line;
        sup.lastLine = comment.endLine;
        std::string name;
        for (std::size_t i = pos; i <= close; ++i) {
            const char c = comment.text[i];
            if (c == ',' || c == ')') {
                if (std::find(allRules().begin(), allRules().end(),
                              name) == allRules().end()) {
                    ctx.report(kSuppression, comment.line,
                               "waiver names unknown rule '" + name +
                               "'");
                } else {
                    sup.rules.insert(name);
                }
                name.clear();
            } else if (!std::isspace(static_cast<unsigned char>(c))) {
                name += c;
            }
        }
        const std::string justification = comment.text.substr(close + 1);
        if (std::all_of(justification.begin(), justification.end(),
                        [](char c) {
                            return std::isspace(
                                static_cast<unsigned char>(c));
                        })) {
            ctx.report(kSuppression, comment.line,
                       "waiver needs a justification after allow(...)");
        }
        // A comment sharing its line with code waives that line. A
        // standalone comment (possibly continued over further comment
        // lines) waives the next line that holds code.
        if (code_lines.count(comment.line) == 0) {
            const auto next = code_lines.upper_bound(sup.lastLine);
            if (next != code_lines.end())
                sup.lastLine = *next;
        }
        if (!sup.rules.empty())
            out.push_back(std::move(sup));
    }
    return out;
}

} // namespace hllc::lint
