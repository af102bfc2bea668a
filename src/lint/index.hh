/**
 * @file
 * The per-file pass of `hllc_lint` and the index it produces.
 *
 * The token rules in lint/rules.hh reason about one token at a time;
 * the five semantic rules (failpoint-coverage, lock-discipline,
 * rng-discipline, schema-drift, include-graph) need to know *what the
 * tokens mean across files*: which function a syscall lives in, which
 * MutexLock scope covers a guarded-field reference, which JSON keys an
 * exporter emits. indexFile() lexes a file once and, from that one
 * token stream, runs the token rules, collects the waivers and
 * extracts exactly those facts — function extents, identifier
 * references, call sites, string literals with location,
 * failpoint/guard/lock annotations — into one FileIndex. The driver
 * (lint/lint.hh) merges them into a TreeIndex for the engines.
 *
 * It is a heuristic indexer, not a compiler: function extents come from
 * brace tracking, call-graph edges from name references. The engines
 * are written so that imprecision degrades toward false negatives (a
 * missed finding), never toward a finding on correct code.
 */

#ifndef HLLC_LINT_INDEX_HH
#define HLLC_LINT_INDEX_HH

#include <string>
#include <vector>

#include "lint/rules.hh"

namespace hllc::lint
{

/** One function (or method) definition with a brace-tracked body. */
struct FunctionDef
{
    std::string name;  //!< unqualified
    int line = 0;      //!< line of the definition head
    int bodyBegin = 0; //!< line of the body's opening brace
    int bodyEnd = 0;   //!< line of the matching closing brace
    /** Mutex names from an HLLC_REQUIRES(...) on the definition. */
    std::vector<std::string> requiresMutexes;
};

/** One identifier occurrence (code tokens only, keywords excluded). */
struct IdentRef
{
    std::string name;
    int line = 0;
    bool qualified = false; //!< preceded by `Ns::` (so not a member)
};

/** One `::open(` / bare `open(` style fallible-syscall call. */
struct SyscallSite
{
    std::string name; //!< open / write / rename / fsync / fork
    int line = 0;
};

/** One HLLC_FAILPOINT("name") or shouldFail("name") literal site. */
struct FailpointSite
{
    std::string name; //!< the string literal
    int line = 0;
    bool macroSite = false; //!< true for HLLC_FAILPOINT, not shouldFail
};

/** One string entry of the closed catalog in allFailpoints(). */
struct CatalogEntry
{
    std::string name;
    int line = 0;
};

/** One field declared with HLLC_GUARDED_BY(mutex). */
struct GuardedField
{
    std::string name;
    std::string klass; //!< innermost enclosing class/struct
    std::string mutex; //!< last identifier of the annotation argument
    int line = 0;
};

/** The lines covered by one `MutexLock lock(expr);` scope. */
struct LockScope
{
    std::string mutex; //!< last identifier of the lock expression
    int beginLine = 0;
    int endLine = 0;
};

/** One seeded Xoshiro256StarStar construction, for rng-discipline. */
struct RngSite
{
    int line = 0;
    /** Identifiers in the initializer. */
    std::vector<std::string> seedIdents;
};

/** One literal JSON object key (`\"key\":`) inside a string literal. */
struct JsonKey
{
    std::string key;
    int line = 0;
};

/** One project `#include "..."` with its line. */
struct IncludeRef
{
    std::string path; //!< as written, e.g. common/rng.hh
    int line = 0;
};

/** Everything the lint needs to know about one file. */
struct FileIndex
{
    std::string path; //!< repo-relative, forward slashes
    std::vector<IncludeRef> includes;
    std::vector<FunctionDef> functions;
    std::vector<IdentRef> refs;
    std::vector<SyscallSite> syscalls;
    std::vector<FailpointSite> failpoints;
    std::vector<CatalogEntry> catalog; //!< strings in allFailpoints()
    std::vector<GuardedField> guardedFields;
    std::vector<LockScope> lockScopes;
    std::vector<RngSite> rngSites;
    std::vector<JsonKey> jsonKeys;
    std::vector<Waiver> waivers;
    /** Token-rule and `suppression` findings, before waivers. */
    std::vector<Finding> findings;
};

/** The whole-tree view: one FileIndex per walked file. */
struct TreeIndex
{
    std::vector<FileIndex> files;

    /** The index of @p path, or null when it was not walked. */
    const FileIndex *byPath(const std::string &path) const;
};

/**
 * The one pass over one file: lex @p content, run the token rules,
 * collect the waivers and build the index. @p path is repo-relative.
 */
FileIndex indexFile(const std::string &path, const std::string &content);

} // namespace hllc::lint

#endif // HLLC_LINT_INDEX_HH
