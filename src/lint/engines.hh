/**
 * @file
 * The five semantic rule engines over the merged tree index.
 *
 * Each engine enforces one cross-file contract that the token-level
 * rules in lint/rules.cc cannot see (DESIGN.md §11 maps each rule to
 * the incident that motivated it):
 *
 *  - `failpoint-coverage`: every fallible syscall wrapper site
 *    (`::open`, `::write`, `::rename`, `::fsync`, `::fork`) outside
 *    common/serialize must be reachable — through the name-based call
 *    graph — from a function containing a compiled-in HLLC_FAILPOINT,
 *    and the name literals at HLLC_FAILPOINT sites must exactly match
 *    the closed catalog in common/failpoint.cc, in both directions.
 *  - `lock-discipline`: a field annotated HLLC_GUARDED_BY(m) may only
 *    be referenced inside a scope holding `MutexLock lock(m)` (or in a
 *    function annotated HLLC_REQUIRES(m), or the owning class's
 *    constructor/destructor). This is the GCC-side stand-in for
 *    Clang's -Wthread-safety, which only the clang-tsa CI job runs.
 *  - `rng-discipline`: Xoshiro256StarStar constructions in
 *    sim/serve/ingest must be seeded from childStream / childSeed /
 *    fork / a seed-derived expression — ad hoc seeds fork the
 *    determinism contract silently. (The banned std engines and
 *    rand() calls are the token rule `determinism`'s.)
 *  - `schema-drift`: the literal JSON keys each hllc-*-v1 exporter
 *    emits must equal the schema-keys table in EXPERIMENTS.md —
 *    renaming or adding an export field without documenting it is a
 *    finding in both directions.
 *  - `include-graph`: no include cycles among project headers.
 *
 * Engines only *read* the index; the driver applies waivers and
 * orders the findings.
 */

#ifndef HLLC_LINT_ENGINES_HH
#define HLLC_LINT_ENGINES_HH

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/index.hh"

namespace hllc::lint
{

/** Schema name → the set of keys its EXPERIMENTS.md table lists. */
using SchemaTables = std::map<std::string, std::set<std::string>>;

/**
 * Parse the `schema-keys: <name>` tables out of EXPERIMENTS.md text:
 * each table starts with that marker line and lists whitespace-
 * separated key names on the following lines, ending at a blank line
 * or a code fence.
 */
SchemaTables parseSchemaTables(const std::string &text);

/**
 * Run every semantic engine over @p tree. @p schemaTables comes from
 * parseSchemaTables() over EXPERIMENTS.md (empty when the file is
 * absent). Findings come back unsorted and unwaived.
 */
std::vector<Finding> runSemanticEngines(const TreeIndex &tree,
                                        const SchemaTables &schemaTables);

} // namespace hllc::lint

#endif // HLLC_LINT_ENGINES_HH
