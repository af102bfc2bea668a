#include "lint/lint.hh"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <map>

#include "common/error.hh"
#include "common/numfmt.hh"
#include "common/serialize.hh"
#include "lint/engines.hh"

namespace fs = std::filesystem;

namespace hllc::lint
{

namespace
{

bool
lintableExtension(const fs::path &path)
{
    const std::string ext = path.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".hh" ||
           ext == ".h" || ext == ".hpp";
}

std::string
readFile(const fs::path &path)
{
    const std::vector<std::uint8_t> bytes =
        serial::readFileBytes(path.string());
    return std::string(bytes.begin(), bytes.end());
}

/** JSON string escaping for the report emitter. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                const char *hex = "0123456789abcdef";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * The semantic engines over @p tree, then one waiver filter over the
 * token and semantic findings alike (a `suppression` finding is never
 * waivable). Sorted by file then line.
 */
std::vector<Finding>
checkTree(const TreeIndex &tree, const SchemaTables &schemaTables)
{
    std::vector<Finding> all;
    for (const FileIndex &file : tree.files)
        all.insert(all.end(), file.findings.begin(), file.findings.end());
    std::vector<Finding> semantic = runSemanticEngines(tree, schemaTables);
    all.insert(all.end(), std::make_move_iterator(semantic.begin()),
               std::make_move_iterator(semantic.end()));

    std::erase_if(all, [&](const Finding &finding) {
        const FileIndex *file = tree.byPath(finding.file);
        return finding.rule != "suppression" && file != nullptr &&
               std::any_of(file->waivers.begin(), file->waivers.end(),
                           [&](const Waiver &waiver) {
                               return waiver.covers(finding.rule,
                                                    finding.line);
                           });
    });
    std::stable_sort(all.begin(), all.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.file != b.file ? a.file < b.file
                                                 : a.line < b.line;
                     });
    return all;
}

} // anonymous namespace

std::vector<std::string>
collectLintFiles(const std::string &root_str,
                 const std::vector<std::string> &paths)
{
    const fs::path root =
        root_str.empty() ? fs::path(".") : fs::path(root_str);
    std::vector<std::string> requested = paths;
    if (requested.empty())
        requested = { "src", "tools", "bench", "tests", "examples" };
    std::vector<std::string> files;
    for (const std::string &entry : requested) {
        const fs::path abs = root / entry;
        std::error_code ec;
        if (fs::is_regular_file(abs, ec)) {
            files.push_back(
                fs::path(entry).generic_string());
            continue;
        }
        if (!fs::is_directory(abs, ec)) {
            throw IoError("lint path does not exist: " + abs.string());
        }
        for (fs::recursive_directory_iterator it(abs, ec), end;
             it != end; it.increment(ec)) {
            if (ec)
                throw IoError("cannot walk " + abs.string() + ": " +
                              ec.message());
            if (!it->is_regular_file() ||
                !lintableExtension(it->path())) {
                continue;
            }
            files.push_back(
                it->path().lexically_relative(root).generic_string());
        }
        if (ec)
            throw IoError("cannot walk " + abs.string() + ": " +
                          ec.message());
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

RunResult
analyzeTree(const std::string &root, const std::vector<std::string> &paths)
{
    const fs::path root_path = root.empty() ? fs::path(".")
                                            : fs::path(root);
    TreeIndex tree;
    for (const std::string &file : collectLintFiles(root, paths))
        tree.files.push_back(indexFile(file, readFile(root_path / file)));

    SchemaTables schema_tables;
    const fs::path experiments = root_path / "EXPERIMENTS.md";
    std::error_code ec;
    if (fs::is_regular_file(experiments, ec))
        schema_tables = parseSchemaTables(readFile(experiments));

    RunResult result;
    result.findings = checkTree(tree, schema_tables);
    result.filesScanned = tree.files.size();
    return result;
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &content)
{
    TreeIndex tree;
    tree.files.push_back(indexFile(path, content));
    return checkTree(tree, {});
}

std::string
formatText(const RunResult &result)
{
    std::string out;
    for (const Finding &finding : result.findings) {
        out += finding.file + ":" +
               formatU64(static_cast<std::uint64_t>(
                   finding.line < 0 ? 0 : finding.line)) +
               ": [" + finding.rule + "] " + finding.message + "\n";
    }
    out += formatU64(result.findings.size()) + " finding(s) in " +
           formatU64(result.filesScanned) + " file(s)\n";
    return out;
}

std::string
formatJson(const RunResult &result)
{
    std::map<std::string, std::uint64_t> counts;
    for (const std::string &rule : allRules())
        counts[rule] = 0;
    for (const Finding &finding : result.findings)
        ++counts[finding.rule];

    std::string out = "{\n  \"schema\": \"hllc-lint-v1\",\n";
    out += "  \"files_scanned\": " + formatU64(result.filesScanned) +
           ",\n";
    out += "  \"counts\": {";
    bool first = true;
    for (const auto &entry : counts) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    \"" + jsonEscape(entry.first) + "\": " +
               formatU64(entry.second);
    }
    out += "\n  },\n  \"findings\": [";
    first = true;
    for (const Finding &finding : result.findings) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\"file\": \"" + jsonEscape(finding.file) +
               "\", \"line\": " +
               formatU64(static_cast<std::uint64_t>(
                   finding.line < 0 ? 0 : finding.line)) +
               ", \"rule\": \"" + jsonEscape(finding.rule) +
               "\", \"message\": \"" + jsonEscape(finding.message) +
               "\"}";
    }
    out += first ? "]\n}\n" : "\n  ]\n}\n";
    return out;
}

} // namespace hllc::lint
