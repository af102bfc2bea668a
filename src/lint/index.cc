#include "lint/index.hh"

#include <cctype>
#include <set>

namespace hllc::lint
{

namespace
{

/**
 * Keywords never recorded as references (they carry no cross-file
 * meaning) and never taken for a function name.
 */
const std::set<std::string> &
keywords()
{
    static const std::set<std::string> words = {
        "alignas",  "alignof",  "auto",      "bool",     "break",
        "case",     "catch",    "char",      "class",    "const",
        "constexpr", "const_cast", "continue", "decltype", "default",
        "delete",   "do",       "double",    "dynamic_cast", "else",
        "enum",     "explicit", "extern",    "false",    "final",
        "float",    "for",      "friend",    "goto",     "if",
        "inline",   "int",      "long",      "mutable",  "namespace",
        "new",      "noexcept", "nullptr",   "operator", "override",
        "private",  "protected", "public",   "register", "reinterpret_cast",
        "return",   "short",    "signed",    "sizeof",   "static",
        "static_assert", "static_cast", "struct", "switch", "template",
        "this",     "throw",    "true",      "try",      "typedef",
        "typeid",   "typename", "union",     "unsigned", "using",
        "virtual",  "void",     "volatile",  "while",
    };
    return words;
}

/** Keywords that open a plain control-flow block, never a function. */
const std::set<std::string> &
controlKeywords()
{
    static const std::set<std::string> words = {
        "if", "else", "for", "while", "switch", "do", "try", "catch",
    };
    return words;
}

/** `::x` with nothing (or a non-identifier) before the `::`. */
bool
globalQualified(const CodeView &v, std::size_t i)
{
    if (i < 2 || !v.isPunct(i - 1, ':') || !v.isPunct(i - 2, ':'))
        return false;
    if (i < 3 || !v.isIdent(i - 3))
        return true;
    // `return ::open(...)`: a statement keyword before `::` does not
    // qualify the name; only a real scope name does.
    static const std::set<std::string> statement_keywords = {
        "return", "throw", "co_return", "co_yield", "else", "do",
    };
    return statement_keywords.count(v.code[i - 3].text) != 0;
}

/** Last identifier text in code[(begin, end)); "" when none. */
std::string
lastIdentIn(const CodeView &v, std::size_t begin, std::size_t end)
{
    std::string last;
    for (std::size_t i = begin; i < end; ++i) {
        if (v.isIdent(i))
            last = v.code[i].text;
    }
    return last;
}

/** The block-context classifier's verdict for one `{`. */
enum class CtxKind
{
    Class,
    Function,
    Block, //!< namespace, enum, statement, lambda or initializer
};

/** One open brace on the context stack. */
struct Ctx
{
    CtxKind kind = CtxKind::Block;
    std::string name;              //!< class or function name
    std::size_t fnIndex = SIZE_MAX; //!< FunctionDef slot when Function
    std::vector<std::size_t> locks; //!< LockScopes this brace closes
};

/**
 * Start of the head of the `{` at @p brace: scan back to the nearest
 * `;` / `{` / `}` at paren balance zero (so `for (a; b; c) {` keeps its
 * whole head).
 */
std::size_t
headBegin(const CodeView &v, std::size_t brace)
{
    int balance = 0;
    std::size_t i = brace;
    while (i > 0) {
        --i;
        if (v.isPunct(i, ')'))
            ++balance;
        else if (v.isPunct(i, '('))
            --balance;
        else if (balance == 0 &&
                 (v.isPunct(i, ';') || v.isPunct(i, '{') ||
                  v.isPunct(i, '}'))) {
            return i + 1;
        }
    }
    return 0;
}

/** First identifier after @p from that is not a macro call `NAME(...)`. */
std::string
nameAfterKeyword(const CodeView &v, std::size_t from, std::size_t end)
{
    for (std::size_t i = from; i < end; ++i) {
        if (!v.isIdent(i) || v.isIdent(i, "final"))
            continue; // struct X final
        if (v.isPunct(i + 1, '(')) {
            i = v.matchParen(i + 1) - 1; // attribute macro
            continue;
        }
        return v.code[i].text;
    }
    return "";
}

/** Index-building walk over one file's code tokens. */
struct Indexer
{
    const CodeView &v;
    FileIndex &out;
    std::vector<Ctx> stack;
    int lastLine = 1;

    /** Innermost enclosing class/struct name ("" at other scopes). */
    std::string
    enclosingClass() const
    {
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            if (it->kind == CtxKind::Class)
                return it->name;
        }
        return "";
    }

    bool
    inFunctionNamed(const std::string &name) const
    {
        for (const Ctx &ctx : stack) {
            if (ctx.kind == CtxKind::Function && ctx.name == name)
                return true;
        }
        return false;
    }

    bool
    inFunctionBody() const
    {
        for (const Ctx &ctx : stack) {
            if (ctx.kind == CtxKind::Function)
                return true;
        }
        return false;
    }

    /** Pop the innermost brace, ending its function and lock scopes. */
    void
    close(int line)
    {
        const Ctx ctx = std::move(stack.back());
        stack.pop_back();
        if (ctx.fnIndex != SIZE_MAX)
            out.functions[ctx.fnIndex].bodyEnd = line;
        for (std::size_t lock : ctx.locks)
            out.lockScopes[lock].endLine = line;
    }

    void classifyBrace(std::size_t brace);
    void handleIdent(std::size_t i);
    void run();
};

void
Indexer::classifyBrace(std::size_t brace)
{
    Ctx ctx;
    const std::size_t begin = headBegin(v, brace);

    bool block = inFunctionBody();
    bool has_class = false;
    for (std::size_t i = begin; i < brace; ++i) {
        if (v.isIdent(i)) {
            const std::string &text = v.code[i].text;
            if (controlKeywords().count(text) != 0 ||
                text == "namespace" || text == "enum")
                block = true;
            else if (text == "class" || text == "struct" ||
                     text == "union")
                has_class = true;
        } else if (v.isPunct(i, '=')) {
            block = true;
        }
    }

    if (block) {
        ctx.kind = CtxKind::Block;
    } else if (has_class) {
        ctx.kind = CtxKind::Class;
        for (std::size_t i = begin; i < brace; ++i) {
            if (v.isIdent(i, "class") || v.isIdent(i, "struct") ||
                v.isIdent(i, "union")) {
                ctx.name = nameAfterKeyword(v, i + 1, brace);
                break;
            }
        }
    } else {
        // A function definition iff the head holds `name(...)`.
        for (std::size_t i = begin; i < brace; ++i) {
            if (!v.isIdent(i) || !v.isPunct(i + 1, '(') ||
                keywords().count(v.code[i].text) != 0) {
                continue;
            }
            FunctionDef fn;
            fn.name = v.code[i].text;
            fn.line = v.code[begin].line;
            fn.bodyBegin = v.code[brace].line;
            // HLLC_REQUIRES(m) between the parameter list and the body.
            for (std::size_t k = v.matchParen(i + 1); k < brace; ++k) {
                if (v.isIdent(k, "HLLC_REQUIRES") &&
                    v.isPunct(k + 1, '(')) {
                    const std::size_t close = v.matchParen(k + 1);
                    for (std::size_t a = k + 2; a + 1 < close; ++a) {
                        if (v.isIdent(a))
                            fn.requiresMutexes.push_back(v.code[a].text);
                    }
                }
            }
            ctx.kind = CtxKind::Function;
            ctx.name = fn.name;
            ctx.fnIndex = out.functions.size();
            out.functions.push_back(std::move(fn));
            break;
        }
    }
    stack.push_back(std::move(ctx));
}

void
Indexer::handleIdent(std::size_t i)
{
    const Token &tok = v.code[i];
    const bool called = v.callAfter(i);

    if (keywords().count(tok.text) == 0)
        out.refs.push_back(
            { tok.text, tok.line, !v.qualifierBefore(i).empty() });

    // HLLC_FAILPOINT("name") / shouldFail("name") literal sites.
    if ((tok.text == "HLLC_FAILPOINT" || tok.text == "shouldFail") &&
        called && i + 2 < v.code.size() &&
        v.code[i + 2].kind == TokKind::String) {
        out.failpoints.push_back({ v.code[i + 2].text, tok.line,
                                   tok.text == "HLLC_FAILPOINT" });
    }

    // Fields annotated HLLC_GUARDED_BY(m).
    if (tok.text == "HLLC_GUARDED_BY" && called && i >= 1 &&
        v.isIdent(i - 1)) {
        const std::size_t close = v.matchParen(i + 1);
        GuardedField field;
        field.name = v.code[i - 1].text;
        field.klass = enclosingClass();
        field.mutex = lastIdentIn(v, i + 2, close - 1);
        // The *name's* line, not the macro's: a declaration wrapped
        // across lines must still match its own reference.
        field.line = v.code[i - 1].line;
        if (!field.mutex.empty())
            out.guardedFields.push_back(std::move(field));
    }

    // `MutexLock lock(expr);` — the scope runs to the end of the
    // enclosing brace, recorded when that brace closes.
    if (tok.text == "MutexLock" && v.isIdent(i + 1) &&
        v.isPunct(i + 2, '(')) {
        const std::size_t close = v.matchParen(i + 2);
        LockScope scope;
        scope.mutex = lastIdentIn(v, i + 3, close - 1);
        scope.beginLine = tok.line;
        if (!scope.mutex.empty() && !stack.empty()) {
            stack.back().locks.push_back(out.lockScopes.size());
            out.lockScopes.push_back(std::move(scope));
        }
    }

    // Fallible syscall wrappers for failpoint-coverage.
    static const std::set<std::string> syscalls = {
        "open", "write", "rename", "fsync", "fork",
    };
    if (syscalls.count(tok.text) != 0 && called &&
        !v.memberAccessBefore(i)) {
        bool site = globalQualified(v, i);
        if (!site && !(i >= 2 && v.isPunct(i - 1, ':') &&
                       v.isPunct(i - 2, ':'))) {
            // Unqualified: only clear call syntax counts (`= write(`,
            // `if (fsync(`, `return fork()`); an identifier or `*`/`&`
            // before the name reads as a declaration and is skipped.
            if (i == 0) {
                site = false;
            } else if (v.isIdent(i - 1)) {
                site = v.isIdent(i - 1, "return") ||
                       v.isIdent(i - 1, "throw");
            } else if (v.code[i - 1].kind == TokKind::Punct) {
                static const std::string callish = "=(,;{!?:|";
                site = v.code[i - 1].text.size() == 1 &&
                       callish.find(v.code[i - 1].text[0]) !=
                           std::string::npos;
            }
        }
        if (site && inFunctionBody())
            out.syscalls.push_back({ tok.text, tok.line });
    }

    // Xoshiro256StarStar constructions for rng-discipline:
    // `Xoshiro256StarStar rng(expr)` / `... rng = expr;` /
    // `Xoshiro256StarStar(expr)` — anything that actually seeds.
    if (tok.text == "Xoshiro256StarStar" && !v.memberAccessBefore(i)) {
        const std::size_t n = i + 1;
        std::size_t init_begin = 0;
        std::size_t init_end = 0;
        if (v.isIdent(n)) {
            if (v.isPunct(n + 1, '(')) {
                init_begin = n + 2;
                init_end = v.matchParen(n + 1) - 1;
            } else if (v.isPunct(n + 1, '=')) {
                init_begin = n + 2;
                init_end = init_begin;
                while (init_end < v.code.size() &&
                       !v.isPunct(init_end, ';')) {
                    ++init_end;
                }
            }
        } else if (v.isPunct(n, '(')) {
            init_begin = n + 1;
            init_end = v.matchParen(n) - 1;
        }
        if (init_begin != 0 && init_end > init_begin) {
            RngSite site;
            site.line = tok.line;
            for (std::size_t k = init_begin; k < init_end; ++k) {
                if (v.isIdent(k))
                    site.seedIdents.push_back(v.code[k].text);
            }
            out.rngSites.push_back(std::move(site));
        }
    }
}

/** Literal JSON object keys: `\"key\":` inside a string's text. */
void
collectJsonKeys(const Token &tok, std::vector<JsonKey> &keys)
{
    // Escape sequences are preserved verbatim by the lexer.
    const std::string &s = tok.text;
    for (std::size_t p = 0; p + 3 < s.size(); ++p) {
        if (s[p] != '\\' || s[p + 1] != '"')
            continue;
        std::size_t q = p + 2;
        std::string key;
        while (q < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[q])) ||
                s[q] == '_' || s[q] == '.' || s[q] == '-')) {
            key += s[q++];
        }
        if (key.empty() || q + 1 >= s.size() || s[q] != '\\' ||
            s[q + 1] != '"') {
            continue;
        }
        q += 2;
        while (q < s.size() && s[q] == ' ')
            ++q;
        if (q < s.size() && s[q] == ':') {
            keys.push_back({ key, tok.line });
            p = q - 1;
        }
    }
}

void
Indexer::run()
{
    for (std::size_t i = 0; i < v.code.size(); ++i) {
        const Token &tok = v.code[i];
        lastLine = tok.endLine > 0 ? tok.endLine : tok.line;

        if (tok.kind == TokKind::Identifier) {
            handleIdent(i);
        } else if (tok.kind == TokKind::String) {
            // The closed catalog: string literals inside allFailpoints()
            // (the engine only consults common/failpoint.cc's).
            if (inFunctionNamed("allFailpoints"))
                out.catalog.push_back({ tok.text, tok.line });
            collectJsonKeys(tok, out.jsonKeys);
        } else if (v.isPunct(i, '{')) {
            classifyBrace(i);
        } else if (v.isPunct(i, '}') && !stack.empty()) {
            close(tok.line);
        }
    }
    // Unterminated scopes (macro-heavy or malformed input): close at
    // the last seen line so line-range queries stay sane.
    while (!stack.empty())
        close(lastLine);
}

} // anonymous namespace

const FileIndex *
TreeIndex::byPath(const std::string &path) const
{
    for (const FileIndex &file : files) {
        if (file.path == path)
            return &file;
    }
    return nullptr;
}

FileIndex
indexFile(const std::string &path, const std::string &content)
{
    const CodeView view(lex(content));
    FileIndex out;
    out.path = path;
    for (const Token &tok : view.directives) {
        if (tok.text == "include" && tok.payload.size() >= 2 &&
            tok.payload.front() == '"' && tok.payload.back() == '"') {
            out.includes.push_back(
                { tok.payload.substr(1, tok.payload.size() - 2),
                  tok.line });
        }
    }
    Indexer{ view, out, {}, 1 }.run();
    checkTokenRules(path, view, out.findings);
    out.waivers = collectWaivers(path, view, out.findings);
    return out;
}

} // namespace hllc::lint
