#include "lint/lexer.hh"

#include <cctype>

namespace hllc::lint
{

namespace
{

/** Cursor over the source text with 1-based line tracking. */
class Cursor
{
  public:
    explicit Cursor(const std::string &text) : text_(text) {}

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek(std::size_t ahead = 0) const
    {
        return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
    }
    char get()
    {
        const char c = text_[pos_++];
        if (c == '\n')
            ++line_;
        return c;
    }
    /**
     * Consume a backslash-newline continuation if one starts here;
     * returns true when something was skipped.
     */
    bool skipContinuation()
    {
        if (peek() != '\\')
            return false;
        std::size_t i = pos_ + 1;
        if (i < text_.size() && text_[i] == '\r')
            ++i;
        if (i >= text_.size() || text_[i] != '\n')
            return false;
        while (pos_ <= i)
            get();
        return true;
    }
    int line() const { return line_; }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;
    int line_ = 1;
};

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** `R`, `u8R`, `LR`, ... introduce a raw string when followed by '"'. */
bool
isRawPrefix(const std::string &ident)
{
    return ident == "R" || ident == "u8R" || ident == "uR" ||
           ident == "UR" || ident == "LR";
}

/** `u8`, `u`, `U`, `L` prefix an ordinary string or char literal. */
bool
isEncodingPrefix(const std::string &ident)
{
    return ident == "u8" || ident == "u" || ident == "U" || ident == "L";
}

/** Consume "..." or '...' after the opening quote; returns contents. */
std::string
lexQuoted(Cursor &cur, char quote)
{
    std::string out;
    while (!cur.atEnd()) {
        const char c = cur.get();
        if (c == quote)
            break;
        if (c == '\\' && !cur.atEnd()) {
            out += c;
            out += cur.get();
            continue;
        }
        // An unescaped newline means the literal was malformed; stop so
        // the rest of the file still lexes sanely.
        if (c == '\n')
            break;
        out += c;
    }
    return out;
}

/** Consume a raw string after `R"`, i.e. `delim( ... )delim"`. */
std::string
lexRawString(Cursor &cur)
{
    std::string delim;
    while (!cur.atEnd() && cur.peek() != '(' && cur.peek() != '\n' &&
           delim.size() < 16) {
        delim += cur.get();
    }
    if (cur.peek() == '(')
        cur.get();
    const std::string close = ")" + delim + "\"";
    std::string out;
    while (!cur.atEnd()) {
        if (cur.peek() == ')' ) {
            std::string tail;
            std::size_t i = 0;
            while (i < close.size() && cur.peek(i) != '\0' &&
                   cur.peek(i) == close[i]) {
                ++i;
            }
            if (i == close.size()) {
                for (std::size_t k = 0; k < close.size(); ++k)
                    cur.get();
                break;
            }
        }
        out += cur.get();
    }
    return out;
}

/**
 * Consume a user-defined-literal suffix directly after a string or char
 * literal (`"x"_sv`, `'c'_w`, `"s"s`). Without this the suffix would
 * surface as a stray Identifier token, which the indexer would
 * mistake for a reference.
 */
std::string
lexUdlSuffix(Cursor &cur)
{
    std::string suffix;
    if (isIdentStart(cur.peek())) {
        while (!cur.atEnd() && isIdentChar(cur.peek()))
            suffix += cur.get();
    }
    return suffix;
}

/** Consume a pp-number (handles 0x1F, 1'000, 1e+5, 2.5f). */
std::string
lexNumber(Cursor &cur, char first)
{
    std::string out(1, first);
    while (!cur.atEnd()) {
        const char c = cur.peek();
        const char prev = out.back();
        const bool exp_sign =
            (c == '+' || c == '-') &&
            (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P');
        if (isIdentChar(c) || c == '.' || c == '\'' || exp_sign) {
            out += cur.get();
            continue;
        }
        break;
    }
    return out;
}

/** Consume a // comment body (line continuations extend it). */
std::string
lexLineComment(Cursor &cur)
{
    std::string out;
    while (!cur.atEnd()) {
        if (cur.skipContinuation()) {
            out += ' ';
            continue;
        }
        if (cur.peek() == '\n')
            break;
        out += cur.get();
    }
    return out;
}

/** Consume a block comment body after the opening `slash-star`. */
std::string
lexBlockComment(Cursor &cur)
{
    std::string out;
    while (!cur.atEnd()) {
        if (cur.peek() == '*' && cur.peek(1) == '/') {
            cur.get();
            cur.get();
            break;
        }
        out += cur.get();
    }
    return out;
}

void
trim(std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    s = s.substr(b, e - b);
}

/**
 * Consume a preprocessor directive after the '#'. Block comments inside
 * it are skipped; a line comment or newline ends it.
 */
Token
lexDirective(Cursor &cur, int line, std::vector<Token> &extra_comments)
{
    Token tok;
    tok.kind = TokKind::Directive;
    tok.line = line;
    while (!cur.atEnd() &&
           (cur.peek() == ' ' || cur.peek() == '\t')) {
        cur.get();
    }
    while (!cur.atEnd() && isIdentChar(cur.peek()))
        tok.text += cur.get();
    while (!cur.atEnd()) {
        if (cur.skipContinuation()) {
            tok.payload += ' ';
            continue;
        }
        if (cur.peek() == '\n')
            break;
        if (cur.peek() == '/' && cur.peek(1) == '/') {
            Token comment;
            comment.kind = TokKind::Comment;
            comment.line = cur.line();
            cur.get();
            cur.get();
            comment.text = lexLineComment(cur);
            comment.endLine = cur.line();
            extra_comments.push_back(std::move(comment));
            break;
        }
        if (cur.peek() == '/' && cur.peek(1) == '*') {
            Token comment;
            comment.kind = TokKind::Comment;
            comment.line = cur.line();
            cur.get();
            cur.get();
            comment.text = lexBlockComment(cur);
            comment.endLine = cur.line();
            extra_comments.push_back(std::move(comment));
            tok.payload += ' ';
            continue;
        }
        tok.payload += cur.get();
    }
    trim(tok.payload);
    tok.endLine = cur.line();
    return tok;
}

} // anonymous namespace

std::vector<Token>
lex(const std::string &source)
{
    std::vector<Token> tokens;
    Cursor cur(source);
    bool line_start = true; // only whitespace seen so far on this line

    auto push = [&tokens](Token tok) {
        if (tok.endLine == 0)
            tok.endLine = tok.line;
        tokens.push_back(std::move(tok));
    };

    while (!cur.atEnd()) {
        const int line = cur.line();
        if (cur.skipContinuation())
            continue;
        const char c = cur.peek();

        if (c == '\n' || std::isspace(static_cast<unsigned char>(c))) {
            if (c == '\n')
                line_start = true;
            cur.get();
            continue;
        }

        if (c == '/' && cur.peek(1) == '/') {
            cur.get();
            cur.get();
            Token tok{ TokKind::Comment, lexLineComment(cur), "", line };
            tok.endLine = cur.line();
            push(std::move(tok));
            continue; // comments do not clear line_start
        }
        if (c == '/' && cur.peek(1) == '*') {
            cur.get();
            cur.get();
            Token tok{ TokKind::Comment, lexBlockComment(cur), "", line };
            tok.endLine = cur.line();
            push(std::move(tok));
            continue;
        }

        if (c == '#' && line_start) {
            cur.get();
            std::vector<Token> extra;
            push(lexDirective(cur, line, extra));
            for (Token &comment : extra)
                push(std::move(comment));
            continue;
        }
        line_start = false;

        if (c == '"') {
            cur.get();
            Token tok{ TokKind::String, lexQuoted(cur, '"'), "", line };
            tok.payload = lexUdlSuffix(cur);
            push(std::move(tok));
            continue;
        }
        if (c == '\'') {
            cur.get();
            Token tok{ TokKind::Char, lexQuoted(cur, '\''), "", line };
            tok.payload = lexUdlSuffix(cur);
            push(std::move(tok));
            continue;
        }

        if (isIdentStart(c)) {
            std::string ident;
            while (!cur.atEnd() && isIdentChar(cur.peek()))
                ident += cur.get();
            if (cur.peek() == '"' &&
                (isRawPrefix(ident) || isEncodingPrefix(ident))) {
                cur.get();
                const std::string body = isRawPrefix(ident)
                    ? lexRawString(cur)
                    : lexQuoted(cur, '"');
                Token tok{ TokKind::String, body, "", line };
                tok.payload = lexUdlSuffix(cur);
                tok.endLine = cur.line();
                push(std::move(tok));
                continue;
            }
            if (cur.peek() == '\'' && isEncodingPrefix(ident)) {
                cur.get();
                Token tok{ TokKind::Char, lexQuoted(cur, '\''), "",
                           line };
                tok.payload = lexUdlSuffix(cur);
                push(std::move(tok));
                continue;
            }
            push({ TokKind::Identifier, std::move(ident), "", line });
            continue;
        }

        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' &&
             std::isdigit(static_cast<unsigned char>(cur.peek(1))))) {
            cur.get();
            push({ TokKind::Number, lexNumber(cur, c), "", line });
            continue;
        }

        cur.get();
        push({ TokKind::Punct, std::string(1, c), "", line });
    }
    return tokens;
}

} // namespace hllc::lint
