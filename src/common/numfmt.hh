/**
 * @file
 * Locale-independent formatting for machine-readable emitters.
 *
 * printf("%f") and ostream<< honour the process locale: under de_DE a
 * CSV cell becomes "0,25" and the file stops parsing. Everything the
 * simulator writes for machines (CSV, JSON, stats files) goes through
 * these std::to_chars-based helpers instead, which always emit the "C"
 * locale format regardless of setlocale(). jsonEscape() is the one JSON
 * string escaper.
 */

#ifndef HLLC_COMMON_NUMFMT_HH
#define HLLC_COMMON_NUMFMT_HH

#include <charconv>
#include <cstdint>
#include <string>

#include "common/logging.hh"

namespace hllc
{

/**
 * Shortest decimal string that round-trips @p value bit-exactly through
 * from_chars (what JSON/CSV series exports use: byte-identical files
 * for byte-identical runs).
 */
inline std::string
formatDouble(double value)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    HLLC_ASSERT(res.ec == std::errc());
    return std::string(buf, res.ptr);
}

/** Fixed-point decimal string with @p decimals digits ("1.250"). */
inline std::string
formatFixed(double value, int decimals)
{
    char buf[128];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value,
                                   std::chars_format::fixed, decimals);
    HLLC_ASSERT(res.ec == std::errc());
    return std::string(buf, res.ptr);
}

/** Decimal string of an unsigned 64-bit value. */
inline std::string
formatU64(std::uint64_t value)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    HLLC_ASSERT(res.ec == std::errc());
    return std::string(buf, res.ptr);
}

/** Decimal string of a signed 64-bit value. */
inline std::string
formatI64(std::int64_t value)
{
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    HLLC_ASSERT(res.ec == std::errc());
    return std::string(buf, res.ptr);
}

/**
 * @p text as the body of a JSON string: quote, backslash and every
 * control character escaped.
 */
inline std::string
jsonEscape(const std::string &text)
{
    static const char hex[] = "0123456789abcdef";
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                out += "\\u00";
                out += hex[(c >> 4) & 0xf];
                out += hex[c & 0xf];
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Parse what formatDouble() wrote; locale-independent like to_chars. */
inline bool
parseDoubleExact(const std::string &text, double &out)
{
    const char *begin = text.data();
    const char *end = begin + text.size();
    const auto res = std::from_chars(begin, end, out);
    return res.ec == std::errc() && res.ptr == end;
}

} // namespace hllc

#endif // HLLC_COMMON_NUMFMT_HH
