/**
 * @file
 * Strict numeric parsing for command-line flags.
 *
 * Every driver (bench harnesses, gdiffsim, gdiffrun) funnels numeric
 * flag values through parseU64Flag() so malformed input fails loudly
 * instead of being silently truncated — `--instructions=2m` used to
 * parse as 2 via bare strtoull; now it is a fatal() with the flag
 * name in the message.
 */

#ifndef GDIFF_UTIL_PARSE_HH
#define GDIFF_UTIL_PARSE_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>

#include "util/logging.hh"

namespace gdiff {

/** Which rule a strict parse broke; Ok when it broke none. */
enum class ParseU64Error
{
    Ok,
    Empty,       ///< empty or null text
    Invalid,     ///< a leading sign or space, or trailing garbage
    OutOfRange,  ///< overflows uint64_t
    Zero,        ///< zero where zero is not allowed
};

/**
 * Parse a non-negative decimal integer strictly, reporting which rule
 * failed instead of terminating — the form servers use on untrusted
 * input, and the one body behind parseU64Flag().
 *
 * Rejects empty strings, leading signs, trailing garbage, values that
 * overflow uint64_t, and (unless @p allow_zero) zero.
 *
 * @return the rule @p text broke; on Ok, @p out holds the value.
 */
inline ParseU64Error
parseU64(const char *text, uint64_t &out, bool allow_zero = false)
{
    if (text == nullptr || *text == '\0')
        return ParseU64Error::Empty;
    // strtoull accepts "+", "-" (wrapping!) and leading whitespace;
    // a value must start with a digit outright.
    if (*text < '0' || *text > '9')
        return ParseU64Error::Invalid;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno == ERANGE)
        return ParseU64Error::OutOfRange;
    if (end == text || *end != '\0')
        return ParseU64Error::Invalid;
    if (v == 0 && !allow_zero)
        return ParseU64Error::Zero;
    out = static_cast<uint64_t>(v);
    return ParseU64Error::Ok;
}

/**
 * Parse a non-negative decimal integer flag value strictly.
 *
 * Rejects (via fatal()) what parseU64() rejects. Zero is rejected by
 * default because for most flags (--instructions, --order, --table,
 * --threads) it indicates a typo rather than an intent.
 *
 * @param flag       flag name for the error message (e.g.
 *                   "--instructions").
 * @param text       the value text after the '='.
 * @param allow_zero accept 0 as a valid value (e.g. --warmup=0).
 * @return the parsed value.
 */
inline uint64_t
parseU64Flag(const char *flag, const char *text, bool allow_zero = false)
{
    uint64_t v = 0;
    switch (parseU64(text, v, allow_zero)) {
    case ParseU64Error::Ok:
        break;
    case ParseU64Error::Empty:
        fatal("%s: empty numeric value", flag);
    case ParseU64Error::Invalid:
        fatal("%s: invalid number '%s'", flag, text);
    case ParseU64Error::OutOfRange:
        fatal("%s: value '%s' out of range", flag, text);
    case ParseU64Error::Zero:
        fatal("%s: value must be non-zero", flag);
    }
    return v;
}

} // namespace gdiff

#endif // GDIFF_UTIL_PARSE_HH
