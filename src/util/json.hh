/**
 * @file
 * A minimal JSON reader/escaper — just enough for the repo's own
 * structured artifacts: the golden-number files under tests/golden/,
 * Chrome trace-event output from src/obs, and the JSON-lines result
 * sink. Strictly a consumer-side convenience; production output paths
 * emit JSON directly (runner/sinks.cc, obs/trace_export.cc).
 *
 * Supported: objects, arrays, strings (with \uXXXX escapes decoded as
 * raw bytes for BMP code points), numbers (parsed as double), true,
 * false, null. Not supported: surrogate pairs, duplicate-key
 * detection, or documents nested deeper than maxDepth.
 */

#ifndef GDIFF_UTIL_JSON_HH
#define GDIFF_UTIL_JSON_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gdiff {
namespace json {

/** A parsed JSON document node. */
struct Value
{
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    /// object members in document order (duplicates kept as-is)
    std::vector<std::pair<std::string, Value>> object;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** @return the member named @p key, or nullptr (objects only). */
    const Value *find(std::string_view key) const;

    /** @return the member named @p key; panics when absent or when
     * this node is not an object. */
    const Value &at(std::string_view key) const;

    /** @return the numeric value; panics on non-numbers. */
    double asNumber() const;

    /** @return the string value; panics on non-strings. */
    const std::string &asString() const;
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage rejected).
 *
 * @param text  the document.
 * @param out   receives the root value on success.
 * @param error receives a message with an offset on failure (may be
 *              nullptr).
 * @return true on success.
 */
bool parse(std::string_view text, Value &out,
           std::string *error = nullptr);

/**
 * @return @p s with JSON string escaping applied: quotes, backslash,
 * and control characters become escape sequences; everything else
 * (including UTF-8 bytes) passes through.
 */
std::string escape(std::string_view s);

} // namespace json
} // namespace gdiff

#endif // GDIFF_UTIL_JSON_HH
