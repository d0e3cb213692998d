#include "util/json.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace gdiff {
namespace json {

const Value *
Value::find(std::string_view key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto &[name, value] : object)
        if (name == key)
            return &value;
    return nullptr;
}

const Value &
Value::at(std::string_view key) const
{
    const Value *v = find(key);
    if (!v) {
        panic("json: no member '%s' in %s",
              std::string(key).c_str(),
              type == Type::Object ? "object" : "non-object value");
    }
    return *v;
}

double
Value::asNumber() const
{
    if (type != Type::Number)
        panic("json: value is not a number");
    return number;
}

const std::string &
Value::asString() const
{
    if (type != Type::String)
        panic("json: value is not a string");
    return str;
}

namespace {

/** Recursive-descent parser over a string_view with offset errors. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text(text) {}

    bool
    parseDocument(Value &out, std::string *error)
    {
        bool ok = parseValue(out, 0) && (skipWs(), pos == text.size());
        if (!ok && error) {
            *error = message.empty()
                         ? formatString("trailing garbage at offset "
                                        "%zu",
                                        pos)
                         : message;
        }
        return ok;
    }

  private:
    static constexpr int maxDepth = 64;

    bool
    fail(const char *what)
    {
        if (message.empty())
            message =
                formatString("%s at offset %zu", what, pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    literal(std::string_view word)
    {
        if (text.substr(pos, word.size()) != word)
            return fail("invalid literal");
        pos += word.size();
        return true;
    }

    bool
    parseValue(Value &out, int depth)
    {
        if (depth > maxDepth)
            return fail("document too deeply nested");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        switch (text[pos]) {
          case '{':
            return parseObject(out, depth);
          case '[':
            return parseArray(out, depth);
          case '"':
            out.type = Value::Type::String;
            return parseString(out.str);
          case 't':
            out.type = Value::Type::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.type = Value::Type::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.type = Value::Type::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(Value &out, int depth)
    {
        out.type = Value::Type::Object;
        ++pos; // '{'
        skipWs();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos >= text.size() || text[pos] != '"')
                return fail("expected object key");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos >= text.size() || text[pos] != ':')
                return fail("expected ':'");
            ++pos;
            Value member;
            if (!parseValue(member, depth + 1))
                return false;
            out.object.emplace_back(std::move(key),
                                    std::move(member));
            skipWs();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(Value &out, int depth)
    {
        out.type = Value::Type::Array;
        ++pos; // '['
        skipWs();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            Value element;
            if (!parseValue(element, depth + 1))
                return false;
            out.array.push_back(std::move(element));
            skipWs();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos; // '"'
        out.clear();
        while (pos < text.size()) {
            char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                ++pos;
                continue;
            }
            if (++pos >= text.size())
                return fail("dangling escape");
            char e = text[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  if (pos + 4 > text.size())
                      return fail("truncated \\u escape");
                  unsigned code = 0;
                  for (int i = 0; i < 4; ++i) {
                      char h = text[pos + i];
                      if (!std::isxdigit(
                              static_cast<unsigned char>(h)))
                          return fail("bad \\u escape");
                      code = code * 16 +
                             (h <= '9'   ? h - '0'
                              : h <= 'F' ? h - 'A' + 10
                                         : h - 'a' + 10);
                  }
                  pos += 4;
                  // Encode the BMP code point as UTF-8.
                  if (code < 0x80) {
                      out += static_cast<char>(code);
                  } else if (code < 0x800) {
                      out += static_cast<char>(0xC0 | (code >> 6));
                      out += static_cast<char>(0x80 | (code & 0x3F));
                  } else {
                      out += static_cast<char>(0xE0 | (code >> 12));
                      out += static_cast<char>(0x80 |
                                               ((code >> 6) & 0x3F));
                      out += static_cast<char>(0x80 | (code & 0x3F));
                  }
                  break;
              }
              default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value &out)
    {
        size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' ||
                text[pos] == 'E' || text[pos] == '+' ||
                text[pos] == '-')) {
            ++pos;
        }
        if (pos == start)
            return fail("expected a value");
        std::string token(text.substr(start, pos - start));
        char *end = nullptr;
        double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            pos = start;
            return fail("malformed number");
        }
        out.type = Value::Type::Number;
        out.number = v;
        return true;
    }

    std::string_view text;
    size_t pos = 0;
    std::string message;
};

} // anonymous namespace

bool
parse(std::string_view text, Value &out, std::string *error)
{
    return Parser(text).parseDocument(out, error);
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
            break;
        }
    }
    return out;
}

} // namespace json
} // namespace gdiff
