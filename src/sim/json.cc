#include "src/sim/json.hh"

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pcsim
{

JsonValue::JsonValue(int i)
{
    if (i >= 0) {
        _type = Type::UInt;
        _uint = static_cast<std::uint64_t>(i);
    } else {
        _type = Type::Double;
        _double = i;
    }
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v._type = Type::Object;
    return v;
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v._type = Type::Array;
    return v;
}

bool
JsonValue::asBool() const
{
    if (_type != Type::Bool)
        throw std::logic_error("JsonValue: not a bool");
    return _bool;
}

std::uint64_t
JsonValue::asUInt() const
{
    if (_type == Type::UInt)
        return _uint;
    if (_type == Type::Double && _double >= 0 &&
        _double == std::floor(_double))
        return static_cast<std::uint64_t>(_double);
    throw std::logic_error("JsonValue: not an unsigned integer");
}

double
JsonValue::asDouble() const
{
    if (_type == Type::Double)
        return _double;
    if (_type == Type::UInt)
        return static_cast<double>(_uint);
    throw std::logic_error("JsonValue: not a number");
}

const std::string &
JsonValue::asString() const
{
    if (_type != Type::String)
        throw std::logic_error("JsonValue: not a string");
    return _string;
}

JsonValue &
JsonValue::push(JsonValue v)
{
    if (_type == Type::Null)
        _type = Type::Array;
    if (_type != Type::Array)
        throw std::logic_error("JsonValue: push on non-array");
    _elements.push_back(std::move(v));
    return _elements.back();
}

std::size_t
JsonValue::size() const
{
    if (_type == Type::Array)
        return _elements.size();
    if (_type == Type::Object)
        return _members.size();
    return 0;
}

const JsonValue &
JsonValue::at(std::size_t i) const
{
    if (_type != Type::Array)
        throw std::logic_error("JsonValue: index into non-array");
    return _elements.at(i);
}

JsonValue &
JsonValue::operator[](const std::string &key)
{
    if (_type == Type::Null)
        _type = Type::Object;
    if (_type != Type::Object)
        throw std::logic_error("JsonValue: member on non-object");
    for (auto &[k, v] : _members)
        if (k == key)
            return v;
    _members.emplace_back(key, JsonValue{});
    return _members.back().second;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (_type != Type::Object)
        return nullptr;
    for (const auto &[k, v] : _members)
        if (k == key)
            return &v;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (const JsonValue *v = find(key))
        return *v;
    throw std::out_of_range("JsonValue: missing member '" + key + "'");
}

std::string
JsonValue::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
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
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

namespace
{

void
appendNumber(std::string &out, double d)
{
    if (!std::isfinite(d)) {
        // JSON has no Inf/NaN; emit null like most writers do.
        out += "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    // Canonicalize: prefer the shortest representation that
    // round-trips, so dumps are stable across produce paths.
    for (int prec = 1; prec < 17; ++prec) {
        char probe[40];
        std::snprintf(probe, sizeof(probe), "%.*g", prec, d);
        if (std::strtod(probe, nullptr) == d) {
            out += probe;
            return;
        }
    }
    out += buf;
}

void
appendIndent(std::string &out, int indent, int depth)
{
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

} // namespace

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    const bool pretty = indent >= 0;
    switch (_type) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += _bool ? "true" : "false";
        break;
      case Type::UInt: {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, _uint);
        out += buf;
        break;
      }
      case Type::Double:
        appendNumber(out, _double);
        break;
      case Type::String:
        out += '"';
        out += escape(_string);
        out += '"';
        break;
      case Type::Array: {
        out += '[';
        for (std::size_t i = 0; i < _elements.size(); ++i) {
            if (i)
                out += ',';
            if (pretty)
                appendIndent(out, indent, depth + 1);
            _elements[i].dumpTo(out, indent, depth + 1);
        }
        if (pretty && !_elements.empty())
            appendIndent(out, indent, depth);
        out += ']';
        break;
      }
      case Type::Object: {
        out += '{';
        for (std::size_t i = 0; i < _members.size(); ++i) {
            if (i)
                out += ',';
            if (pretty)
                appendIndent(out, indent, depth + 1);
            out += '"';
            out += escape(_members[i].first);
            out += pretty ? "\": " : "\":";
            _members[i].second.dumpTo(out, indent, depth + 1);
        }
        if (pretty && !_members.empty())
            appendIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// --- parser ------------------------------------------------------

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : _text(text) {}

    JsonValue
    parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (_pos != _text.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw JsonParseError(what, _pos);
    }

    char
    peek()
    {
        if (_pos >= _text.size())
            fail("unexpected end of input");
        return _text[_pos];
    }

    char get() { return _text[_pos++]; }

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               (_text[_pos] == ' ' || _text[_pos] == '\t' ||
                _text[_pos] == '\n' || _text[_pos] == '\r'))
            ++_pos;
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++_pos;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = 0;
        while (lit[n])
            ++n;
        if (_text.compare(_pos, n, lit) != 0)
            return false;
        _pos += n;
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWs();
        switch (peek()) {
          case '{':
          case '[': {
            // Each level recurses: bound the depth, not the stack.
            if (_depth == JsonValue::maxParseDepth)
                fail("nesting deeper than " +
                     std::to_string(JsonValue::maxParseDepth) +
                     " levels");
            ++_depth;
            JsonValue v =
                _text[_pos] == '{' ? parseObject() : parseArray();
            --_depth;
            return v;
          }
          case '"':
            return JsonValue(parseString());
          case 't':
            if (consumeLiteral("true"))
                return JsonValue(true);
            fail("invalid literal");
          case 'f':
            if (consumeLiteral("false"))
                return JsonValue(false);
            fail("invalid literal");
          case 'n':
            if (consumeLiteral("null"))
                return JsonValue();
            fail("invalid literal");
          default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v = JsonValue::object();
        skipWs();
        if (peek() == '}') {
            ++_pos;
            return v;
        }
        while (true) {
            skipWs();
            std::string key = parseString();
            skipWs();
            expect(':');
            v[key] = parseValue();
            skipWs();
            const char c = peek();
            if (c != ',' && c != '}')
                fail("expected ',' or '}' in object");
            ++_pos;
            if (c == '}')
                return v;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v = JsonValue::array();
        skipWs();
        if (peek() == ']') {
            ++_pos;
            return v;
        }
        while (true) {
            v.push(parseValue());
            skipWs();
            const char c = peek();
            if (c != ',' && c != ']')
                fail("expected ',' or ']' in array");
            ++_pos;
            if (c == ']')
                return v;
        }
    }

    std::string
    parseString()
    {
        if (peek() != '"')
            fail("expected string");
        ++_pos;
        std::string out;
        while (true) {
            if (_pos >= _text.size())
                fail("unterminated string");
            char c = get();
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (_pos >= _text.size())
                fail("unterminated escape");
            char e = get();
            switch (e) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                if (_pos + 4 > _text.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = get();
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= unsigned(h - 'A' + 10);
                    else
                        fail("invalid \\u escape");
                }
                // UTF-8 encode the code point (surrogate pairs are
                // passed through as-is; the writer never emits them).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xC0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                } else {
                    out += static_cast<char>(0xE0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                    out += static_cast<char>(0x80 | (cp & 0x3F));
                }
                break;
              }
              default:
                fail("invalid escape character");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const std::size_t start = _pos;
        bool negative = false;
        bool integral = true;
        if (peek() == '-') {
            negative = true;
            ++_pos;
        }
        if (_pos >= _text.size() || !std::isdigit((unsigned char)_text[_pos]))
            fail("invalid number");
        while (_pos < _text.size() &&
               std::isdigit((unsigned char)_text[_pos]))
            ++_pos;
        if (_pos < _text.size() && _text[_pos] == '.') {
            integral = false;
            ++_pos;
            while (_pos < _text.size() &&
                   std::isdigit((unsigned char)_text[_pos]))
                ++_pos;
        }
        if (_pos < _text.size() &&
            (_text[_pos] == 'e' || _text[_pos] == 'E')) {
            integral = false;
            ++_pos;
            if (_pos < _text.size() &&
                (_text[_pos] == '+' || _text[_pos] == '-'))
                ++_pos;
            while (_pos < _text.size() &&
                   std::isdigit((unsigned char)_text[_pos]))
                ++_pos;
        }
        const std::string tok = _text.substr(start, _pos - start);
        if (integral && !negative) {
            errno = 0;
            char *end = nullptr;
            const std::uint64_t u = std::strtoull(tok.c_str(), &end, 10);
            if (errno == 0 && end && *end == '\0')
                return JsonValue(u);
        }
        return JsonValue(std::strtod(tok.c_str(), nullptr));
    }

    const std::string &_text;
    std::size_t _pos = 0;
    unsigned _depth = 0; ///< arrays and objects open at _pos
};

} // namespace

JsonValue
JsonValue::parse(const std::string &text)
{
    return Parser(text).parseDocument();
}

} // namespace pcsim
