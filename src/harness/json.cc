#include "harness/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/logging.hh"

namespace carve {
namespace json {

namespace {

const Value null_value{};

void
appendEscaped(std::string &out, const std::string &s)
{
    out += '"';
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace

std::string
formatDouble(double v)
{
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; null is the conventional stand-in.
        return "null";
    }
    // Shortest representation that round-trips exactly: deterministic
    // across runs and thread counts, unlike printf("%g").
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    std::string s(buf, res.ptr);
    // Ensure the token stays a double on re-parse ("1" -> "1.0").
    if (s.find_first_of(".eE") == std::string::npos)
        s += ".0";
    return s;
}

bool
Value::asBool() const
{
    carve_assert(kind() == Kind::Bool);
    return std::get<bool>(v_);
}

std::int64_t
Value::asInt() const
{
    carve_assert(kind() == Kind::Int);
    return std::get<std::int64_t>(v_);
}

double
Value::asDouble() const
{
    carve_assert(isNumber());
    return kind() == Kind::Int
               ? static_cast<double>(std::get<std::int64_t>(v_))
               : std::get<double>(v_);
}

const std::string &
Value::asString() const
{
    carve_assert(kind() == Kind::String);
    return std::get<std::string>(v_);
}

const Array &
Value::asArray() const &
{
    carve_assert(kind() == Kind::Array);
    return std::get<Array>(v_);
}

const Members &
Value::asObject() const &
{
    carve_assert(kind() == Kind::Object);
    return std::get<Members>(v_);
}

Array
Value::asArray() &&
{
    carve_assert(kind() == Kind::Array);
    return std::move(std::get<Array>(v_));
}

Members
Value::asObject() &&
{
    carve_assert(kind() == Kind::Object);
    return std::move(std::get<Members>(v_));
}

const Value &
Value::at(const std::string &key) const &
{
    if (const Members *obj = std::get_if<Members>(&v_)) {
        for (const auto &[k, v] : *obj) {
            if (k == key)
                return v;
        }
    }
    return null_value;
}

Value
Value::at(const std::string &key) &&
{
    if (Members *obj = std::get_if<Members>(&v_)) {
        for (auto &[k, v] : *obj) {
            if (k == key)
                return std::move(v);
        }
    }
    return Value();
}

bool
Value::has(const std::string &key) const
{
    return isObject() && !at(key).isNull();
}

void
Value::set(std::string key, Value v)
{
    carve_assert(kind() == Kind::Object || kind() == Kind::Null);
    if (isNull())
        v_.emplace<Members>();
    std::get<Members>(v_).emplace_back(std::move(key), std::move(v));
}

void
Value::push(Value v)
{
    carve_assert(kind() == Kind::Array || kind() == Kind::Null);
    if (isNull())
        v_.emplace<Array>();
    std::get<Array>(v_).push_back(std::move(v));
}

void
Value::dumpTo(std::string &out, unsigned indent, unsigned depth) const
{
    const auto newline = [&](unsigned d) {
        if (indent == 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * d, ' ');
    };

    switch (kind()) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += std::get<bool>(v_) ? "true" : "false";
        break;
      case Kind::Int: {
        char buf[24];
        const auto res = std::to_chars(buf, buf + sizeof(buf),
                                       std::get<std::int64_t>(v_));
        out.append(buf, res.ptr);
        break;
      }
      case Kind::Double:
        out += formatDouble(std::get<double>(v_));
        break;
      case Kind::String:
        appendEscaped(out, std::get<std::string>(v_));
        break;
      case Kind::Array: {
        const Array &arr = std::get<Array>(v_);
        if (arr.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        const Members &obj = std::get<Members>(v_);
        if (obj.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            appendEscaped(out, obj[i].first);
            out += indent ? ": " : ":";
            obj[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
      }
    }
}

std::string
Value::dump(unsigned indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent)
        out += '\n';
    return out;
}

namespace {

/** Recursive-descent parser over the whole input string. */
class Parser
{
  public:
    Parser(const std::string &text, const std::string &what)
        : text_(text), what_(what)
    {
    }

    Value
    document()
    {
        Value v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const char *why)
    {
        fatal("%s: JSON parse error at offset %zu: %s",
              what_.c_str(), pos_, why);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("unexpected character");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = 0;
        while (lit[n])
            ++n;
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Value
    value()
    {
        skipWs();
        const char c = peek();
        switch (c) {
          case '{':
          case '[': {
            // Bounded, so hostile input cannot exhaust the stack.
            if (++depth_ > kMaxDepth)
                fail("nesting too deep");
            Value v = c == '{' ? object() : array();
            --depth_;
            return v;
          }
          case '"': return Value(string());
          case 't':
            if (!consumeLiteral("true"))
                fail("bad literal");
            return Value(true);
          case 'f':
            if (!consumeLiteral("false"))
                fail("bad literal");
            return Value(false);
          case 'n':
            if (!consumeLiteral("null"))
                fail("bad literal");
            return Value(nullptr);
          default:
            return number();
        }
    }

    Value
    object()
    {
        expect('{');
        Members members;
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return Value(std::move(members));
        }
        while (true) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            members.emplace_back(std::move(key), value());
            skipWs();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return Value(std::move(members));
            }
            fail("expected ',' or '}'");
        }
    }

    Value
    array()
    {
        expect('[');
        Array elems;
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return Value(std::move(elems));
        }
        while (true) {
            elems.push_back(value());
            skipWs();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return Value(std::move(elems));
            }
            fail("expected ',' or ']'");
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            // Copy the run up to the closing quote or the next escape
            // in one append.
            const std::size_t run = pos_;
            while (pos_ < text_.size() && text_[pos_] != '"' &&
                   text_[pos_] != '\\')
                ++pos_;
            out.append(text_, run, pos_ - run);
            if (pos_ >= text_.size())
                fail("unterminated string");
            if (text_[pos_++] == '"')
                return out;
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char c = text_[pos_++];
            switch (c) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("bad \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // Results files only ever contain ASCII; encode the
                // BMP code point as UTF-8 for robustness anyway.
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(
                        0x80 | ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default:
                fail("bad escape character");
            }
        }
    }

    Value
    number()
    {
        const std::size_t start = pos_;
        bool is_double = false;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                is_double = true;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            fail("expected a value");
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        if (!is_double) {
            std::int64_t iv = 0;
            const auto res = std::from_chars(first, last, iv);
            if (res.ec == std::errc() && res.ptr == last)
                return Value(iv);
        }
        double dv = 0.0;
        const auto res = std::from_chars(first, last, dv);
        if (res.ec != std::errc() || res.ptr != last)
            fail("malformed number");
        return Value(dv);
    }

    const std::string &text_;
    const std::string &what_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0;  ///< arrays and objects open at pos_
};

} // namespace

Value
parse(const std::string &text, const std::string &what)
{
    Parser p(text, what);
    return p.document();
}

namespace {

/** @p obj's member @p key, fatal unless it is of @p kind (a Double
 * request also accepts an Int). */
const Value &
require(const Value &obj, const char *key, const char *what,
        Value::Kind kind)
{
    const Value &m = obj.at(key);
    if (m.kind() == kind ||
        (kind == Value::Kind::Double && m.kind() == Value::Kind::Int))
        return m;
    // Indexed by Kind.
    static constexpr const char *expected[] = {
        "null",     "a bool",   "an integer", "a number",
        "a string", "an array", "an object",
    };
    fatal("%s member '%s' is missing or not %s", what, key,
          expected[static_cast<std::size_t>(kind)]);
}

} // namespace

std::uint64_t
requireU64(const Value &obj, const char *key, const char *what)
{
    return static_cast<std::uint64_t>(
        require(obj, key, what, Value::Kind::Int).asInt());
}

double
requireNumber(const Value &obj, const char *key, const char *what)
{
    return require(obj, key, what, Value::Kind::Double).asDouble();
}

bool
requireBool(const Value &obj, const char *key, const char *what)
{
    return require(obj, key, what, Value::Kind::Bool).asBool();
}

const std::string &
requireString(const Value &obj, const char *key, const char *what)
{
    return require(obj, key, what, Value::Kind::String).asString();
}

const Array &
requireArray(const Value &obj, const char *key, const char *what)
{
    return require(obj, key, what, Value::Kind::Array).asArray();
}

const Value &
requireObject(const Value &obj, const char *key, const char *what)
{
    return require(obj, key, what, Value::Kind::Object);
}

} // namespace json
} // namespace carve
