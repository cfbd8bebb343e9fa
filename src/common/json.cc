#include "common/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace dmdc
{

namespace
{

class Parser
{
  public:
    Parser(const std::string &text, std::string &err)
        : text_(text), err_(err)
    {
    }

    bool
    parse(JsonValue &out)
    {
        if (!value(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing content after JSON document");
        return true;
    }

  private:
    bool
    fail(const std::string &msg)
    {
        err_ = msg + " (at byte " + std::to_string(pos_) + ")";
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += len;
        return true;
    }

    bool
    value(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return object(out);
        if (c == '[')
            return array(out);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return string(out.text);
        }
        if (c == 't' || c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = (c == 't');
            return literal(c == 't' ? "true" : "false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        }
        return number(out);
    }

    bool
    object(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            if (!string(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            JsonValue v;
            if (!value(v))
                return false;
            out.fields.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue v;
            if (!value(v))
                return false;
            out.items.push_back(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    string(std::string &out)
    {
        ++pos_; // '"'
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return fail("unterminated string escape");
            const char esc = text_[pos_++];
            switch (esc) {
              case '"':  out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/':  out.push_back('/'); break;
              case 'b':  out.push_back('\b'); break;
              case 'f':  out.push_back('\f'); break;
              case 'n':  out.push_back('\n'); break;
              case 'r':  out.push_back('\r'); break;
              case 't':  out.push_back('\t'); break;
              case 'u': {
                // Decode the BMP code point to UTF-8; journals never
                // emit \u escapes but protocol peers legitimately may.
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
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
                        return fail("malformed \\u escape");
                }
                if (cp < 0x80) {
                    out.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                } else {
                    out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
                    out.push_back(
                        static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3f)));
                }
                break;
              }
              default:
                return fail("unknown string escape");
            }
        }
        return fail("unterminated string");
    }

    bool
    number(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        bool digits = false;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                digits = true;
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                ++pos_;
            } else {
                break;
            }
        }
        if (!digits)
            return fail("expected a JSON value");
        out.kind = JsonValue::Kind::Number;
        out.text = text_.substr(start, pos_ - start);
        return true;
    }

    const std::string &text_;
    std::string &err_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string &err)
{
    out = JsonValue{};
    Parser parser(text, err);
    return parser.parse(out);
}

std::string
jsonEscapeString(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
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
                out.push_back(c);
            }
        }
    }
    return out;
}

std::string
jsonDoubleToken(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
fieldString(const JsonValue &obj, const char *key, std::string &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Kind::String)
        return false;
    out = v->text;
    return true;
}

bool
fieldU64(const JsonValue &obj, const char *key, std::uint64_t &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Kind::Number || v->text.empty())
        return false;
    for (char c : v->text) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    }
    errno = 0;
    const unsigned long long n = std::strtoull(v->text.c_str(), nullptr,
                                               10);
    if (errno == ERANGE)
        return false;
    out = n;
    return true;
}

bool
fieldUnsigned(const JsonValue &obj, const char *key, unsigned &out)
{
    std::uint64_t n = 0;
    if (!fieldU64(obj, key, n) ||
        n > std::numeric_limits<unsigned>::max())
        return false;
    out = static_cast<unsigned>(n);
    return true;
}

bool
fieldDouble(const JsonValue &obj, const char *key, double &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Kind::Number)
        return false;
    char *end = nullptr;
    const double d = std::strtod(v->text.c_str(), &end);
    // Overflow lands on +-HUGE_VAL and fails isfinite(); underflow to
    // a subnormal is the exact value "%.17g" wrote, so it is kept.
    if (end != v->text.c_str() + v->text.size() || !std::isfinite(d))
        return false;
    out = d;
    return true;
}

bool
fieldBool(const JsonValue &obj, const char *key, bool &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Kind::Bool)
        return false;
    out = v->boolean;
    return true;
}

} // namespace dmdc
