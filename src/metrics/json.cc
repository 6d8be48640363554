#include "metrics/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace phloem::metrics {

namespace {

const Json kNullJson{};

void
appendUtf8(std::string& out, uint32_t cp)
{
    if (cp < 0x80) {
        out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
        out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
        out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
        out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
        out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
}

class Parser
{
  public:
    Parser(const std::string& text, std::string* err)
        : text_(text), err_(err)
    {
    }

    bool
    parseDocument(Json* out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing garbage after JSON document");
        return true;
    }

  private:
    const std::string& text_;
    std::string* err_;
    size_t pos_ = 0;
    /** Open arrays/objects enclosing pos_ (bounded by Json::kMaxDepth). */
    int depth_ = 0;

    bool
    fail(const std::string& msg)
    {
        if (err_ != nullptr) {
            *err_ = msg + " at byte " + std::to_string(pos_);
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            pos_++;
    }

    bool
    expect(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            return fail(std::string("expected '") + c + "'");
        pos_++;
        return true;
    }

    bool
    literal(const char* word, Json v, Json* out)
    {
        size_t n = std::char_traits<char>::length(word);
        if (text_.compare(pos_, n, word) != 0)
            return fail(std::string("invalid literal (expected ") + word +
                        ")");
        pos_ += n;
        *out = std::move(v);
        return true;
    }

    bool
    parseValue(Json* out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
        case '{':
        case '[': {
            if (depth_ == Json::kMaxDepth)
                return fail("nesting deeper than " +
                            std::to_string(Json::kMaxDepth) + " levels");
            ++depth_;
            bool ok = c == '{' ? parseObject(out) : parseArray(out);
            --depth_;
            return ok;
        }
        case '"': {
            std::string s;
            if (!parseString(&s))
                return false;
            *out = Json::str(std::move(s));
            return true;
        }
        case 't':
            return literal("true", Json::boolean(true), out);
        case 'f':
            return literal("false", Json::boolean(false), out);
        case 'n':
            return literal("null", Json::null(), out);
        default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(Json* out)
    {
        pos_++;  // '{'
        Json obj = Json::object();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            pos_++;
            *out = std::move(obj);
            return true;
        }
        for (;;) {
            skipWs();
            std::string key;
            if (!parseString(&key))
                return false;
            skipWs();
            if (!expect(':'))
                return false;
            skipWs();
            Json v;
            if (!parseValue(&v))
                return false;
            obj.set(key, std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                pos_++;
                continue;
            }
            if (text_[pos_] == '}') {
                pos_++;
                *out = std::move(obj);
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(Json* out)
    {
        pos_++;  // '['
        Json arr = Json::array();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            pos_++;
            *out = std::move(arr);
            return true;
        }
        for (;;) {
            skipWs();
            Json v;
            if (!parseValue(&v))
                return false;
            arr.push(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                pos_++;
                continue;
            }
            if (text_[pos_] == ']') {
                pos_++;
                *out = std::move(arr);
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    hex4(uint32_t* out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_ + static_cast<size_t>(i)];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        pos_ += 4;
        *out = v;
        return true;
    }

    bool
    parseString(std::string* out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        pos_++;
        out->clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == '"') {
                pos_++;
                return true;
            }
            if (c == '\\') {
                pos_++;
                if (pos_ >= text_.size())
                    return fail("truncated escape");
                char e = text_[pos_++];
                switch (e) {
                case '"': out->push_back('"'); break;
                case '\\': out->push_back('\\'); break;
                case '/': out->push_back('/'); break;
                case 'b': out->push_back('\b'); break;
                case 'f': out->push_back('\f'); break;
                case 'n': out->push_back('\n'); break;
                case 'r': out->push_back('\r'); break;
                case 't': out->push_back('\t'); break;
                case 'u': {
                    uint32_t cp = 0;
                    if (!hex4(&cp))
                        return false;
                    // Surrogate pair: combine with the low half.
                    if (cp >= 0xD800 && cp <= 0xDBFF &&
                        pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                        text_[pos_ + 1] == 'u') {
                        pos_ += 2;
                        uint32_t lo = 0;
                        if (!hex4(&lo))
                            return false;
                        if (lo >= 0xDC00 && lo <= 0xDFFF) {
                            cp = 0x10000 + ((cp - 0xD800) << 10) +
                                 (lo - 0xDC00);
                        } else {
                            return fail("unpaired surrogate");
                        }
                    }
                    appendUtf8(*out, cp);
                    break;
                }
                default:
                    return fail("unknown escape");
                }
                continue;
            }
            out->push_back(c);
            pos_++;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Json* out)
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            pos_++;
        bool is_double = false;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                pos_++;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                is_double = true;
                pos_++;
            } else {
                break;
            }
        }
        if (pos_ == start)
            return fail("invalid value");
        std::string num = text_.substr(start, pos_ - start);
        errno = 0;
        char* end = nullptr;
        if (!is_double) {
            long long v = std::strtoll(num.c_str(), &end, 10);
            if (errno == 0 && end != nullptr && *end == '\0') {
                *out = Json::integer(static_cast<int64_t>(v));
                return true;
            }
            // Overflowed int64: fall through to double.
        }
        errno = 0;
        double d = std::strtod(num.c_str(), &end);
        if (errno != 0 || end == nullptr || *end != '\0') {
            pos_ = start;
            return fail("malformed number");
        }
        *out = Json::number(d);
        return true;
    }
};

} // namespace

Json
Json::boolean(bool b)
{
    Json j;
    j.kind_ = Kind::kBool;
    j.b_ = b;
    return j;
}

Json
Json::integer(int64_t v)
{
    Json j;
    j.kind_ = Kind::kInt;
    j.i_ = v;
    return j;
}

Json
Json::number(double v)
{
    Json j;
    j.kind_ = Kind::kDouble;
    j.d_ = v;
    return j;
}

Json
Json::str(std::string s)
{
    Json j;
    j.kind_ = Kind::kString;
    j.s_ = std::move(s);
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::kArray;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::kObject;
    return j;
}

int64_t
Json::asInt() const
{
    if (kind_ == Kind::kInt)
        return i_;
    if (kind_ == Kind::kDouble)
        return static_cast<int64_t>(d_);
    return 0;
}

double
Json::asDouble() const
{
    if (kind_ == Kind::kDouble)
        return d_;
    if (kind_ == Kind::kInt)
        return static_cast<double>(i_);
    return 0.0;
}

const Json&
Json::at(const std::string& key) const
{
    if (kind_ == Kind::kObject) {
        auto it = obj_.find(key);
        if (it != obj_.end())
            return it->second;
    }
    return kNullJson;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                // UTF-8 bytes pass through untouched.
                out.push_back(static_cast<char>(c));
            }
        }
    }
    return out;
}

void
Json::dumpTo(std::string& out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent < 0)
            return;
        out.push_back('\n');
        out.append(static_cast<size_t>(indent + 2 * d), ' ');
    };

    switch (kind_) {
    case Kind::kNull:
        out += "null";
        break;
    case Kind::kBool:
        out += b_ ? "true" : "false";
        break;
    case Kind::kInt:
        out += std::to_string(i_);
        break;
    case Kind::kDouble: {
        if (std::isnan(d_) || std::isinf(d_)) {
            // JSON has no NaN/Inf; null is the conventional stand-in.
            out += "null";
            break;
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", d_);
        out += buf;
        break;
    }
    case Kind::kString:
        out.push_back('"');
        out += jsonEscape(s_);
        out.push_back('"');
        break;
    case Kind::kArray: {
        out.push_back('[');
        bool first = true;
        for (const auto& v : arr_) {
            if (!first)
                out.push_back(',');
            first = false;
            newline(depth + 1);
            v.dumpTo(out, indent, depth + 1);
        }
        if (!arr_.empty())
            newline(depth);
        out.push_back(']');
        break;
    }
    case Kind::kObject: {
        out.push_back('{');
        bool first = true;
        for (const auto& [k, v] : obj_) {
            if (!first)
                out.push_back(',');
            first = false;
            newline(depth + 1);
            out.push_back('"');
            out += jsonEscape(k);
            out += indent < 0 ? "\":" : "\": ";
            v.dumpTo(out, indent, depth + 1);
        }
        if (!obj_.empty())
            newline(depth);
        out.push_back('}');
        break;
    }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

bool
Json::parse(const std::string& text, Json* out, std::string* err)
{
    Parser p(text, err);
    return p.parseDocument(out);
}

} // namespace phloem::metrics
