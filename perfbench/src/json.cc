#include "json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench
{

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &t) : t_(t) {}

    Json document()
    {
        Json v = value(0);
        skipWs();
        if (p_ != t_.size())
            fail("trailing characters after the value");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &why) const
    {
        throw JsonError("json: " + why + " at offset " +
                        std::to_string(p_));
    }

    void skipWs()
    {
        while (p_ < t_.size() && (t_[p_] == ' ' || t_[p_] == '\t' ||
                                  t_[p_] == '\n' || t_[p_] == '\r'))
            ++p_;
    }

    bool literal(const char *word)
    {
        std::size_t n = 0;
        while (word[n])
            ++n;
        if (t_.compare(p_, n, word) != 0)
            return false;
        p_ += n;
        return true;
    }

    Json value(int depth)
    {
        if (depth > 64)
            fail("nesting too deep");
        skipWs();
        if (p_ >= t_.size())
            fail("unexpected end of input");
        Json v;
        const char c = t_[p_];
        if (c == '{') {
            v.kind = Json::Kind::object;
            ++p_;
            skipWs();
            if (p_ < t_.size() && t_[p_] == '}') {
                ++p_;
                return v;
            }
            while (true) {
                skipWs();
                if (p_ >= t_.size() || t_[p_] != '"')
                    fail("expected a member name");
                std::string key = stringBody();
                skipWs();
                if (p_ >= t_.size() || t_[p_] != ':')
                    fail("expected ':'");
                ++p_;
                Json member = value(depth + 1);
                if (!v.members.emplace(key, std::move(member)).second)
                    fail("duplicate member '" + key + "'");
                skipWs();
                if (p_ < t_.size() && t_[p_] == ',') {
                    ++p_;
                    continue;
                }
                if (p_ < t_.size() && t_[p_] == '}') {
                    ++p_;
                    return v;
                }
                fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            v.kind = Json::Kind::array;
            ++p_;
            skipWs();
            if (p_ < t_.size() && t_[p_] == ']') {
                ++p_;
                return v;
            }
            while (true) {
                v.items.push_back(value(depth + 1));
                skipWs();
                if (p_ < t_.size() && t_[p_] == ',') {
                    ++p_;
                    continue;
                }
                if (p_ < t_.size() && t_[p_] == ']') {
                    ++p_;
                    return v;
                }
                fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            v.kind = Json::Kind::string;
            v.str = stringBody();
            return v;
        }
        if (literal("true")) {
            v.kind = Json::Kind::boolean;
            v.b = true;
            return v;
        }
        if (literal("false")) {
            v.kind = Json::Kind::boolean;
            return v;
        }
        if (literal("null"))
            return v;
        if (c == '-' || (c >= '0' && c <= '9'))
            return numberValue();
        fail(std::string("unexpected character '") + c + "'");
    }

    bool digitAt(std::size_t i) const
    {
        return i < t_.size() && t_[i] >= '0' && t_[i] <= '9';
    }

    Json numberValue()
    {
        const std::size_t start = p_;
        if (t_[p_] == '-')
            ++p_;
        if (!digitAt(p_))
            fail("malformed number");
        if (t_[p_] == '0') {
            ++p_;
            if (digitAt(p_))
                fail("leading zero in number");
        } else {
            while (digitAt(p_))
                ++p_;
        }
        if (p_ < t_.size() && t_[p_] == '.') {
            ++p_;
            if (!digitAt(p_))
                fail("malformed fraction");
            while (digitAt(p_))
                ++p_;
        }
        if (p_ < t_.size() && (t_[p_] == 'e' || t_[p_] == 'E')) {
            ++p_;
            if (p_ < t_.size() && (t_[p_] == '+' || t_[p_] == '-'))
                ++p_;
            if (!digitAt(p_))
                fail("malformed exponent");
            while (digitAt(p_))
                ++p_;
        }
        Json v;
        v.kind = Json::Kind::number;
        v.str = t_.substr(start, p_ - start);
        v.num = std::strtod(v.str.c_str(), nullptr);
        if (!std::isfinite(v.num))
            fail("number out of range");
        return v;
    }

    unsigned hex4()
    {
        if (p_ + 4 > t_.size())
            fail("truncated \\u escape");
        unsigned u = 0;
        for (int k = 0; k < 4; ++k) {
            const char h = t_[p_++];
            u <<= 4;
            if (h >= '0' && h <= '9')
                u |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f')
                u |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                u |= unsigned(h - 'A' + 10);
            else
                fail("bad \\u escape");
        }
        return u;
    }

    static void utf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += char(cp);
        } else if (cp < 0x800) {
            out += char(0xc0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += char(0xe0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3f));
            out += char(0x80 | (cp & 0x3f));
        } else {
            out += char(0xf0 | (cp >> 18));
            out += char(0x80 | ((cp >> 12) & 0x3f));
            out += char(0x80 | ((cp >> 6) & 0x3f));
            out += char(0x80 | (cp & 0x3f));
        }
    }

    std::string stringBody()
    {
        ++p_; // opening quote
        std::string out;
        while (true) {
            if (p_ >= t_.size())
                fail("unterminated string");
            const unsigned char c = static_cast<unsigned char>(t_[p_++]);
            if (c == '"')
                return out;
            if (c < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += char(c);
                continue;
            }
            if (p_ >= t_.size())
                fail("unterminated escape");
            const char e = t_[p_++];
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
                unsigned cp = hex4();
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    if (p_ + 2 > t_.size() || t_[p_] != '\\' ||
                        t_[p_ + 1] != 'u')
                        fail("unpaired surrogate");
                    p_ += 2;
                    const unsigned lo = hex4();
                    if (lo < 0xdc00 || lo > 0xdfff)
                        fail("unpaired surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    fail("unpaired surrogate");
                }
                utf8(out, cp);
                break;
            }
            default:
                fail("bad escape");
            }
        }
    }

    const std::string &t_;
    std::size_t p_ = 0;
};

} // namespace

Json
Json::parse(const std::string &text)
{
    return Parser(text).document();
}

const Json &
Json::at(const std::string &key) const
{
    if (kind != Kind::object)
        throw JsonError("json: '" + key + "' looked up in a non-object");
    const auto it = members.find(key);
    if (it == members.end())
        throw JsonError("json: missing member '" + key + "'");
    return it->second;
}

double
Json::number() const
{
    if (kind != Kind::number)
        throw JsonError("json: expected a number");
    return num;
}

const std::string &
Json::string() const
{
    if (kind != Kind::string)
        throw JsonError("json: expected a string");
    return str;
}

bool
Json::boolean() const
{
    if (kind != Kind::boolean)
        throw JsonError("json: expected a boolean");
    return b;
}

const std::vector<Json> &
Json::array() const
{
    if (kind != Kind::array)
        throw JsonError("json: expected an array");
    return items;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        throw JsonError("json: cannot format a non-finite number");
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    // %g may print "1e+20" — valid JSON; it never prints "inf"/"nan"
    // for a finite value.
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        const unsigned char c = static_cast<unsigned char>(ch);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += ch;
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

} // namespace perfbench
