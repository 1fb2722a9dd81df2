#include "server/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace seqlearn::server {

// Named (not anonymous-namespace) so JsonValue's friend declaration sees it.
class Parser {
public:
    Parser(std::string_view text, std::string* error) : s_(text), error_(error) {}

    std::optional<JsonValue> run() {
        JsonValue v;
        if (!parse_value(v)) return std::nullopt;
        skip_ws();
        if (pos_ != s_.size()) {
            fail("trailing characters after JSON document");
            return std::nullopt;
        }
        return v;
    }

private:
    void fail(const std::string& why) {
        if (error_ != nullptr && error_->empty())
            *error_ = why + " at offset " + std::to_string(pos_);
    }

    void skip_ws() {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(std::string_view word) {
        if (s_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    bool parse_value(JsonValue& out) {
        skip_ws();
        if (pos_ >= s_.size()) {
            fail("unexpected end of input");
            return false;
        }
        // Nesting depth bound: protocol frames are flat; a deeply nested
        // document is hostile input, not a request.
        if (depth_ > 32) {
            fail("nesting too deep");
            return false;
        }
        const char c = s_[pos_];
        switch (c) {
            case '{': return parse_object(out);
            case '[': return parse_array(out);
            case '"': {
                out.type_ = JsonValue::Type::String;
                return parse_string(out.str_);
            }
            case 't':
                if (!literal("true")) break;
                out.type_ = JsonValue::Type::Bool;
                out.bool_ = true;
                return true;
            case 'f':
                if (!literal("false")) break;
                out.type_ = JsonValue::Type::Bool;
                out.bool_ = false;
                return true;
            case 'n':
                if (!literal("null")) break;
                out.type_ = JsonValue::Type::Null;
                return true;
            default: return parse_number(out);
        }
        fail("invalid token");
        return false;
    }

    bool parse_object(JsonValue& out) {
        out.type_ = JsonValue::Type::Object;
        ++pos_;  // '{'
        ++depth_;
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == '}') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            skip_ws();
            if (pos_ >= s_.size() || s_[pos_] != '"') {
                fail("expected object key");
                return false;
            }
            std::string key;
            if (!parse_string(key)) return false;
            skip_ws();
            if (pos_ >= s_.size() || s_[pos_] != ':') {
                fail("expected ':' after object key");
                return false;
            }
            ++pos_;
            JsonValue member;
            if (!parse_value(member)) return false;
            out.obj_.insert_or_assign(std::move(key), std::move(member));
            skip_ws();
            if (pos_ < s_.size() && s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                --depth_;
                return true;
            }
            fail("expected ',' or '}' in object");
            return false;
        }
    }

    bool parse_array(JsonValue& out) {
        out.type_ = JsonValue::Type::Array;
        ++pos_;  // '['
        ++depth_;
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == ']') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            JsonValue item;
            if (!parse_value(item)) return false;
            out.arr_.push_back(std::move(item));
            skip_ws();
            if (pos_ < s_.size() && s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                --depth_;
                return true;
            }
            fail("expected ',' or ']' in array");
            return false;
        }
    }

    bool parse_string(std::string& out) {
        ++pos_;  // opening quote
        out.clear();
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size()) break;
                const char e = s_[pos_++];
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
                        if (pos_ + 4 > s_.size()) {
                            fail("truncated \\u escape");
                            return false;
                        }
                        unsigned code = 0;
                        const auto [p, ec] = std::from_chars(
                            s_.data() + pos_, s_.data() + pos_ + 4, code, 16);
                        if (ec != std::errc() || p != s_.data() + pos_ + 4) {
                            fail("bad \\u escape");
                            return false;
                        }
                        pos_ += 4;
                        // UTF-8 encode the BMP code point (the protocol's
                        // strings are names and bench text — surrogate
                        // pairs are not expected and decode as-is).
                        if (code < 0x80) {
                            out += static_cast<char>(code);
                        } else if (code < 0x800) {
                            out += static_cast<char>(0xc0 | (code >> 6));
                            out += static_cast<char>(0x80 | (code & 0x3f));
                        } else {
                            out += static_cast<char>(0xe0 | (code >> 12));
                            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                            out += static_cast<char>(0x80 | (code & 0x3f));
                        }
                        break;
                    }
                    default: fail("unknown escape"); return false;
                }
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
                return false;
            }
            out += c;
            ++pos_;
        }
        fail("unterminated string");
        return false;
    }

    bool parse_number(JsonValue& out) {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        if (pos_ == start) {
            fail("invalid number");
            return false;
        }
        double value = 0.0;
        const auto [p, ec] = std::from_chars(s_.data() + start, s_.data() + pos_, value);
        if (ec != std::errc() || p != s_.data() + pos_) {
            fail("invalid number");
            return false;
        }
        out.type_ = JsonValue::Type::Number;
        out.num_ = value;
        return true;
    }

    std::string_view s_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string* error_;
};

const JsonValue* JsonValue::get(std::string_view key) const {
    if (type_ != Type::Object) return nullptr;
    const auto it = obj_.find(key);
    return it == obj_.end() ? nullptr : &it->second;
}

std::string JsonValue::get_string(std::string_view key, std::string fallback) const {
    const JsonValue* v = get(key);
    return v != nullptr && v->is_string() ? v->str_ : std::move(fallback);
}

double JsonValue::get_number(std::string_view key, double fallback) const {
    const JsonValue* v = get(key);
    return v != nullptr && v->is_number() ? v->num_ : fallback;
}

bool JsonValue::get_bool(std::string_view key, bool fallback) const {
    const JsonValue* v = get(key);
    return v != nullptr && v->type() == Type::Bool ? v->bool_ : fallback;
}

std::optional<JsonValue> JsonValue::parse(std::string_view text, std::string* error) {
    if (error != nullptr) error->clear();
    return Parser(text, error).run();
}

std::string json_escape(std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    out += "\\u00";
                    out += kHex[(c >> 4) & 0xf];
                    out += kHex[c & 0xf];
                } else {
                    out += c;
                }
        }
    }
    return out;
}

void JsonWriter::next_element() {
    // A member's value follows its key; the top-level value follows nothing.
    if (std::exchange(after_key_, false) || nonempty_.empty()) return;
    const std::size_t depth = nonempty_.size();
    if (nonempty_.back()) out_ += ',';
    if (static_cast<int>(depth) <= wrap_depth_) out_ += '\n' + std::string(2 * depth, ' ');
    else if (nonempty_.back()) out_ += ' ';
    nonempty_.back() = true;
}

JsonWriter& JsonWriter::open(char bracket) {
    next_element();
    out_ += bracket;
    nonempty_.push_back(false);
    return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
    const std::size_t depth = nonempty_.size();
    if (nonempty_.back() && static_cast<int>(depth) <= wrap_depth_)
        out_ += '\n' + std::string(2 * (depth - 1), ' ');
    nonempty_.pop_back();
    out_ += bracket;
    return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
    value(name);
    out_ += ": ";
    after_key_ = true;
    return *this;
}

JsonWriter& JsonWriter::literal(std::string_view text) {
    next_element();
    out_ += text;
    return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
    next_element();
    out_ += '"' + json_escape(s) + '"';
    return *this;
}

JsonWriter& JsonWriter::value(double v, int decimals) {
    if (!std::isfinite(v)) return literal("null");
    // Room for DBL_MAX's 309 integer digits, a sign, the point and decimals.
    char buf[352];
    const auto res =
        std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed, decimals);
    if (res.ec != std::errc()) return literal("null");
    return literal(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
}

std::string hex_u64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

std::optional<std::uint64_t> parse_hex_u64(std::string_view s) {
    if (s.substr(0, 2) == "0x" || s.substr(0, 2) == "0X") s.remove_prefix(2);
    if (s.empty() || s.size() > 16) return std::nullopt;
    std::uint64_t v = 0;
    const auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 16);
    if (ec != std::errc() || p != s.data() + s.size()) return std::nullopt;
    return v;
}

}  // namespace seqlearn::server
