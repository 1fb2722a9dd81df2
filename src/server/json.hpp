#pragma once
// Minimal JSON for the serving protocol.
//
// The server speaks newline-framed JSON: one request object per line in,
// one response object per line out (service.hpp says which parts of a
// response the CLI's --json document shares). Requests are small and flat
// (a command name, a design digest, a handful of numeric knobs, at most one
// large string — the .bench text), so a dependency-free recursive-descent
// parser is all that is needed. The daemon's responses, the CLI's --json
// output and BENCH_sim.json's rows are all written by the one JsonWriter
// below.
//
// Numbers are stored as double. Every numeric field in the protocol (ports,
// budgets, counts, thread counts) fits a double exactly; 64-bit digests do
// NOT, which is why the protocol transports them as hex *strings*
// (see hex_u64 / parse_hex_u64).

#include <concepts>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace seqlearn::server {

/// A parsed JSON value. Objects keep their members in a sorted map — the
/// protocol never depends on member order.
class JsonValue {
public:
    enum class Type : std::uint8_t { Null, Bool, Number, String, Object, Array };

    JsonValue() = default;

    Type type() const noexcept { return type_; }
    bool is_object() const noexcept { return type_ == Type::Object; }
    bool is_string() const noexcept { return type_ == Type::String; }
    bool is_number() const noexcept { return type_ == Type::Number; }

    double as_number(double fallback = 0.0) const noexcept {
        return type_ == Type::Number ? num_ : fallback;
    }
    const std::string& as_string() const noexcept { return str_; }

    /// Object member lookup; null when absent or not an object.
    const JsonValue* get(std::string_view key) const;

    /// Typed member shorthands (fallback when absent or wrong-typed).
    std::string get_string(std::string_view key, std::string fallback = {}) const;
    double get_number(std::string_view key, double fallback = 0.0) const;
    bool get_bool(std::string_view key, bool fallback = false) const;

    const std::vector<JsonValue>& items() const noexcept { return arr_; }

    /// Parse one JSON document. On failure returns nullopt and, when
    /// `error` is non-null, stores a one-line reason. Trailing garbage
    /// after the document is an error (a frame is exactly one object).
    static std::optional<JsonValue> parse(std::string_view text, std::string* error);

private:
    friend class Parser;
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::map<std::string, JsonValue, std::less<>> obj_;
    std::vector<JsonValue> arr_;
};

/// Escape `s` for embedding in a JSON string literal.
std::string json_escape(std::string_view s);

/// Streaming JSON writer with the protocol's ", " and ": " separators:
/// callers open and close containers and name members, the writer places
/// the separators and escapes strings. Containers fewer than `wrap_depth`
/// levels deep put each element on its own line, indented two spaces per
/// level (the CLI's --json output and BENCH_sim.json use it); the
/// protocol's one-line responses use the default, 0.
class JsonWriter {
public:
    explicit JsonWriter(int wrap_depth = 0) : wrap_depth_(wrap_depth) {}

    JsonWriter& begin_object() { return open('{'); }
    JsonWriter& end_object() { return close('}'); }
    JsonWriter& begin_array() { return open('['); }
    JsonWriter& end_array() { return close(']'); }

    /// Object member name; the next value or container is its value.
    JsonWriter& key(std::string_view name);

    JsonWriter& value(std::string_view s);
    JsonWriter& value(const char* s) { return value(std::string_view(s)); }
    JsonWriter& value(bool b) { return literal(b ? "true" : "false"); }
    template <std::integral T>
    JsonWriter& value(T v) { return literal(std::to_string(v)); }
    /// Fixed-point with `decimals` digits after the point, like printf's
    /// "%.*f"; a non-finite value writes null.
    JsonWriter& value(double v, int decimals);
    JsonWriter& value(double) = delete;  // a double needs its decimals

    /// key(name), then value(args...).
    template <typename... Args>
    JsonWriter& field(std::string_view name, Args&&... args) {
        return key(name).value(std::forward<Args>(args)...);
    }

    const std::string& str() const noexcept { return out_; }
    std::string take() noexcept { return std::move(out_); }

private:
    JsonWriter& open(char bracket);
    JsonWriter& close(char bracket);
    JsonWriter& literal(std::string_view text);
    /// Separator (and line break, when wrapping) before the next element.
    void next_element();

    std::string out_;
    std::vector<bool> nonempty_;  ///< one entry per open container
    bool after_key_ = false;
    int wrap_depth_;
};

/// Lossless transport for 64-bit digests: fixed-width lowercase hex.
std::string hex_u64(std::uint64_t v);

/// Inverse of hex_u64 (leading "0x" optional). Returns nullopt on anything
/// that is not pure hex of at most 16 digits.
std::optional<std::uint64_t> parse_hex_u64(std::string_view s);

}  // namespace seqlearn::server
