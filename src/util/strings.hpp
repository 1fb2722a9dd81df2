#pragma once
// Small string helpers used by the .bench parser and report printers.

#include <string>
#include <string_view>
#include <vector>

namespace seqlearn::util {

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view s) noexcept;

/// Split on any character in `seps`, dropping empty tokens and trimming each.
std::vector<std::string_view> split(std::string_view s, std::string_view seps);

/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b) noexcept;

/// True when `s` begins with `prefix` (case sensitive).
bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// printf-style formatting into a std::string.
/// Kept variadic-template-free on purpose: report printers call it in hot
/// loops and the gcc format attribute catches mismatched arguments.
[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...);

}  // namespace seqlearn::util
