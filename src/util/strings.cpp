#include "util/strings.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace seqlearn::util {

namespace {
bool is_space(char c) noexcept {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}
}  // namespace

std::string_view trim(std::string_view s) noexcept {
    while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
    while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
    return s;
}

std::vector<std::string_view> split(std::string_view s, std::string_view seps) {
    std::vector<std::string_view> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || seps.find(s[i]) != std::string_view::npos) {
            const std::string_view token = trim(s.substr(start, i - start));
            if (!token.empty()) out.push_back(token);
            start = i + 1;
        }
    }
    return out;
}

bool iequals(std::string_view a, std::string_view b) noexcept {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::toupper(static_cast<unsigned char>(a[i])) !=
            std::toupper(static_cast<unsigned char>(b[i]))) {
            return false;
        }
    }
    return true;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
    return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string format(const char* fmt, ...) {
    std::va_list args;
    va_start(args, fmt);
    std::va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

}  // namespace seqlearn::util
