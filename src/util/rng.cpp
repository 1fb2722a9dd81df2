#include "util/rng.hpp"

namespace seqlearn::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
    // Rejection sampling over the largest multiple of `bound` that fits in
    // 64 bits; the expected number of draws is < 2.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next_u64();
        if (r >= threshold) return r % bound;
    }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
}

bool Rng::chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
}

double Rng::uniform01() noexcept {
    // 53 random bits scaled into [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

}  // namespace seqlearn::util
