#pragma once
// Deterministic pseudo-random number generation.
//
// All randomized components of the library (workload generators, parallel
// pattern simulation, property tests) draw from this engine so that every
// experiment is reproducible from a single seed.

#include <cstdint>

namespace seqlearn::util {

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 256-bit state.
/// Seeded through SplitMix64 so that any 64-bit seed yields a well-mixed
/// initial state (including seed 0).
class Rng {
public:
    /// Construct with a 64-bit seed; equal seeds give equal streams.
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

    /// Next uniformly distributed 64-bit value.
    std::uint64_t next_u64() noexcept;

    /// Uniform value in [0, bound). Precondition: bound > 0.
    /// Uses rejection sampling, so the distribution is exactly uniform.
    std::uint64_t below(std::uint64_t bound) noexcept;

    /// Uniform integer in the closed interval [lo, hi]. Precondition: lo <= hi.
    std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

    /// Bernoulli draw: true with probability `p` (clamped to [0,1]).
    bool chance(double p) noexcept;

    /// Uniform double in [0, 1).
    double uniform01() noexcept;

private:
    std::uint64_t s_[4]{};
};

}  // namespace seqlearn::util
