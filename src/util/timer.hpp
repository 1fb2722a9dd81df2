#pragma once
// Wall-clock stopwatch for the CPU(s) columns of the experiment tables.

#include <chrono>

namespace seqlearn::util {

/// Monotonic stopwatch; starts on construction.
class Timer {
public:
    Timer() noexcept : start_(Clock::now()) {}

    /// Restart the stopwatch.
    void reset() noexcept { start_ = Clock::now(); }

    /// Seconds elapsed since construction or the last reset().
    double seconds() const noexcept {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

}  // namespace seqlearn::util
