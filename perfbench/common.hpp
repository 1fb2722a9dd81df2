#pragma once
// Shared plumbing of the end-to-end benchmark: run arguments, timing and
// percentile helpers, the seeded input generators, and the result sink that
// prints the provenance header and the final result line.

#include "netlist/netlist.hpp"
#include "sim/comb_engine.hpp"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point a) { return seconds_between(a, Clock::now()); }

/// The seed that reproduces the named suite circuits exactly; any other
/// seed generates fresh circuits of the same size and shape.
inline constexpr std::uint64_t kSuiteSeed = 0;

struct Args {
    std::string workload;
    std::uint64_t seed = kSuiteSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string daemon;    ///< path of the seqlearn_cli binary (serve_mixed)
    std::string work_dir;  ///< scratch directory inside the checkout
    std::string git_rev = "unknown";
    std::string src_digest = "unknown";
};

/// Worker count every stage runs at: one per CPU the process may use.
unsigned nproc();

/// Set-up is timed in two windows, before and after the measured loop, so
/// that one slow moment of a shared machine does not decide setup_s. Each
/// window repeats set-up at least twice and until about 0.75 s is spent (at
/// most 5000 times); setup_s is the median over both windows.
struct SetupWindow {
    std::size_t done = 0;
    double spent_s = 0.0;
    bool more() const { return done < 2 || (done < 5000 && spent_s < 0.75); }
    void add(double seconds) {
        ++done;
        spent_s += seconds;
    }
};

double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
/// The reported tail: the 99th percentile once it has ten samples beyond it
/// (1000 or more samples); below that no percentile above the median does,
/// and the median is reported instead.
inline double tail_latency(const std::vector<double>& v) {
    return v.size() >= 1000 ? percentile(v, 0.99) : median(v);
}

/// Peak resident set size (VmHWM) of `pid` (0 = this process), in MB.
double peak_rss_mb(int pid = 0);

std::uint64_t mix64(std::uint64_t x);

/// A circuit handed to the program: a name and its .bench text.
struct Circuit {
    std::string name;
    std::string bench;
};

/// The named suite circuit as .bench text: exactly the suite's at seed
/// kSuiteSeed; at any other seed a copy with seeded net names (same
/// structure, statement order and gate ids, so the same work). Known
/// names: gen953, gen1269, gen1423, gen5378, gen38417, rt510a, rt510b,
/// rt832, rtscf.
Circuit make_circuit(const std::string& name, std::uint64_t seed);

/// `count` random fully specified input sequences of `frames` frames each
/// for a circuit with `inputs` primary inputs, drawn from `seed`.
std::vector<seqlearn::sim::InputSequence> make_sequences(std::size_t inputs,
                                                         std::size_t count,
                                                         std::size_t frames,
                                                         std::uint64_t seed);

/// Collects the run's metrics, operation counts, failed checks and detail
/// fields, and prints them: the provenance header first, details next, the
/// result object as the last line of standard output.
class Report {
public:
    explicit Report(const Args& args);

    void metric(const std::string& name, double value, const std::string& unit);
    /// One attempted operation or output check; a false `ok` counts it
    /// failed and logs why.
    void check(bool ok, const std::string& what);
    /// `attempted` operations of which `failed` failed (`what`: the first).
    void ops(std::size_t attempted, std::size_t failed, const std::string& what);
    /// A JSON fragment (already serialized) kept under `key` in the detail line.
    void detail(const std::string& key, const std::string& json);

    /// Share of attempted operations and checks that succeeded.
    double success_rate() const noexcept;
    /// Prints everything; returns the process exit code.
    int finish();

private:
    Args args_;
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
    std::vector<std::pair<std::string, std::string>> details_;
    std::size_t attempted_ = 0;
    std::size_t failed_ = 0;
};

std::string json_string(const std::string& s);
std::string json_number(double v);

}  // namespace perfbench
