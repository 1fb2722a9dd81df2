#include "common.hpp"

#include "netlist/bench_io.hpp"
#include "server/json.hpp"
#include "workload/suite.hpp"

#include <sched.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace sl = seqlearn;

unsigned nproc() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0) return static_cast<unsigned>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx =
        std::min(v.size() - 1, static_cast<std::size_t>(std::max(1.0, rank)) - 1);
    return v[idx];
}

double peak_rss_mb(int pid) {
    const std::string path =
        pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

std::uint64_t mix64(std::uint64_t x) {
    // splitmix64 finalizer
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

namespace {

/// A renamed copy of .bench text: the nets are renamed n0..n<N-1> in a
/// seeded order, while the statements keep theirs. The structure, the gate
/// ids and hence the work stay the same. (Reordering the statements as well
/// changes the ATPG search order, and with it the campaign's cost by up to
/// 4x; see README.md.)
std::string rename_bench(const std::string& text, std::uint64_t seed) {
    const auto is_name_char = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '.' ||
               c == '[' || c == ']';
    };
    // Which name tokens of a line are nets: the signal of INPUT(x)/OUTPUT(x)
    // and of a "#@ seq x ..." pragma (token 1); the output and arguments of
    // "x = TYPE(a, b)" (every token but 1). Other comments have none.
    const auto is_net = [](const std::string& line, std::size_t token) {
        if (line.rfind("#@", 0) == 0) return token == 1;
        if (line[0] == '#') return false;
        if (line.find('=') == std::string::npos) return token == 1;
        return token != 1;
    };
    // Split into literal text and net references (by first-seen index).
    struct Piece {
        std::string text;
        std::size_t net = SIZE_MAX;
    };
    std::vector<Piece> pieces;
    std::unordered_map<std::string, std::size_t> nets;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        std::size_t token = 0;
        for (std::size_t i = 0; i < line.size();) {
            std::size_t j = i;
            while (j < line.size() && is_name_char(line[j])) ++j;
            if (j == i) {
                pieces.push_back({std::string(1, line[i++])});
                continue;
            }
            std::string name = line.substr(i, j - i);
            if (is_net(line, token++))
                pieces.push_back({{}, nets.emplace(std::move(name), nets.size()).first->second});
            else
                pieces.push_back({std::move(name)});
            i = j;
        }
        pieces.push_back({"\n"});
    }
    std::vector<std::size_t> number(nets.size());
    for (std::size_t i = 0; i < number.size(); ++i) number[i] = i;
    std::uint64_t rng = mix64(seed);
    for (std::size_t i = number.size(); i > 1; --i) {
        rng = mix64(rng);
        std::swap(number[i - 1], number[rng % i]);
    }
    std::string out;
    for (const Piece& p : pieces) {
        if (p.net == SIZE_MAX) {
            out += p.text;
        } else {
            out += 'n';
            out += std::to_string(number[p.net]);
        }
    }
    return out;
}

}  // namespace

Circuit make_circuit(const std::string& name, std::uint64_t seed) {
    const std::string text = sl::netlist::write_bench_string(sl::workload::suite_circuit(name));
    return Circuit{name, seed == kSuiteSeed ? text : rename_bench(text, seed)};
}

std::vector<sl::sim::InputSequence> make_sequences(std::size_t inputs, std::size_t count,
                                                   std::size_t frames,
                                                   std::uint64_t seed) {
    std::vector<sl::sim::InputSequence> out(count);
    std::uint64_t state = mix64(seed ^ 0x5e95ULL);
    for (sl::sim::InputSequence& seq : out) {
        seq.assign(frames, sl::sim::InputFrame(inputs));
        for (sl::sim::InputFrame& frame : seq) {
            for (std::size_t i = 0; i < inputs; ++i) {
                if (i % 64 == 0) state = mix64(state);
                frame[i] = ((state >> (i % 64)) & 1) != 0 ? sl::logic::Val3::One
                                                          : sl::logic::Val3::Zero;
            }
        }
    }
    return out;
}

// --- Report -----------------------------------------------------------------

std::string json_string(const std::string& s) {
    std::string out = "\"";
    out += sl::server::json_escape(s);
    out += '"';
    return out;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

Report::Report(const Args& args) : args_(args) {}

void Report::metric(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
        if (m.first == name) {
            m.second = {value, unit};
            return;
        }
    }
    metrics_.push_back({name, {value, unit}});
}

void Report::check(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::ops(std::size_t attempted, std::size_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0)
        std::fprintf(stderr, "perfbench: %zu of %zu failed: %s\n", failed, attempted,
                     what.c_str());
}

double Report::success_rate() const noexcept {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_);
}

void Report::detail(const std::string& key, const std::string& json) {
    details_.push_back({key, json});
}

int Report::finish() {
    std::printf(
        "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
        "\"trace\": %d, \"nproc\": %u, \"build_type\": %s, \"compiler\": %s, "
        "\"git_rev\": %s, \"src_digest\": %s}}\n",
        json_string(args_.workload).c_str(), static_cast<unsigned long long>(args_.seed),
        json_number(args_.seconds).c_str(), args_.trace ? 1 : 0, nproc(),
        json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(PERFBENCH_COMPILER).c_str(),
        json_string(args_.git_rev).c_str(), json_string(args_.src_digest).c_str());
    std::string detail = "{\"detail\": {";
    for (std::size_t i = 0; i < details_.size(); ++i) {
        if (i > 0) detail += ", ";
        detail += json_string(details_[i].first) + ": " + details_[i].second;
    }
    std::printf("%s}}\n", detail.c_str());

    std::string out = "{\"correct\": ";
    out += failed_ == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(std::max<std::size_t>(attempted_, 1));
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (i > 0) out += ", ";
        out += json_string(metrics_[i].first) + ": {\"value\": " +
               json_number(metrics_[i].second.first) +
               ", \"unit\": " + json_string(metrics_[i].second.second) + "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return 0;
}

}  // namespace perfbench
