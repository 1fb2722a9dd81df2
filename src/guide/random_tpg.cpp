#include "guide/random_tpg.hpp"

#include "util/rng.hpp"

#include <algorithm>
#include <optional>

namespace seqlearn::guide {

using logic::Val3;

std::string_view guidance_name(Guidance g) {
    return g == Guidance::Scoap ? "scoap" : "none";
}

std::string_view fill_name(FillMode m) {
    switch (m) {
        case FillMode::X: return "x";
        case FillMode::Zero: return "zero";
        case FillMode::One: return "one";
        case FillMode::Random: return "random";
    }
    return "x";
}

WarmupStats random_warmup(fault::FaultSimulator& fsim, fault::FaultList& list,
                          std::size_t num_inputs, std::size_t sequences,
                          std::size_t frames_per_sequence, std::uint64_t seed,
                          std::vector<sim::InputSequence>& tests) {
    WarmupStats stats;
    util::Rng rng(seed);
    for (std::size_t s = 0; s < sequences; ++s) {
        sim::InputSequence seq(frames_per_sequence, sim::InputFrame(num_inputs, Val3::X));
        for (auto& frame : seq) {
            for (auto& v : frame) v = rng.chance(0.5) ? Val3::One : Val3::Zero;
        }
        const std::size_t dropped = fsim.drop_detected(seq, list);
        stats.dropped += dropped;
        if (dropped > 0) {
            ++stats.sequences_kept;
            tests.push_back(std::move(seq));
        }
    }
    return stats;
}

namespace {

/// Position-wise merge of two 3-valued sequences; nullopt when any position
/// carries conflicting binary values. The merged sequence is as long as the
/// longer input (the shorter one is implicitly X-padded).
std::optional<sim::InputSequence> merge_compatible(const sim::InputSequence& a,
                                                   const sim::InputSequence& b) {
    const sim::InputSequence& longer = a.size() >= b.size() ? a : b;
    const sim::InputSequence& shorter = a.size() >= b.size() ? b : a;
    sim::InputSequence merged = longer;
    for (std::size_t t = 0; t < shorter.size(); ++t) {
        for (std::size_t i = 0; i < shorter[t].size(); ++i) {
            const Val3 sv = shorter[t][i];
            if (sv == Val3::X) continue;
            Val3& mv = merged[t][i];
            if (mv == Val3::X)
                mv = sv;
            else if (mv != sv)
                return std::nullopt;
        }
    }
    return merged;
}

}  // namespace

CompactionStats compact_tests(fault::FaultSimulator& fsim,
                              std::span<const fault::Fault> faults,
                              std::vector<sim::InputSequence>& tests, FillMode fill,
                              std::uint64_t seed) {
    CompactionStats stats;
    stats.before = tests.size();
    stats.after = tests.size();
    if (tests.empty()) return stats;

    // Reverse-order first-detection replay (classic static compaction):
    // tests are replayed newest-first, so test i is responsible for exactly
    // the faults no LATER test detects. Late deterministic tests were
    // generated for hard faults but also detect easy ones in passing, which
    // strips early tests — warmup patterns especially — of their credit;
    // any test left with an empty set is provably redundant. The union of
    // responsibilities is still every detected fault, so coverage is
    // preserved exactly.
    fault::FaultList replay(std::vector<fault::Fault>(faults.begin(), faults.end()));
    std::vector<std::vector<std::size_t>> resp(tests.size());
    std::vector<fault::FaultStatus> before(replay.size());
    for (std::size_t i = tests.size(); i-- > 0;) {
        for (std::size_t j = 0; j < replay.size(); ++j) before[j] = replay.status(j);
        fsim.drop_detected(tests[i], replay);
        for (std::size_t j = 0; j < replay.size(); ++j) {
            if (before[j] == fault::FaultStatus::Undetected &&
                replay.status(j) == fault::FaultStatus::Detected)
                resp[i].push_back(j);
        }
    }

    // Greedy forward pass: keep a test unless it is redundant (empty
    // responsibility) or it verifiably merges into an earlier kept pattern.
    // kMaxVerifies bounds the fault-sim spend per test; candidates are
    // scanned oldest-first so warmup patterns (X-free, rarely mergeable)
    // fail the cheap compatibility check without costing a simulation.
    constexpr std::size_t kMaxVerifies = 8;
    std::vector<sim::InputSequence> kept;
    std::vector<std::vector<std::size_t>> kept_resp;
    kept.reserve(tests.size());
    for (std::size_t i = 0; i < tests.size(); ++i) {
        if (resp[i].empty()) continue;  // detects nothing first — drop outright
        bool merged = false;
        std::size_t verifies = 0;
        for (std::size_t k = 0; k < kept.size() && verifies < kMaxVerifies; ++k) {
            auto m = merge_compatible(kept[k], tests[i]);
            if (!m) continue;
            ++verifies;
            std::vector<fault::Fault> check;
            check.reserve(kept_resp[k].size() + resp[i].size());
            for (const std::size_t j : kept_resp[k]) check.push_back(faults[j]);
            for (const std::size_t j : resp[i]) check.push_back(faults[j]);
            const std::vector<bool> det = fsim.run(*m, check);
            if (!std::all_of(det.begin(), det.end(), [](bool d) { return d; })) continue;
            kept[k] = std::move(*m);
            kept_resp[k].insert(kept_resp[k].end(), resp[i].begin(), resp[i].end());
            ++stats.merges;
            merged = true;
            break;
        }
        if (!merged) {
            kept.push_back(std::move(tests[i]));
            kept_resp.push_back(std::move(resp[i]));
        }
    }

    // Fill after verification: refinement of X positions is sound under
    // 3-valued simulation (defined values never change), so the verified
    // detections survive any fill.
    if (fill != FillMode::X) {
        util::Rng rng(seed);
        for (auto& seq : kept) {
            for (auto& frame : seq) {
                for (auto& v : frame) {
                    if (v != Val3::X) continue;
                    switch (fill) {
                        case FillMode::Zero: v = Val3::Zero; break;
                        case FillMode::One: v = Val3::One; break;
                        default: v = rng.chance(0.5) ? Val3::One : Val3::Zero; break;
                    }
                }
            }
        }
    }

    tests = std::move(kept);
    stats.after = tests.size();
    return stats;
}

}  // namespace seqlearn::guide
