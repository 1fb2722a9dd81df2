#pragma once
// Deterministic random test-pattern generation and static compaction.
//
// Random warmup bulk-drops the easy faults through the 256-lane fault
// simulator before the deterministic engine runs, so ATPG only sees the
// hard remainder. The generator is the library-wide xoshiro engine seeded
// from a digest of the result-affecting campaign configuration: the same
// (circuit, config) pair always replays the same warmup, independent of
// thread count.
//
// Static compaction greedily merges X-rich test sequences position-wise
// (two sequences are compatible when no frame position holds conflicting
// binary values) and accepts a merge only after the fault simulator
// re-verifies that the merged sequence still detects every fault either
// original was responsible for — merging is a heuristic, the simulator is
// the oracle. Remaining X positions are then filled per FillMode; filling
// refines a 3-valued sequence, and Kleene evaluation is monotone under
// refinement, so a verified detection can never be lost by the fill.

#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "sim/comb_engine.hpp"

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace seqlearn::guide {

/// Engine search guidance selector (AtpgConfig::guidance).
enum class Guidance : std::uint8_t {
    None,   ///< structural scan order, bit-identical to the historical goldens
    Scoap,  ///< SCOAP-guided backtrace and D-frontier selection
};

/// How compaction fills the don't-care positions of merged sequences.
enum class FillMode : std::uint8_t {
    X,       ///< leave X (maximally mergeable output)
    Zero,    ///< fill with 0
    One,     ///< fill with 1
    Random,  ///< deterministic random fill (same seed as the warmup)
};

/// The CLI and protocol spellings ("none"/"scoap"; "x"/"zero"/"one"/"random").
std::string_view guidance_name(Guidance g);
std::string_view fill_name(FillMode m);

struct WarmupStats {
    std::size_t dropped = 0;         ///< faults moved Undetected -> Detected
    std::size_t sequences_kept = 0;  ///< generated sequences that earned credit
};

/// Run `sequences` random sequences of `frames_per_sequence` frames over
/// `num_inputs`-wide frames, dropping detected faults from `list` and
/// appending every credited sequence to `tests`. Pure function of the seed.
WarmupStats random_warmup(fault::FaultSimulator& fsim, fault::FaultList& list,
                          std::size_t num_inputs, std::size_t sequences,
                          std::size_t frames_per_sequence, std::uint64_t seed,
                          std::vector<sim::InputSequence>& tests);

struct CompactionStats {
    std::size_t before = 0;  ///< pattern count going in
    std::size_t after = 0;   ///< pattern count coming out
    std::size_t merges = 0;  ///< verified merges performed
};

/// Statically compact `tests` in place. `faults` is the campaign's fault
/// universe (used to recompute per-test responsibility by first-detection
/// replay); every merge is re-verified by `fsim` before acceptance, and
/// tests that detect nothing not already covered by an earlier test are
/// dropped. `seed` drives FillMode::Random only.
CompactionStats compact_tests(fault::FaultSimulator& fsim,
                              std::span<const fault::Fault> faults,
                              std::vector<sim::InputSequence>& tests, FillMode fill,
                              std::uint64_t seed);

}  // namespace seqlearn::guide
