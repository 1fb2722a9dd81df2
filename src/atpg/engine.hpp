#pragma once
// Deterministic test generation over the unrolled model: a plane-wise
// D-algorithm with J-frontier justification, D-frontier propagation,
// chronological backtracking with a backtrack limit, and unknown initial
// state (frame-0 sequential outputs may never take a binary value, which
// forces self-initializing test sequences).
//
// Learned knowledge plugs in three ways, matching Section 4 of the paper:
//  - LearnMode::KnownValue: a learned implication fires as a real assignment
//    on the good plane, creating a justification obligation (the paper's
//    "unnecessary requirements" behaviour included);
//  - LearnMode::ForbiddenValue: the implied literal's complement is only
//    *forbidden*; forbidden values propagate forward/backward/cross-frame,
//    conflict with real assignments, and steer J-frontier input selection,
//    but never create obligations;
//  - tie gates are pre-asserted facts on the good plane (cycle-aware).
// FF-FF relations act as invalid-state pruning through the same hooks.
// Every relation/tie is applied only at frames with enough history for its
// proof (frame index >= learned frame tag).

#include "atpg/ila.hpp"
#include "core/impl_db.hpp"
#include "core/tie.hpp"
#include "fault/fault.hpp"
#include "guide/testability.hpp"
#include "netlist/topology.hpp"
#include "sim/comb_engine.hpp"

#include <cstdint>
#include <string_view>
#include <vector>

namespace seqlearn::atpg {

enum class LearnMode : std::uint8_t {
    None,            ///< ignore learned data entirely
    KnownValue,      ///< implied literals become assignments to justify
    ForbiddenValue,  ///< implied literals' complements become forbidden
};

/// The CLI and protocol spelling: "none", "known" or "forbidden".
std::string_view mode_name(LearnMode m);

/// Decision nodes one solve may open before it aborts (a safety valve).
inline constexpr std::uint32_t kMaxDecisions = 200000;

struct EngineConfig {
    LearnMode mode = LearnMode::None;
    /// Learned relations (may be null; required for modes != None).
    const core::ImplicationDB* db = nullptr;
    /// Learned tie gates (may be null).
    const core::TieSet* ties = nullptr;
    /// Backtracks allowed before giving up on this (fault, window).
    std::uint32_t backtrack_limit = 30;
    /// The combinational redundancy prover's search (set by
    /// prove_redundancy, never for real test generation): frame-0
    /// sequential outputs are free variables, fault effects reaching a
    /// sequential data input in the last frame count as observed (pseudo
    /// primary outputs), and instead of heuristic D-frontier branching the
    /// search falls back to full enumeration of unassigned primary and free
    /// pseudo-primary inputs, so an Exhausted verdict proves untestability.
    bool redundancy_proof = false;
    /// SCOAP guidance (may be null = unguided, bit-identical to the
    /// historical search order). When set, justification tries the
    /// cheapest-to-control fanin first and propagation tries the
    /// best-observable D-frontier gate first. Guidance only reorders
    /// alternatives within a decision — the search space, verdicts'
    /// soundness, and the Exhausted/Aborted semantics are unchanged.
    const guide::Testability* guide = nullptr;
};

struct EngineResult {
    enum class Status : std::uint8_t {
        TestFound,  ///< `test` detects the fault (still validate externally)
        Exhausted,  ///< search space exhausted: no test within this window
        Aborted,    ///< backtrack or decision limit hit
    };
    Status status = Status::Exhausted;
    sim::InputSequence test;
    std::uint32_t backtracks = 0;
    std::uint32_t decisions = 0;
};

/// Try to generate a test for `f` within a `frames`-frame window over the
/// flat CSR `topo`, which every structural walk (frontier expansion, cone
/// tracing, implication hooks) reads. A solve keeps no state between calls:
/// a given (fault, window, config) solves identically on any thread, which
/// is what lets the ATPG campaign solve a window of targets on its pool.
EngineResult solve(const netlist::Topology& topo, const fault::Fault& f, std::uint32_t frames,
                   const EngineConfig& cfg);

}  // namespace seqlearn::atpg
