#pragma once
// Single-node learning (paper Section 3.1).
//
// For every fanout stem, inject 0 and 1 separately and forward-simulate
// across frames. By the contrapositive law, `s=0 => n1=v1@t` together with
// `s=1 => n2=v2@t` yields the same-frame relation `n1=!v1 => n2=v2` (at any
// frame with >= t predecessors). A node implied to the same value at the
// same frame by both stem values is a tie. All observations are also stored
// as stem records for the multiple-node pass.
//
// The pass runs on the batched serial loop (core/learn_pass.hpp): 32 stems
// per 64-lane batch, each stem's {inject 0, inject 1} pair occupying two
// lanes.

#include "core/learn_pass.hpp"

#include <span>

namespace seqlearn::core {

/// Run single-node learning over stems[first_stem..] on `bsim`, which runs
/// against `closure` (built from `ties` under the pass's gating and
/// equivalences); see run_learn_pass for how `progress` and `env` are used.
/// New relations land in `db`, new ties in `ties` and `closure` (so they
/// are simulation facts for later stems), and observations in `records`.
/// `first_stem` is the resume entry point for a run whose predecessor
/// stopped mid-pass (its outcome's next_index); progress and next_index
/// count from the start of `stems`.
///
/// Relations are stored when at least one side is a sequential element
/// (gate-gate relations follow from these and are skipped, as in the
/// paper). Constants and already-tied gates never form relations.
PassOutcome single_node_learning(
    const netlist::Netlist& nl, sim::BatchFrameSimulator& bsim, sim::TieClosure& closure,
    std::span<const netlist::GateId> stems, std::uint32_t max_frames, TieSet& ties,
    ImplicationDB& db, StemRecords& records,
    const std::function<bool(std::size_t, std::size_t)>* progress = nullptr,
    const LearnExecEnv& env = {}, std::size_t first_stem = 0);

}  // namespace seqlearn::core
