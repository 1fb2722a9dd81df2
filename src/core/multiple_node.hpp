#pragma once
// Multiple-node learning (paper Section 3.1).
//
// For a target (node n, value v) with stem records {(s_i, sv_i, t_i)}, the
// assumption n=!v at frame T (T = max t_i) implies s_i=!sv_i at frame T-t_i
// for every record, plus n=!v itself at frame T. Injecting all of these and
// forward-simulating extracts relations single-node learning misses; a
// conflict during the run proves n is tied to v from frame T on.
//
// Targets are processed in deterministic key order with the same serial
// semantics as the single-node pass (a tie learned at target k seeds the
// simulation of target k+1), on the same batched serial loop
// (core/learn_pass.hpp): 64 targets per batch, one lane each, every lane
// carrying its own injection schedule and exact frame window T+1.

#include "core/learn_pass.hpp"

namespace seqlearn::core {

/// Records a (node, value) key needs to become a target: the paper's "two
/// or more stems / occurrences" criterion.
inline constexpr std::size_t kMinTargetRecords = 2;

/// Run multiple-node learning over every record key on `bsim`, which runs
/// against `closure` (built from `ties`); see run_learn_pass for how `env`
/// is used. Records whose offset reaches `max_frames` are left out of a
/// target's injections, so its frame T stays below the simulation depth.
/// New relations land in `db`, ties in `ties` and `closure` (visible to
/// later targets through the simulator). `first_target` skips that many
/// leading targets of the deterministic order — the resume entry point for
/// a run whose predecessor stopped mid-pass (its outcome's next_index).
PassOutcome multiple_node_learning(const netlist::Netlist& nl, sim::BatchFrameSimulator& bsim,
                                   sim::TieClosure& closure, const StemRecords& records,
                                   std::uint32_t max_frames, TieSet& ties, ImplicationDB& db,
                                   const LearnExecEnv& env = {}, std::size_t first_target = 0);

}  // namespace seqlearn::core
