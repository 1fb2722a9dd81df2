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
// simulation of target k+1), through the same batched ordered speculation:
// 64 targets — one lane each, every lane carrying its own injection
// schedule and exact frame window T+1 — run as one bit-parallel event
// sweep against the class's shared background (sim::TieClosure), which
// the committing thread extends with each tie. A committed tie re-derives
// the remaining targets of its batch against the fresh tie state, exactly
// as the single-node pass does, so results equal the serial
// one-run-per-target schedule's at any worker count.

#include "core/impl_db.hpp"
#include "core/single_node.hpp"
#include "core/stem_records.hpp"
#include "core/tie.hpp"

#include <span>

namespace seqlearn::core {

/// Records a (node, value) key needs to become a target: the paper's "two
/// or more stems / occurrences" criterion.
inline constexpr std::size_t kMinTargetRecords = 2;

struct MultipleNodeOutcome {
    std::size_t targets_processed = 0;
    std::size_t relations_added = 0;
    std::size_t ties_found = 0;
    /// Ties proven by an outright contradiction among the injections.
    std::size_t contradiction_ties = 0;
    /// Why the pass stopped: Completed after the full target list, otherwise
    /// the cancel/budget status observed at a target boundary.
    exec::RunStatus stop = exec::RunStatus::Completed;
    /// Resume cursor: index into the deterministic target order (including
    /// any `first_target` offset) of the first target not processed.
    std::size_t next_index = 0;
};

/// Run multiple-node learning over every record key using the per-worker
/// simulators `sims`, all running against `closure` (built from `ties`; at
/// most sims.size() workers run, and `sims` must not be empty). Records
/// whose offset reaches `max_frames` are left out of a target's injections,
/// so its frame T stays below the simulation depth. New relations land in
/// `db`, ties in `ties` and `closure` (visible to later targets through the
/// simulators). `first_target` skips that many leading targets of the
/// deterministic order — the resume entry point for a run whose predecessor
/// stopped mid-pass (its outcome's next_index).
MultipleNodeOutcome multiple_node_learning(const netlist::Netlist& nl,
                                           std::span<sim::BatchFrameSimulator> sims,
                                           sim::TieClosure& closure,
                                           const StemRecords& records,
                                           std::uint32_t max_frames, TieSet& ties,
                                           ImplicationDB& db, const LearnExecEnv& env = {},
                                           std::size_t first_target = 0);

}  // namespace seqlearn::core
