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
// Execution model: the pass is serially defined — ties learned at stem k
// are simulation facts for every stem after k. Stems are packed 32 at a
// time, each stem's {inject 0, inject 1} pair occupying two lanes, so a
// batch is one 64-lane bit-parallel run (sim::BatchFrameSimulator):
// constants, learned ties, and shared cone gates are evaluated once per
// batch instead of once per injection. Each batch is one item of ordered
// speculation (exec::speculate_batches): workers simulate and extract
// batches against the tie state frozen at window dispatch, emitting
// per-stem result deltas; the calling thread commits the deltas in stem
// order. A commit that finds the tie set moved since dispatch re-derives the
// rest of its batch against the fresh state, re-batching after every stem
// that lands a tie. Tie discoveries are rare (a few percent of stems), so
// almost all speculation commits. The extraction is order-insensitive within
// a frame (per-frame ties are established before relations are emitted), so
// the results are exactly the serial one-injection-per-run schedule's at any
// worker count, even though the batch's event order differs.

#include "core/impl_db.hpp"
#include "core/stem_records.hpp"
#include "core/tie.hpp"
#include "exec/budget.hpp"
#include "exec/cancel.hpp"
#include "exec/failpoint.hpp"
#include "exec/outcome.hpp"
#include "exec/pool.hpp"
#include "sim/batch_frame_sim.hpp"

#include <functional>
#include <span>

namespace seqlearn::core {

struct SingleNodeOutcome {
    std::size_t stems_processed = 0;
    std::size_t relations_added = 0;
    std::size_t ties_found = 0;
    /// Stems proven tied because injecting one value conflicted outright.
    std::size_t stem_ties = 0;
    /// Why the pass stopped: Completed after the full stem list, otherwise
    /// the cancel/budget status observed at a stem boundary. Every stem
    /// before `next_index` is fully committed, none after is touched — the
    /// result is an exact prefix of the serial schedule.
    exec::RunStatus stop = exec::RunStatus::Completed;
    /// Resume cursor: index of the first stem not processed.
    std::size_t next_index = 0;
};

/// How a learning pass executes: serial when `pool` is null (or resolves to
/// one worker), speculative-parallel otherwise. `cancel` and `budget`, when
/// non-null, are polled at stem boundaries — cooperative, thread-safe stop
/// switches in addition to the progress observer's return value.
/// `failpoint`, when non-null, is the fault-injection harness polled inside
/// work items, speculation commits, and batch recomputes.
struct LearnExecEnv {
    exec::Pool* pool = nullptr;
    unsigned max_workers = 0;  ///< cap within the pool (0 = all slots)
    exec::CancelFlag* cancel = nullptr;
    exec::Budget* budget = nullptr;
    exec::FailurePoint* failpoint = nullptr;
};

/// Run single-node learning over `stems` using the per-worker simulators
/// `sims` (all sharing one Topology, identically configured: gating,
/// equivalences, and tie vectors aliasing `ties`). sims[0] drives the
/// calling thread's recomputes; at most sims.size() workers run, and `sims`
/// must not be empty. New relations land in `db`, new ties in `ties` (and
/// become simulation facts for later stems via the aliased tie vectors),
/// and observations in `records`.
///
/// Relations are stored when at least one side is a sequential element
/// (gate-gate relations follow from these and are skipped, as in the
/// paper). Constants and already-tied gates never form relations.
/// `progress`, when non-null, is invoked on the calling thread before each
/// stem with (stems visited so far, stems.size()); returning false cancels
/// the pass (partial results are kept and the outcome's stop status set).
SingleNodeOutcome single_node_learning(
    const netlist::Netlist& nl, std::span<sim::BatchFrameSimulator> sims,
    std::span<const netlist::GateId> stems, std::uint32_t max_frames, TieSet& ties,
    ImplicationDB& db, StemRecords& records,
    const std::function<bool(std::size_t, std::size_t)>* progress = nullptr,
    const LearnExecEnv& env = {});

}  // namespace seqlearn::core
