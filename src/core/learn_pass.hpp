#pragma once
// The batched serial loop both learning passes run on.
//
// Execution model: a learning pass is serially defined — a tie learned at
// unit k (a stem, or a multiple-node target) is a simulation fact for every
// unit after k — and it runs on the calling thread. Units are packed into
// 64-lane batches (32 stems with their {inject 0, inject 1} lane pairs, or
// 64 targets with one injection-schedule lane each), so a batch is one
// bit-parallel run of a sim::BatchFrameSimulator and a cone gate shared by
// several units is evaluated once per batch instead of once per injection.
// Everything the units share — constants, learned ties, their equivalence
// forcings and tie-driven state — lives in the clock class's
// sim::TieClosure: computed once per tie-set version, read by every batch,
// and extended in place whenever a tie is committed. Batches simulate and
// record only lane-divergent values (and the background's values on untied
// gates, which the extraction reads).
//
// The units run in windows of one batch each. Each unit is extracted
// straight into the tie set, the closure, the DB and the records. A unit
// that lands a tie makes the simulations of its window's later units stale,
// so the loop re-batches the rest of the window from the next unit. Ties
// are not rare, and they come in runs — a tie's closure usually makes the
// next stem tie the gates it implies: on gen38417, 436 single-node stems
// land ties. That is also why the pass has one worker: batches speculated
// on several workers were nearly all re-derived after a tie, and lost to
// this loop (ROADMAP item 1). Both extractions are order-insensitive within
// a frame, so the results are exactly the serial one-run-per-unit
// schedule's, even though a batch's event order differs.

#include "core/impl_db.hpp"
#include "core/stem_records.hpp"
#include "core/tie.hpp"
#include "exec/budget.hpp"
#include "exec/cancel.hpp"
#include "exec/failpoint.hpp"
#include "exec/outcome.hpp"
#include "sim/batch_frame_sim.hpp"

#include <algorithm>
#include <functional>

namespace seqlearn::core {

struct PassOutcome {
    /// Units extracted (skipped units — already tied or constant — excluded).
    std::size_t processed = 0;
    std::size_t relations_added = 0;
    std::size_t ties_found = 0;
    /// Units tied without extraction: a stem whose injection conflicted, or
    /// a target whose records contrapose to a contradiction.
    std::size_t outright_ties = 0;
    /// Why the pass stopped: Completed after the full unit list, otherwise
    /// the cancel/budget status observed at a unit boundary. Every unit
    /// before `next_index` is fully committed, none after is touched — the
    /// result is an exact prefix of the serial schedule.
    exec::RunStatus stop = exec::RunStatus::Completed;
    /// Resume cursor: index of the first unit not processed.
    std::size_t next_index = 0;
};

/// A pass's governance. `cancel` and `budget`, when non-null, are polled at
/// unit boundaries — cooperative, thread-safe stop switches in addition to
/// the progress observer's return value. `failpoint`, when non-null, is the
/// fault-injection harness, polled before each batch simulation.
struct LearnExecEnv {
    exec::CancelFlag* cancel = nullptr;
    exec::Budget* budget = nullptr;
    exec::FailurePoint* failpoint = nullptr;
};

/// Constants never form ties or relations.
inline bool is_constant(const Netlist& nl, GateId g) {
    const netlist::GateType t = nl.type(g);
    return t == netlist::GateType::Const0 || t == netlist::GateType::Const1;
}

/// Where an extraction writes: the live tie set, the pass's background, the
/// DB, the records and the pass's counters.
struct LearnCtx {
    TieSet& ties;
    sim::TieClosure& closure;
    ImplicationDB& db;
    StemRecords* records;
    PassOutcome& out;

    bool tied(GateId g) const { return ties.is_tied(g); }
    /// Commit a learned tie: record it in the tie set and extend the
    /// background with it, so later batches simulate it as a fact.
    void set_tie(GateId g, Val3 v, std::uint32_t cycle) {
        ties.set(g, v, cycle);
        closure.add_tie(g, v, cycle);
        ++out.ties_found;
    }
    void mark_outright() { ++out.outright_ties; }
    void add_record(Literal node, Literal stem, std::uint32_t offset) {
        records->add(node, stem, offset);
    }
    void add_relation(Literal lhs, Literal rhs, std::uint32_t frame) {
        if (db.add(lhs, rhs, frame)) ++out.relations_added;
    }
};

/// Run units [first, n) of `pass` in windows of Pass::kBatch on `bsim`,
/// committing into `ties`, `closure`, `db` and `records` (null for a pass
/// that records nothing). A pass supplies its `Pass::Scratch` and
///  - simulate(bsim, base, count, ties, scratch): pack the lanes of units
///    [base, base+count) that `ties` leaves unskipped and run one batch;
///  - extract(unit, pos, scratch, ctx): the paper's extraction for the unit
///    at batch position `pos`; false when the unit was skipped.
/// `progress`, when non-null, is invoked before each unit with (unit
/// index, n); returning false cancels the pass. The failpoint's WorkItem
/// site is polled before each window's first batch, its BatchRecompute site
/// before each batch that re-simulates the units a tie left stale.
template <typename Pass>
PassOutcome run_learn_pass(const Pass& pass, std::size_t first, std::size_t n,
                           sim::BatchFrameSimulator& bsim, TieSet& ties,
                           sim::TieClosure& closure, ImplicationDB& db, StemRecords* records,
                           const std::function<bool(std::size_t, std::size_t)>* progress,
                           const LearnExecEnv& env) {
    PassOutcome out;
    LearnCtx ctx{ties, closure, db, records, out};
    typename Pass::Scratch scratch;

    // Cancel, budget and progress are polled once per unit, in order, with
    // every earlier unit committed — so a budgeted stop lands at the same
    // unit however the units are batched.
    auto stops_at = [&](std::size_t unit) {
        exec::RunStatus st = exec::poll_point(env.cancel, env.budget);
        if (st == exec::RunStatus::Completed && progress != nullptr && *progress &&
            !(*progress)(unit, n))
            st = exec::RunStatus::Cancelled;
        if (st == exec::RunStatus::Completed) {
            if (env.budget != nullptr) env.budget->note_item();
            return false;
        }
        out.stop = st;
        out.next_index = unit;
        return true;
    };

    for (std::size_t base = first; base < n; base += Pass::kBatch) {
        const std::size_t end = std::min(base + Pass::kBatch, n);
        for (std::size_t i = base; i < end;) {
            if (env.failpoint != nullptr)
                env.failpoint->poll(i == base ? exec::FailSite::WorkItem
                                              : exec::FailSite::BatchRecompute);
            pass.simulate(bsim, i, end - i, ties, scratch);
            std::size_t next = end;
            for (std::size_t unit = i; unit < end; ++unit) {
                if (stops_at(unit)) return out;
                const std::uint64_t version = ties.version();
                if (!pass.extract(unit, unit - i, scratch, ctx)) continue;
                ++out.processed;
                if (ties.version() != version) {
                    next = unit + 1;  // the later units were simulated before the tie
                    break;
                }
            }
            i = next;
        }
    }
    out.next_index = n;
    return out;
}

}  // namespace seqlearn::core
