#pragma once
// The batched speculation driver both learning passes run on.
//
// Execution model: a learning pass is serially defined — a tie learned at
// unit k (a stem, or a multiple-node target) is a simulation fact for every
// unit after k. Units are packed into 64-lane batches (32 stems with their
// {inject 0, inject 1} lane pairs, or 64 targets with one injection-schedule
// lane each), so a batch is one bit-parallel run of a
// sim::BatchFrameSimulator and a cone gate shared by several units is
// evaluated once per batch instead of once per injection. Everything the
// units share — constants, learned ties, their equivalence forcings and
// tie-driven state — lives in the clock class's sim::TieClosure: computed
// once per tie-set version, read by every batch, and extended in place by
// the committing thread whenever a tie is committed. Batches simulate and
// record only lane-divergent values (and the background's values on untied
// gates, which the extraction reads).
//
// Each batch is one item of ordered speculation (exec::speculate_ordered):
// workers simulate and extract batches against the tie state frozen at
// window dispatch, writing one delta per unit; the calling thread applies
// the deltas in unit order. A commit that finds the tie set moved since
// dispatch re-derives the rest of its batch against the live state, writing
// straight into the tie set, the DB and the records, and re-batches after
// every unit that lands a tie. Ties are not rare, and they come in runs — a
// tie's closure usually makes the next stem tie the gates it implies: on
// gen38417, 436 single-node stems land ties, so on top of the pass's 445
// batches 419 batch remainders are re-simulated. Both extractions are
// order-insensitive within a frame, so the results are exactly the serial
// one-run-per-unit schedule's at any worker count, even though a batch's
// event order differs.

#include "core/impl_db.hpp"
#include "core/stem_records.hpp"
#include "core/tie.hpp"
#include "exec/budget.hpp"
#include "exec/cancel.hpp"
#include "exec/failpoint.hpp"
#include "exec/outcome.hpp"
#include "exec/pool.hpp"
#include "exec/speculate.hpp"
#include "sim/batch_frame_sim.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

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

/// How a learning pass executes: serial when `pool` is null (or resolves to
/// one worker), speculative-parallel otherwise. `cancel` and `budget`, when
/// non-null, are polled at unit boundaries — cooperative, thread-safe stop
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

/// Commit a learned tie: record it in `ties` and extend the pass's
/// background with it, so later batches simulate it as a fact.
inline void commit_tie(TieSet& ties, sim::TieClosure& closure, GateId g, Val3 v,
                       std::uint32_t cycle) {
    ties.set(g, v, cycle);
    closure.add_tie(g, v, cycle);
}

/// Constants never form ties or relations.
inline bool is_constant(const Netlist& nl, GateId g) {
    const netlist::GateType t = nl.type(g);
    return t == netlist::GateType::Const0 || t == netlist::GateType::Const1;
}

/// Everything one speculatively extracted unit wants to do to the live
/// structures, in emission order per structure; applied later in unit
/// order, so the final state is exactly the serial schedule's.
struct UnitDelta {
    bool outright = false;  ///< the unit was tied without extraction
    struct Tie {
        GateId gate;
        Val3 value;
        std::uint32_t cycle;
    };
    struct Rec {
        Literal node;
        Literal stem;
        std::uint32_t offset;
    };
    struct Rel {
        Literal lhs;
        Literal rhs;
        std::uint32_t frame;
    };
    std::vector<Tie> ties;
    std::vector<Rec> records;
    std::vector<Rel> relations;

    void clear() {
        outright = false;
        ties.clear();
        records.clear();
        relations.clear();
    }
};

/// The worker-side extraction context: reads the live tie set (frozen
/// during a window's compute phase) through an overlay that replays this
/// unit's own ties, and writes every mutation into the unit's delta.
struct SpecCtx {
    const TieSet& live;
    std::vector<std::uint8_t>& overlay;  ///< 1 = tied by this unit
    std::vector<GateId>& overlay_touched;
    UnitDelta& delta;

    bool tied(GateId g) const { return overlay[g] != 0 || live.is_tied(g); }
    void set_tie(GateId g, Val3 v, std::uint32_t cycle) {
        overlay[g] = 1;
        overlay_touched.push_back(g);
        delta.ties.push_back({g, v, cycle});
    }
    void mark_outright() { delta.outright = true; }
    void add_record(Literal node, Literal stem, std::uint32_t offset) {
        delta.records.push_back({node, stem, offset});
    }
    void add_relation(Literal lhs, Literal rhs, std::uint32_t frame) {
        delta.relations.push_back({lhs, rhs, frame});
    }
};

/// The calling thread's recompute context: writes the live structures.
struct DirectCtx {
    TieSet& ties;
    sim::TieClosure& closure;
    ImplicationDB& db;
    StemRecords* records;
    PassOutcome& out;

    bool tied(GateId g) const { return ties.is_tied(g); }
    void set_tie(GateId g, Val3 v, std::uint32_t cycle) {
        commit_tie(ties, closure, g, v, cycle);
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

/// Run units [first, n) of `pass` in batches of Pass::kBatch, committing
/// into `ties`, `closure`, `db` and `records` (null for a pass that records
/// nothing). A pass supplies its per-worker `Pass::Scratch` and
///  - simulate(sim, base, count, ties, scratch): pack the lanes of units
///    [base, base+count) that `ties` leaves unskipped and run one batch;
///  - extract(unit, pos, scratch, ctx): the paper's extraction for the unit
///    at batch position `pos` through a SpecCtx or DirectCtx; false when
///    the unit was skipped.
/// sims[w] is worker w's simulator (sims[0] also drives the recomputes); at
/// most sims.size() workers run, and `sims` must not be empty. `progress`,
/// when non-null, is invoked on the calling thread before each unit with
/// (unit index, n); returning false cancels the pass.
template <typename Pass>
PassOutcome run_learn_pass(const Pass& pass, std::size_t first, std::size_t n,
                           std::span<sim::BatchFrameSimulator> sims, TieSet& ties,
                           sim::TieClosure& closure, ImplicationDB& db, StemRecords* records,
                           const std::function<bool(std::size_t, std::size_t)>* progress,
                           const LearnExecEnv& env) {
    first = std::min(first, n);
    PassOutcome out;
    out.next_index = first;
    constexpr std::size_t bs = Pass::kBatch;
    unsigned workers = env.pool != nullptr ? env.pool->size() : 1;
    if (env.max_workers != 0) workers = std::min(workers, env.max_workers);
    workers = std::max(1u, std::min<unsigned>(workers, static_cast<unsigned>(sims.size())));

    // Ties come in runs (a tie's closure often ties more gates on the very
    // next unit), so the window may shrink to one batch, computed inline.
    const exec::SpeculateOptions sopt{.min_window = 1};
    struct Worker {
        typename Pass::Scratch scratch;
        std::vector<std::uint8_t> overlay;
        std::vector<GateId> overlay_touched;
    };
    std::vector<Worker> ws(workers);
    for (Worker& w : ws) w.overlay.assign(ties.dense().size(), 0);
    struct Slot {
        std::vector<UnitDelta> deltas;
        std::vector<std::uint8_t> processed;
        std::size_t computed = 0;  ///< positions with valid deltas
    };
    std::vector<Slot> slots(exec::resolved_max_window(sopt, workers));

    std::uint64_t dispatch_version = 0;
    std::size_t next_progress = first;

    // The serial observation point of unit `idx`: cancel/budget/progress
    // polled exactly once per unit, in order, with all earlier units
    // committed — so a budgeted stop lands at the same unit regardless of
    // worker count or batching.
    auto observe = [&](std::size_t idx) -> bool {
        // Poll before the dedup: stop conditions are sticky, so a window
        // whose compute fast-aborted always Stops here instead of retrying
        // forever against an empty slot.
        const exec::RunStatus st = exec::poll_point(env.cancel, env.budget);
        if (st != exec::RunStatus::Completed) {
            out.stop = st;
            out.next_index = idx;
            return false;
        }
        if (idx < next_progress) return true;
        if (progress != nullptr && *progress && !(*progress)(idx, n)) {
            out.stop = exec::RunStatus::Cancelled;
            out.next_index = idx;
            return false;
        }
        if (env.budget != nullptr) env.budget->note_item();
        next_progress = idx + 1;
        out.next_index = next_progress;
        return true;
    };

    // Re-derive units [i, end) on the calling thread against the live tie
    // set, re-batching after every unit that lands a tie (its successors'
    // simulations are stale under the serial schedule). Returns false when
    // stopped.
    auto recompute_rest = [&](std::size_t i, std::size_t end) -> bool {
        if (env.failpoint != nullptr) env.failpoint->poll(exec::FailSite::BatchRecompute);
        DirectCtx ctx{ties, closure, db, records, out};
        typename Pass::Scratch& s = ws[0].scratch;
        while (i < end) {
            const std::size_t count = std::min(bs, end - i);
            pass.simulate(sims[0], i, count, ties, s);
            std::size_t done = count;
            for (std::size_t p = 0; p < count; ++p) {
                if (!observe(i + p)) return false;
                const std::uint64_t v0 = ties.version();
                if (!pass.extract(i + p, p, s, ctx)) continue;
                ++out.processed;
                if (ties.version() != v0) {
                    done = p + 1;  // successors were simulated pre-tie
                    break;
                }
            }
            i += done;
        }
        return true;
    };

    auto prepare = [&](std::size_t, std::size_t) { dispatch_version = ties.version(); };
    auto compute = [&](unsigned worker, std::size_t item, std::size_t slot) {
        Slot& d = slots[slot];
        const std::size_t base = first + item * bs;
        const std::size_t count = std::min(bs, n - base);
        d.deltas.resize(std::max(d.deltas.size(), count));
        d.processed.assign(count, 0);
        d.computed = 0;
        // Fast abort: once a stop is requested the commit walk is about to
        // Stop at its next observe, so computing this batch is wasted work.
        if ((env.cancel != nullptr && env.cancel->requested()) ||
            (env.budget != nullptr && env.budget->deadline_exceeded()))
            return;
        if (env.failpoint != nullptr) env.failpoint->poll(exec::FailSite::WorkItem);
        Worker& w = ws[worker];
        pass.simulate(sims[worker], base, count, ties, w.scratch);
        for (std::size_t p = 0; p < count; ++p) {
            UnitDelta& delta = d.deltas[p];
            delta.clear();
            d.computed = p + 1;
            SpecCtx ctx{ties, w.overlay, w.overlay_touched, delta};
            const bool extracted = pass.extract(base + p, p, w.scratch, ctx);
            for (const GateId g : w.overlay_touched) w.overlay[g] = 0;
            w.overlay_touched.clear();
            if (!extracted) continue;  // skipped; processed stays 0
            d.processed[p] = 1;
            // A tie makes every later unit's simulation stale; stop here and
            // let the commit side re-derive the remainder.
            if (!delta.ties.empty()) break;
        }
    };
    auto stale = [&](std::size_t pos, std::size_t slot) {
        return ties.version() != dispatch_version || pos >= slots[slot].computed;
    };
    auto apply = [&](std::size_t slot, std::size_t pos) {
        const Slot& d = slots[slot];
        if (!d.processed[pos]) return;
        if (env.failpoint != nullptr) env.failpoint->poll(exec::FailSite::SpecCommit);
        const UnitDelta& delta = d.deltas[pos];
        ++out.processed;
        for (const UnitDelta::Tie& t : delta.ties) {
            commit_tie(ties, closure, t.gate, t.value, t.cycle);
            ++out.ties_found;
        }
        if (delta.outright) ++out.outright_ties;
        for (const UnitDelta::Rec& r : delta.records) records->add(r.node, r.stem, r.offset);
        for (const UnitDelta::Rel& r : delta.relations) {
            if (db.add(r.lhs, r.rhs, r.frame)) ++out.relations_added;
        }
    };
    // Commit one batch in unit order. A stale unit at position 0 retries the
    // window (nothing of the batch was applied); a later one hands the batch
    // remainder to recompute_rest. A batch whose commit moved the tie set
    // reports Changed, so the window does not grow on it.
    auto commit = [&](std::size_t item, std::size_t slot) -> exec::Commit {
        const std::size_t base = first + item * bs;
        const std::size_t count = std::min(bs, n - base);
        for (std::size_t p = 0; p < count; ++p) {
            if (!observe(base + p)) return exec::Commit::Stop;
            if (stale(p, slot)) {
                if (p == 0) return exec::Commit::Retry;
                return recompute_rest(base + p, base + count) ? exec::Commit::Changed
                                                              : exec::Commit::Stop;
            }
            apply(slot, p);
        }
        // Every unit was computed and applied, so staleness at position 0
        // now can only mean the applied units moved the tie set.
        return stale(0, slot) ? exec::Commit::Changed : exec::Commit::Done;
    };
    exec::speculate_ordered(workers > 1 ? env.pool : nullptr, (n - first + bs - 1) / bs, sopt,
                            prepare, compute, commit, workers);
    return out;
}

}  // namespace seqlearn::core
