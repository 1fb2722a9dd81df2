#include "core/single_node.hpp"

#include "exec/speculate.hpp"

#include <algorithm>
#include <array>

namespace seqlearn::core {

namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

/// Stems per 64-lane batch: two injection lanes per stem.
constexpr std::size_t kMaxBatchStems = 32;

bool is_constant(const Netlist& nl, GateId g) {
    const GateType t = nl.type(g);
    return t == GateType::Const0 || t == GateType::Const1;
}

// Frame bucketing without building per-frame vectors: `implied` is sorted by
// frame (frames simulate in order), so one sweep yields flat offsets —
// frame t's literals are implied[starts[t] .. starts[t+1]).
void frame_starts(const sim::FrameSimResult& res, std::uint32_t max_frames,
                  std::vector<std::uint32_t>& starts) {
    const std::uint32_t frames = std::min(res.frames_run, max_frames);
    starts.clear();
    std::size_t i = 0;
    for (std::uint32_t t = 0; t < frames; ++t) {
        starts.push_back(static_cast<std::uint32_t>(i));
        while (i < res.implied.size() && res.implied[i].frame == t) ++i;
    }
    starts.push_back(static_cast<std::uint32_t>(i));
}

// Per-stem scratch; all buffers reused so a stem in steady state costs zero
// heap allocations. `other` holds the "inject 1" run's value per gate at the
// frame being paired (X = absent), reset via touch list.
struct ExtractScratch {
    std::vector<Val3> other;
    std::vector<GateId> other_touched;
    std::vector<std::uint32_t> starts[2];
    std::vector<Literal> seq1;
    std::vector<std::uint32_t> cand;  // pass-2 candidate indices into f0

    void ensure(std::size_t num_gates) {
        if (other.size() < num_gates) other.assign(num_gates, Val3::X);
    }
};

// Everything a speculatively-processed stem wants to do to the shared
// structures, in emission order per structure; committed later in stem order
// so the final state is exactly the serial schedule's.
struct StemDelta {
    bool stem_conflict = false;  ///< stem tied by an injection conflict
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
        stem_conflict = false;
        ties.clear();
        records.clear();
        relations.clear();
    }
};

// The recompute-side context: mutates the real structures directly.
struct DirectCtx {
    TieSet& ties;
    sim::TieClosure& closure;
    ImplicationDB& db;
    StemRecords& records;
    SingleNodeOutcome& out;

    bool tied(GateId g) const { return ties.is_tied(g); }
    void set_tie(GateId g, Val3 v, std::uint32_t cycle) {
        commit_tie(ties, closure, g, v, cycle);
        ++out.ties_found;
    }
    void mark_stem_conflict() { ++out.stem_ties; }
    void add_record(Literal node, Literal stem, std::uint32_t offset) {
        records.add(node, stem, offset);
    }
    void add_relation(Literal lhs, Literal rhs, std::uint32_t frame) {
        if (db.add(lhs, rhs, frame)) ++out.relations_added;
    }
};

// The worker-side context: reads the live tie set (frozen during a window's
// compute phase) through a per-stem overlay that replays this stem's own
// discoveries, and writes all mutations into the stem's delta.
struct SpecCtx {
    const TieSet& live;
    std::vector<std::uint8_t>& overlay;        // 1 = tied by this stem
    std::vector<GateId>& overlay_touched;
    StemDelta& delta;

    bool tied(GateId g) const { return overlay[g] != 0 || live.is_tied(g); }
    void set_tie(GateId g, Val3 v, std::uint32_t cycle) {
        overlay[g] = 1;
        overlay_touched.push_back(g);
        delta.ties.push_back({g, v, cycle});
    }
    void mark_stem_conflict() { delta.stem_conflict = true; }
    void add_record(Literal node, Literal stem, std::uint32_t offset) {
        delta.records.push_back({node, stem, offset});
    }
    void add_relation(Literal lhs, Literal rhs, std::uint32_t frame) {
        delta.relations.push_back({lhs, rhs, frame});
    }
};

// Record collection and same-frame pairing over two completed conflict-free
// runs (inject 0 -> r0, inject 1 -> r1), both with implied lists grouped by
// frame. Shared verbatim by the speculative and commit sides via the
// context, so the two cannot drift apart.
//
// Within a frame the implied values arrive in the interleaved batch
// schedule's order, not the event order a lone FrameSimulator run of the
// same injection would yield, so this extraction is deliberately
// order-insensitive: per frame it first establishes every tie of that frame
// (a pure set condition), then emits relations with the frame's ties fully
// known. The emitted records, relation set, and tie set are functions of
// the per-frame implied *sets* alone, which 3-valued monotone propagation
// makes schedule-independent; that is what keeps the learning results
// independent of how stems are packed into batches, without canonicalizing
// sorts on the hot path.
template <typename Ctx>
void extract_stem_results(const Netlist& nl, GateId stem, const sim::FrameSimResult& r0,
                          const sim::FrameSimResult& r1, std::uint32_t max_frames,
                          ExtractScratch& s, Ctx& ctx) {
    // Observations feed the multiple-node pass.
    const sim::FrameSimResult* runs[2] = {&r0, &r1};
    for (int side = 0; side < 2; ++side) {
        const Literal stem_lit{stem, side == 1 ? Val3::One : Val3::Zero};
        for (const sim::ImpliedValue& iv : runs[side]->implied) {
            if (is_constant(nl, iv.gate) || ctx.tied(iv.gate)) continue;
            ctx.add_record({iv.gate, iv.value}, stem_lit, iv.frame);
        }
    }

    frame_starts(r0, max_frames, s.starts[0]);
    frame_starts(r1, max_frames, s.starts[1]);
    const std::size_t frames = std::min(s.starts[0].size(), s.starts[1].size()) - 1;
    for (std::size_t t = 0; t < frames; ++t) {
        const std::span<const sim::ImpliedValue> f0{
            r0.implied.data() + s.starts[0][t], r0.implied.data() + s.starts[0][t + 1]};
        const std::span<const sim::ImpliedValue> f1{
            r1.implied.data() + s.starts[1][t], r1.implied.data() + s.starts[1][t + 1]};

        // Index the inject-1 run's frame-t values; collect its FF subset.
        for (const GateId g : s.other_touched) s.other[g] = Val3::X;
        s.other_touched.clear();
        s.seq1.clear();
        for (const sim::ImpliedValue& b : f1) {
            if (is_constant(nl, b.gate) || ctx.tied(b.gate)) continue;
            s.other[b.gate] = b.value;
            s.other_touched.push_back(b.gate);
            if (netlist::is_sequential(nl.type(b.gate))) s.seq1.push_back({b.gate, b.value});
        }

        // Pass 1 — ties of frame t: both stem values force the same value.
        // Survivors (non-constant, not tied, not tying now) are the pass-2
        // sources; a pass-1 tie can only hit its own f0 entry (one entry per
        // gate per frame), so the survivor list needs no re-filtering.
        s.cand.clear();
        for (std::uint32_t idx = 0; idx < f0.size(); ++idx) {
            const sim::ImpliedValue& iv = f0[idx];
            if (is_constant(nl, iv.gate) || ctx.tied(iv.gate)) continue;
            if (s.other[iv.gate] == iv.value) {
                ctx.set_tie(iv.gate, iv.value, static_cast<std::uint32_t>(t));
                continue;
            }
            s.cand.push_back(idx);
        }

        // Pass 2 — relations, with every frame-t tie established (relations
        // touching a tied gate are subsumed by the tie and skipped).
        for (const std::uint32_t idx : s.cand) {
            const sim::ImpliedValue& iv = f0[idx];
            const Literal a{iv.gate, iv.value};
            const bool a_seq = netlist::is_sequential(nl.type(a.gate));
            // s=0 => a@t and s=1 => b@t give !a => b (same frame).
            // Keep relations touching at least one sequential element.
            for (const Literal& b : s.seq1) {
                if (b.gate == a.gate || ctx.tied(b.gate)) continue;
                ctx.add_relation(negate(a), b, static_cast<std::uint32_t>(t));
            }
            if (a_seq) {
                for (const sim::ImpliedValue& b : f1) {
                    if (b.gate == a.gate) continue;
                    if (netlist::is_sequential(nl.type(b.gate))) continue;  // done above
                    if (is_constant(nl, b.gate) || ctx.tied(b.gate)) continue;
                    ctx.add_relation(negate(a), {b.gate, b.value},
                                     static_cast<std::uint32_t>(t));
                }
            }
        }
    }
}

// One stem's verdict from its two lanes of a finished batch: `r0`/`r1` are
// the inject-0/inject-1 runs (frame-grouped implied lists; conflict flag
// for contradictory lanes).
template <typename Ctx>
void extract_batched_stem(const Netlist& nl, GateId stem, const sim::FrameSimResult& r0,
                          const sim::FrameSimResult& r1, std::uint32_t max_frames,
                          ExtractScratch& s, Ctx& ctx) {
    s.ensure(nl.size());
    // Serial order: the inject-0 run happens (and may conflict) first. A
    // conflicting injection proves the stem can never take that value, i.e.
    // it is tied to the other one; the refuted premise sat at an
    // arbitrary-state frame, so the tie holds from frame 0.
    if (r0.conflict) {
        ctx.set_tie(stem, Val3::One, 0);
        ctx.mark_stem_conflict();
        return;
    }
    if (r1.conflict) {
        ctx.set_tie(stem, Val3::Zero, 0);
        ctx.mark_stem_conflict();
        return;
    }
    extract_stem_results(nl, stem, r0, r1, max_frames, s, ctx);
}

using ProgressFnPtr = const std::function<bool(std::size_t, std::size_t)>*;

// Per-worker scratch: the lane schedules of one batch, the raw batch result,
// and the per-lane extracted runs.
struct BatchScratch {
    ExtractScratch scratch;
    std::vector<std::uint8_t> overlay;
    std::vector<GateId> overlay_touched;
    std::array<sim::Injection, 2 * kMaxBatchStems> inj;
    std::vector<sim::BatchLane> lanes;
    sim::BatchFrameResult bres;
    std::array<sim::FrameSimResult, 2 * kMaxBatchStems> lane_res;
};

// Pack the non-skipped stems of [base, base+count) into injection lanes
// (two per stem) against `tied`, run them as one batch, and extract every
// lane. lane_of[p] = the stem's first lane, or -1 when skipped.
template <typename TiedFn>
void simulate_stem_batch(sim::BatchFrameSimulator& bsim, std::span<const GateId> stems,
                         std::size_t base, std::size_t count, std::uint32_t max_frames,
                         const Netlist& nl, TiedFn&& tied, BatchScratch& w,
                         std::array<int, kMaxBatchStems>& lane_of) {
    w.lanes.clear();
    int n_lanes = 0;
    for (std::size_t p = 0; p < count; ++p) {
        const GateId stem = stems[base + p];
        if (tied(stem) || is_constant(nl, stem)) {
            lane_of[p] = -1;
            continue;
        }
        lane_of[p] = n_lanes;
        w.inj[static_cast<std::size_t>(n_lanes)] = {0, stem, Val3::Zero};
        w.inj[static_cast<std::size_t>(n_lanes) + 1] = {0, stem, Val3::One};
        n_lanes += 2;
    }
    for (int i = 0; i < n_lanes; ++i)
        w.lanes.push_back({{&w.inj[static_cast<std::size_t>(i)], 1}});
    if (n_lanes == 0) return;
    sim::FrameSimOptions opt;
    opt.max_frames = max_frames;
    bsim.run_batch(w.lanes, opt, w.bres);
    w.bres.extract_all({w.lane_res.data(), static_cast<std::size_t>(n_lanes)});
}

// NOTE: structural twin of multiple_node.cpp's run_batched — the commit
// skeleton (observe/stale/apply/recompute walk) is shared via
// exec::speculate_batches, but the client scaffolding here (slot sizing,
// version snapshot, the re-batch-after-tie recompute loop with its
// done = p + 1 boundary) must be kept in lockstep with that file.
SingleNodeOutcome run_batched(const Netlist& nl, std::span<sim::BatchFrameSimulator> sims,
                              sim::TieClosure& closure, std::span<const GateId> stems,
                              std::uint32_t max_frames, TieSet& ties, ImplicationDB& db,
                              StemRecords& records, ProgressFnPtr progress,
                              const LearnExecEnv& env, unsigned workers) {
    SingleNodeOutcome out;
    const std::size_t n = stems.size();
    const std::size_t bs = kMaxBatchStems;

    // Ties come in runs (a tie's closure often ties more gates on the very
    // next stem), so the window may shrink to one batch, computed inline.
    const exec::SpeculateOptions sopt{.min_window = 1};
    std::vector<BatchScratch> ws(workers);
    for (BatchScratch& w : ws) w.overlay.assign(nl.size(), 0);

    struct BatchDelta {
        std::vector<StemDelta> deltas;
        std::vector<std::uint8_t> processed;
        std::size_t computed = 0;  ///< positions with valid deltas
    };
    std::vector<BatchDelta> slots(exec::resolved_max_window(sopt, workers));

    std::uint64_t dispatch_version = 0;
    std::size_t next_progress = 0;

    // The serial observation point of stem `idx`: cancel/budget/progress
    // polled exactly once per stem, in order, with all earlier stems
    // committed — so a budgeted stop lands at the same stem regardless of
    // worker count or batching.
    auto observe_stem = [&](std::size_t idx) -> bool {
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

    // Re-derive stems [i, end) on the calling thread against the live tie
    // set, re-batching after every stem that lands a tie (its successors'
    // simulations are stale under the serial schedule). Returns false when
    // cancelled.
    auto recompute_rest = [&](std::size_t i, std::size_t end) -> bool {
        if (env.failpoint != nullptr) env.failpoint->poll(exec::FailSite::BatchRecompute);
        DirectCtx ctx{ties, closure, db, records, out};
        BatchScratch& w = ws[0];
        std::array<int, kMaxBatchStems> lane_of{};
        while (i < end) {
            const std::size_t count = std::min(bs, end - i);
            simulate_stem_batch(sims[0], stems, i, count, max_frames, nl,
                                [&](GateId g) { return ties.is_tied(g); }, w, lane_of);
            std::size_t done = count;
            for (std::size_t p = 0; p < count; ++p) {
                if (!observe_stem(i + p)) return false;
                if (lane_of[p] < 0) continue;
                const std::uint64_t v0 = ties.version();
                extract_batched_stem(nl, stems[i + p],
                                     w.lane_res[static_cast<std::size_t>(lane_of[p])],
                                     w.lane_res[static_cast<std::size_t>(lane_of[p]) + 1],
                                     max_frames, w.scratch, ctx);
                ++out.stems_processed;
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
        BatchDelta& d = slots[slot];
        const std::size_t base = item * bs;
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
        BatchScratch& w = ws[worker];
        std::array<int, kMaxBatchStems> lane_of{};
        simulate_stem_batch(sims[worker], stems, base, count, max_frames, nl,
                            [&](GateId g) { return ties.is_tied(g); }, w, lane_of);
        for (std::size_t p = 0; p < count; ++p) {
            StemDelta& delta = d.deltas[p];
            delta.clear();
            d.computed = p + 1;
            if (lane_of[p] < 0) continue;  // skipped; processed stays 0
            SpecCtx ctx{ties, w.overlay, w.overlay_touched, delta};
            extract_batched_stem(nl, stems[base + p],
                                 w.lane_res[static_cast<std::size_t>(lane_of[p])],
                                 w.lane_res[static_cast<std::size_t>(lane_of[p]) + 1],
                                 max_frames, w.scratch, ctx);
            for (const GateId g : w.overlay_touched) w.overlay[g] = 0;
            w.overlay_touched.clear();
            d.processed[p] = 1;
            // A tie makes every later stem's simulation stale; stop here and
            // let the commit side re-derive the remainder.
            if (!delta.ties.empty()) break;
        }
    };
    auto stale = [&](std::size_t pos, std::size_t slot) {
        return ties.version() != dispatch_version || pos >= slots[slot].computed;
    };
    auto apply = [&](std::size_t, std::size_t slot, std::size_t pos) {
        const BatchDelta& d = slots[slot];
        if (!d.processed[pos]) return;
        if (env.failpoint != nullptr) env.failpoint->poll(exec::FailSite::SpecCommit);
        const StemDelta& delta = d.deltas[pos];
        ++out.stems_processed;
        for (const StemDelta::Tie& t : delta.ties) {
            commit_tie(ties, closure, t.gate, t.value, t.cycle);
            ++out.ties_found;
        }
        if (delta.stem_conflict) ++out.stem_ties;
        for (const StemDelta::Rec& r : delta.records) records.add(r.node, r.stem, r.offset);
        for (const StemDelta::Rel& r : delta.relations) {
            if (db.add(r.lhs, r.rhs, r.frame)) ++out.relations_added;
        }
    };
    exec::speculate_batches(workers > 1 ? env.pool : nullptr, n, bs, sopt, prepare,
                            compute, observe_stem, stale, apply, recompute_rest, workers);
    return out;
}

}  // namespace

SingleNodeOutcome single_node_learning(const Netlist& nl,
                                       std::span<sim::BatchFrameSimulator> sims,
                                       sim::TieClosure& closure,
                                       std::span<const GateId> stems,
                                       std::uint32_t max_frames, TieSet& ties,
                                       ImplicationDB& db, StemRecords& records,
                                       ProgressFnPtr progress, const LearnExecEnv& env) {
    unsigned workers = env.pool != nullptr ? env.pool->size() : 1;
    if (env.max_workers != 0) workers = std::min(workers, env.max_workers);
    workers = std::min<unsigned>(workers, static_cast<unsigned>(sims.size()));
    return run_batched(nl, sims, closure, stems, max_frames, ties, db, records, progress, env,
                       std::max(1u, workers));
}

}  // namespace seqlearn::core
