#include "core/multiple_node.hpp"

#include "exec/speculate.hpp"

#include <algorithm>
#include <array>

namespace seqlearn::core {

namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

/// Targets per 64-lane batch: one injection-schedule lane per target.
constexpr std::size_t kMaxBatchTargets = 64;

bool is_constant(const Netlist& nl, GateId g) {
    const GateType t = nl.type(g);
    return t == GateType::Const0 || t == GateType::Const1;
}

// Mutations one target wants to apply; at most one tie (the target itself).
struct TargetDelta {
    bool contradiction = false;
    bool tie = false;
    GateId tie_gate = netlist::kNoGate;
    Val3 tie_value = Val3::X;
    std::uint32_t tie_cycle = 0;
    struct Rel {
        Literal lhs;
        Literal rhs;
        std::uint32_t frame;
    };
    std::vector<Rel> relations;

    void clear() {
        contradiction = tie = false;
        relations.clear();
    }
};

struct DirectCtx {
    TieSet& ties;
    ImplicationDB& db;
    MultipleNodeOutcome& out;

    bool tied(GateId g) const { return ties.is_tied(g); }
    void set_tie(GateId g, Val3 v, std::uint32_t cycle) {
        ties.set(g, v, cycle);
        ++out.ties_found;
    }
    void mark_contradiction() { ++out.contradiction_ties; }
    void add_relation(Literal lhs, Literal rhs, std::uint32_t frame) {
        if (db.add(lhs, rhs, frame)) ++out.relations_added;
    }
};

struct SpecCtx {
    const TieSet& live;
    TargetDelta& delta;

    // Unlike the single-node pass, a target never reads a tie it set itself
    // (the tie paths return immediately), so no overlay is needed.
    bool tied(GateId g) const { return live.is_tied(g); }
    void set_tie(GateId g, Val3 v, std::uint32_t cycle) {
        delta.tie = true;
        delta.tie_gate = g;
        delta.tie_value = v;
        delta.tie_cycle = cycle;
    }
    void mark_contradiction() { delta.contradiction = true; }
    void add_relation(Literal lhs, Literal rhs, std::uint32_t frame) {
        delta.relations.push_back({lhs, rhs, frame});
    }
};

// The structural half of a target: the contrapositive injection schedule
// and its exact frame window. Independent of the tie set (tied stems stay
// in the schedule on purpose — their seeded facts produce the proving
// conflict), so plans can be built once per batch.
struct TargetPlan {
    /// Two records contrapose to opposite values on the same stem at the
    /// same frame: the premise n=!v is impossible outright (a tie, no
    /// simulation needed).
    bool contradictory = false;
    std::uint32_t T = 0;
};

// Append the injections of `target` to `inj` and return the plan.
TargetPlan plan_target(const StemRecords& records, const MultipleNodeConfig& cfg,
                       Literal target, std::vector<sim::Injection>& inj) {
    TargetPlan plan;
    const std::vector<StemRecord>& recs = records.records_for(target);
    std::uint32_t max_offset = 0;
    for (const StemRecord& r : recs)
        if (r.offset < cfg.max_frames) max_offset = std::max(max_offset, r.offset);
    plan.T = max_offset;

    // Contrapositive injections: target=!v at T, stems=!sv at T-offset.
    const std::size_t first = inj.size();
    const Literal premise = negate(target);
    inj.push_back({plan.T, premise.gate, premise.value});
    for (const StemRecord& r : recs) {
        if (r.offset > plan.T) continue;
        // Tied stems are not skipped: if a record contraposes against
        // the tied value, the simulator's tie seeding produces the
        // conflict that proves the target tie.
        const Literal st = negate(r.stem);
        const std::uint32_t frame = plan.T - r.offset;
        bool duplicate = false;
        for (std::size_t i = first; i < inj.size(); ++i) {
            if (inj[i].frame == frame && inj[i].gate == st.gate) {
                if (inj[i].value != st.value) plan.contradictory = true;
                duplicate = true;
                break;
            }
        }
        if (!duplicate) inj.push_back({frame, st.gate, st.value});
    }
    return plan;
}

// Extraction over a completed run (order-insensitive: the relation set is a
// function of the frame-T implied set alone). Shared by the speculative and
// commit sides.
template <typename Ctx>
void extract_target(const Netlist& nl, Literal target, std::uint32_t T,
                    const sim::FrameSimResult& res, Ctx& ctx) {
    if (res.conflict) {
        ctx.set_tie(target.gate, target.value, T);
        return;
    }
    const Literal premise = negate(target);
    const bool premise_seq = netlist::is_sequential(nl.type(premise.gate));
    for (const sim::ImpliedValue& iv : res.implied) {
        if (iv.frame != T) continue;
        if (iv.gate == premise.gate) continue;
        if (is_constant(nl, iv.gate) || ctx.tied(iv.gate)) continue;
        if (!premise_seq && !netlist::is_sequential(nl.type(iv.gate))) continue;
        ctx.add_relation(premise, {iv.gate, iv.value}, T);
    }
}

// Per-worker scratch. Lane spans point into the flat `inj` buffer, which is
// fully built before the spans are taken.
struct MultiBatchScratch {
    std::vector<sim::Injection> inj;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> inj_span;  // per lane
    std::vector<sim::BatchLane> lanes;
    sim::BatchFrameResult bres;
    std::array<sim::FrameSimResult, kMaxBatchTargets> lane_res;
};

// Plan and simulate targets [base, base+count) as one batch against the
// current tie view. lane_of[p] >= 0 indexes the target's lane; -1 = no lane
// (skipped or contradictory — see plans[p]).
struct BatchPlanEntry {
    int lane = -1;
    bool skipped = true;
    TargetPlan plan;
};

template <typename TiedFn>
void simulate_target_batch(sim::BatchFrameSimulator& bsim, std::span<const Literal> targets,
                           std::size_t base, std::size_t count, const StemRecords& records,
                           const MultipleNodeConfig& cfg, const Netlist& nl, TiedFn&& tied,
                           MultiBatchScratch& w,
                           std::array<BatchPlanEntry, kMaxBatchTargets>& entries) {
    w.inj.clear();
    w.inj_span.clear();
    w.lanes.clear();
    int n_lanes = 0;
    for (std::size_t p = 0; p < count; ++p) {
        BatchPlanEntry& e = entries[p];
        e = {};
        const Literal target = targets[base + p];
        if (tied(target.gate) || is_constant(nl, target.gate)) continue;
        e.skipped = false;
        const std::size_t first = w.inj.size();
        e.plan = plan_target(records, cfg, target, w.inj);
        if (e.plan.contradictory) {
            w.inj.resize(first);  // no simulation needed
            continue;
        }
        e.lane = n_lanes++;
        w.inj_span.push_back({static_cast<std::uint32_t>(first),
                              static_cast<std::uint32_t>(w.inj.size() - first)});
    }
    if (n_lanes == 0) return;
    std::uint32_t max_T = 0;
    int lane = 0;
    for (std::size_t p = 0; p < count; ++p) {
        if (entries[p].lane < 0) continue;
        const auto [off, len] = w.inj_span[static_cast<std::size_t>(lane)];
        w.lanes.push_back({{w.inj.data() + off, len}, entries[p].plan.T + 1});
        max_T = std::max(max_T, entries[p].plan.T);
        ++lane;
    }
    sim::FrameSimOptions opt;
    opt.max_frames = max_T + 1;
    opt.stop_on_state_repeat = false;  // every lane's window is exact
    bsim.run_batch(w.lanes, opt, w.bres);
    w.bres.extract_all({w.lane_res.data(), static_cast<std::size_t>(n_lanes)});
}

// NOTE: structural twin of single_node.cpp's run_batched — the commit
// skeleton is shared via exec::speculate_batches; keep the client
// scaffolding (slot sizing, version snapshot, re-batch-after-tie recompute
// loop) in lockstep with that file.
MultipleNodeOutcome run_batched(const Netlist& nl, std::span<sim::BatchFrameSimulator> sims,
                                const StemRecords& records, const MultipleNodeConfig& cfg,
                                std::span<const Literal> targets, TieSet& ties,
                                ImplicationDB& db, const LearnExecEnv& env,
                                unsigned workers) {
    MultipleNodeOutcome out;
    const std::size_t n = targets.size();
    const std::size_t bs = kMaxBatchTargets;

    const exec::SpeculateOptions sopt;
    std::vector<MultiBatchScratch> ws(workers);

    struct BatchDelta {
        std::vector<TargetDelta> deltas;
        std::vector<std::uint8_t> processed;
        std::size_t computed = 0;
    };
    std::vector<BatchDelta> slots(exec::resolved_max_window(sopt, workers));

    std::uint64_t dispatch_version = 0;
    std::size_t next_progress = 0;

    // The serial observation point of a target: cancel/budget and the
    // max-targets cap, polled before every target in commit order. The poll
    // runs before the once-per-target dedup so sticky stop conditions Stop a
    // retried batch whose compute fast-aborted (see single_node.cpp).
    auto observe_target = [&](std::size_t idx) -> bool {
        const exec::RunStatus st = exec::poll_point(env.cancel, env.budget);
        if (st != exec::RunStatus::Completed) {
            out.stop = st;
            out.next_index = idx;
            return false;
        }
        if (cfg.max_targets != 0 && out.targets_processed >= cfg.max_targets) {
            out.next_index = idx;
            return false;
        }
        if (idx >= next_progress) {
            if (env.budget != nullptr) env.budget->note_item();
            next_progress = idx + 1;
            out.next_index = next_progress;
        }
        return true;
    };

    // Re-derive targets [i, end) on the calling thread against the live tie
    // set, re-batching after every target that lands a tie. Returns false
    // when stopped by cancel/budget (hitting the target cap just ends the
    // work and stays a Completed outcome).
    auto recompute_rest = [&](std::size_t i, std::size_t end) -> bool {
        if (env.failpoint != nullptr) env.failpoint->poll(exec::FailSite::BatchRecompute);
        DirectCtx ctx{ties, db, out};
        MultiBatchScratch& w = ws[0];
        std::array<BatchPlanEntry, kMaxBatchTargets> entries;
        while (i < end) {
            const std::size_t count = std::min(bs, end - i);
            simulate_target_batch(sims[0], targets, i, count, records, cfg, nl,
                                  [&](GateId g) { return ties.is_tied(g); }, w, entries);
            std::size_t done = count;
            for (std::size_t p = 0; p < count; ++p) {
                if (!observe_target(i + p)) return out.stop == exec::RunStatus::Completed;
                const BatchPlanEntry& e = entries[p];
                if (e.skipped) continue;
                ++out.targets_processed;
                const std::uint64_t v0 = ties.version();
                if (e.plan.contradictory) {
                    ctx.set_tie(targets[i + p].gate, targets[i + p].value, e.plan.T);
                    ctx.mark_contradiction();
                } else {
                    extract_target(nl, targets[i + p], e.plan.T,
                                   w.lane_res[static_cast<std::size_t>(e.lane)], ctx);
                }
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
        // Fast abort on a pending sticky stop (see single_node.cpp).
        if ((env.cancel != nullptr && env.cancel->requested()) ||
            (env.budget != nullptr && env.budget->deadline_exceeded()))
            return;
        if (env.failpoint != nullptr) env.failpoint->poll(exec::FailSite::WorkItem);
        MultiBatchScratch& w = ws[worker];
        std::array<BatchPlanEntry, kMaxBatchTargets> entries;
        simulate_target_batch(sims[worker], targets, base, count, records, cfg, nl,
                              [&](GateId g) { return ties.is_tied(g); }, w, entries);
        for (std::size_t p = 0; p < count; ++p) {
            TargetDelta& delta = d.deltas[p];
            delta.clear();
            d.computed = p + 1;
            const BatchPlanEntry& e = entries[p];
            if (e.skipped) continue;
            SpecCtx ctx{ties, delta};
            if (e.plan.contradictory) {
                ctx.set_tie(targets[base + p].gate, targets[base + p].value, e.plan.T);
                ctx.mark_contradiction();
            } else {
                extract_target(nl, targets[base + p], e.plan.T,
                               w.lane_res[static_cast<std::size_t>(e.lane)], ctx);
            }
            d.processed[p] = 1;
            // A tie makes every later target's simulation stale; the commit
            // side re-derives the remainder.
            if (delta.tie) break;
        }
    };
    auto stale = [&](std::size_t pos, std::size_t slot) {
        return ties.version() != dispatch_version || pos >= slots[slot].computed;
    };
    auto apply = [&](std::size_t, std::size_t slot, std::size_t pos) {
        const BatchDelta& d = slots[slot];
        if (!d.processed[pos]) return;
        if (env.failpoint != nullptr) env.failpoint->poll(exec::FailSite::SpecCommit);
        const TargetDelta& delta = d.deltas[pos];
        ++out.targets_processed;
        if (delta.tie) {
            ties.set(delta.tie_gate, delta.tie_value, delta.tie_cycle);
            ++out.ties_found;
        }
        if (delta.contradiction) ++out.contradiction_ties;
        for (const TargetDelta::Rel& r : delta.relations) {
            if (db.add(r.lhs, r.rhs, r.frame)) ++out.relations_added;
        }
    };
    exec::speculate_batches(workers > 1 ? env.pool : nullptr, n, bs, sopt, prepare,
                            compute, observe_target, stale, apply, recompute_rest, workers);
    return out;
}

}  // namespace

MultipleNodeOutcome multiple_node_learning(const Netlist& nl,
                                           std::span<sim::BatchFrameSimulator> sims,
                                           const StemRecords& records,
                                           const MultipleNodeConfig& cfg, TieSet& ties,
                                           ImplicationDB& db, const LearnExecEnv& env,
                                           std::size_t first_target) {
    const std::vector<Literal> all_targets = records.targets(cfg.min_records);
    const std::size_t skip = std::min(first_target, all_targets.size());
    const std::span<const Literal> targets{all_targets.data() + skip,
                                           all_targets.size() - skip};

    unsigned workers = env.pool != nullptr ? env.pool->size() : 1;
    if (env.max_workers != 0) workers = std::min(workers, env.max_workers);
    workers = std::min<unsigned>(workers, static_cast<unsigned>(sims.size()));

    // The pass reports next_index relative to `targets`; shift back to the
    // global order.
    MultipleNodeOutcome out = run_batched(nl, sims, records, cfg, targets, ties, db, env,
                                          std::max(1u, workers));
    out.next_index += skip;
    return out;
}

}  // namespace seqlearn::core
