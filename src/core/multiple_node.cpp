#include "core/multiple_node.hpp"

#include <algorithm>
#include <array>
#include <span>

namespace seqlearn::core {

namespace {

using netlist::Netlist;

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
TargetPlan plan_target(const StemRecords& records, std::uint32_t max_frames, Literal target,
                       std::vector<sim::Injection>& inj) {
    TargetPlan plan;
    const std::vector<StemRecord>& recs = records.records_for(target);
    std::uint32_t max_offset = 0;
    for (const StemRecord& r : recs)
        if (r.offset < max_frames) max_offset = std::max(max_offset, r.offset);
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
// function of the frame-T implied set alone).
void extract_target(const Netlist& nl, Literal target, std::uint32_t T,
                    const sim::FrameSimResult& res, LearnCtx& ctx) {
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

// The multiple-node pass as a client of run_learn_pass.
struct TargetPass {
    /// Targets per 64-lane batch: one injection-schedule lane per target.
    static constexpr std::size_t kBatch = 64;

    // A target's lane (-1 = none: skipped, or contradictory and so tied
    // without simulation) and its plan.
    struct Entry {
        int lane = -1;
        bool skipped = true;
        TargetPlan plan;
    };
    // Scratch. Lane spans point into the flat `inj` buffer, which is fully
    // built before the spans are taken.
    struct Scratch {
        std::vector<sim::Injection> inj;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> inj_span;  // per lane
        std::vector<sim::BatchLane> lanes;
        sim::BatchFrameResult bres;
        std::array<sim::FrameSimResult, kBatch> lane_res;
        std::array<Entry, kBatch> entries;
    };

    const Netlist& nl;
    std::span<const Literal> targets;
    const StemRecords& records;
    std::uint32_t max_frames;

    // Plan and simulate targets [base, base+count) as one batch; targets
    // already tied or constant are skipped.
    void simulate(sim::BatchFrameSimulator& bsim, std::size_t base, std::size_t count,
                  const TieSet& ties, Scratch& w) const {
        w.inj.clear();
        w.inj_span.clear();
        w.lanes.clear();
        int n_lanes = 0;
        for (std::size_t p = 0; p < count; ++p) {
            Entry& e = w.entries[p];
            e = {};
            const Literal target = targets[base + p];
            if (ties.is_tied(target.gate) || is_constant(nl, target.gate)) continue;
            e.skipped = false;
            const std::size_t first = w.inj.size();
            e.plan = plan_target(records, max_frames, target, w.inj);
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
            if (w.entries[p].lane < 0) continue;
            const auto [off, len] = w.inj_span[static_cast<std::size_t>(lane)];
            w.lanes.push_back({{w.inj.data() + off, len}, w.entries[p].plan.T + 1});
            max_T = std::max(max_T, w.entries[p].plan.T);
            ++lane;
        }
        sim::FrameSimOptions opt;
        opt.max_frames = max_T + 1;
        opt.stop_on_state_repeat = false;  // every lane's window is exact
        bsim.run_batch(w.lanes, opt, w.bres);
        w.bres.extract_all({w.lane_res.data(), static_cast<std::size_t>(n_lanes)});
    }

    bool extract(std::size_t unit, std::size_t pos, Scratch& w, LearnCtx& ctx) const {
        const Entry& e = w.entries[pos];
        if (e.skipped) return false;
        const Literal target = targets[unit];
        if (e.plan.contradictory) {
            ctx.set_tie(target.gate, target.value, e.plan.T);
            ctx.mark_outright();
        } else {
            extract_target(nl, target, e.plan.T, w.lane_res[static_cast<std::size_t>(e.lane)],
                           ctx);
        }
        return true;
    }
};

}  // namespace

PassOutcome multiple_node_learning(const Netlist& nl, sim::BatchFrameSimulator& bsim,
                                   sim::TieClosure& closure, const StemRecords& records,
                                   std::uint32_t max_frames, TieSet& ties, ImplicationDB& db,
                                   const LearnExecEnv& env, std::size_t first_target) {
    const std::vector<Literal> targets = records.targets(kMinTargetRecords);
    const TargetPass pass{nl, targets, records, max_frames};
    return run_learn_pass(pass, first_target, targets.size(), bsim, ties, closure, db, nullptr,
                          nullptr, env);
}

}  // namespace seqlearn::core
