#include "core/single_node.hpp"

#include <algorithm>
#include <array>

namespace seqlearn::core {

namespace {

using netlist::GateId;
using netlist::Netlist;

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

// Record collection and same-frame pairing over two completed conflict-free
// runs (inject 0 -> r0, inject 1 -> r1), both with implied lists grouped by
// frame.
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
void extract_stem_results(const Netlist& nl, GateId stem, const sim::FrameSimResult& r0,
                          const sim::FrameSimResult& r1, std::uint32_t max_frames,
                          ExtractScratch& s, LearnCtx& ctx) {
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

// The single-node pass as a client of run_learn_pass.
struct StemPass {
    /// Stems per 64-lane batch: two injection lanes per stem.
    static constexpr std::size_t kBatch = 32;

    // Scratch: the lane schedules of one batch, the raw batch result, the
    // per-lane extracted runs, and each stem's first lane (-1 when skipped).
    struct Scratch {
        ExtractScratch extract;
        std::array<sim::Injection, 2 * kBatch> inj;
        std::vector<sim::BatchLane> lanes;
        sim::BatchFrameResult bres;
        std::array<sim::FrameSimResult, 2 * kBatch> lane_res;
        std::array<int, kBatch> lane_of{};
    };

    const Netlist& nl;
    std::span<const GateId> stems;
    std::uint32_t max_frames;

    // Pack the stems of [base, base+count) that are neither tied nor
    // constant into injection lanes (two per stem), run them as one batch,
    // and extract every lane.
    void simulate(sim::BatchFrameSimulator& bsim, std::size_t base, std::size_t count,
                  const TieSet& ties, Scratch& w) const {
        w.lanes.clear();
        int n_lanes = 0;
        for (std::size_t p = 0; p < count; ++p) {
            const GateId stem = stems[base + p];
            if (ties.is_tied(stem) || is_constant(nl, stem)) {
                w.lane_of[p] = -1;
                continue;
            }
            w.lane_of[p] = n_lanes;
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

    // One stem's verdict from its inject-0/inject-1 lanes (frame-grouped
    // implied lists; conflict flag for contradictory lanes).
    bool extract(std::size_t unit, std::size_t pos, Scratch& w, LearnCtx& ctx) const {
        if (w.lane_of[pos] < 0) return false;
        const auto lane = static_cast<std::size_t>(w.lane_of[pos]);
        const sim::FrameSimResult& r0 = w.lane_res[lane];
        const sim::FrameSimResult& r1 = w.lane_res[lane + 1];
        const GateId stem = stems[unit];
        w.extract.ensure(nl.size());
        // Serial order: the inject-0 run happens (and may conflict) first. A
        // conflicting injection proves the stem can never take that value,
        // i.e. it is tied to the other one; the refuted premise sat at an
        // arbitrary-state frame, so the tie holds from frame 0.
        if (r0.conflict || r1.conflict) {
            ctx.set_tie(stem, r0.conflict ? Val3::One : Val3::Zero, 0);
            ctx.mark_outright();
            return true;
        }
        extract_stem_results(nl, stem, r0, r1, max_frames, w.extract, ctx);
        return true;
    }
};

}  // namespace

PassOutcome single_node_learning(const Netlist& nl, sim::BatchFrameSimulator& bsim,
                                 sim::TieClosure& closure, std::span<const GateId> stems,
                                 std::uint32_t max_frames, TieSet& ties, ImplicationDB& db,
                                 StemRecords& records,
                                 const std::function<bool(std::size_t, std::size_t)>* progress,
                                 const LearnExecEnv& env, std::size_t first_stem) {
    const StemPass pass{nl, stems, max_frames};
    return run_learn_pass(pass, first_stem, stems.size(), bsim, ties, closure, db, &records,
                          progress, env);
}

}  // namespace seqlearn::core
