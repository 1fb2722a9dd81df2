#include "sim/frame_sim.hpp"

#include <algorithm>

namespace seqlearn::sim {

using netlist::GateType;
using netlist::SetReset;

SeqGating SeqGating::all_open(const Netlist& nl) {
    SeqGating g(nl.size());
    for (const GateId id : nl.seq_elements()) g.mask_[id] = 3;
    return g;
}

SeqGating SeqGating::for_class(const Netlist& nl, std::span<const GateId> class_members) {
    SeqGating g(nl.size());
    for (const GateId id : class_members) {
        const netlist::SeqAttrs& a = nl.seq_attrs(id);
        if (a.num_ports > 1) continue;  // Section 3.3.1: multi-port latches block
        std::uint8_t mask = 3;
        if (a.sr_unconstrained) {
            switch (a.set_reset) {
                case SetReset::None: break;
                case SetReset::SetOnly: mask = 2; break;    // only 1 survives a free set line
                case SetReset::ResetOnly: mask = 1; break;  // only 0 survives a free reset line
                case SetReset::Both: mask = 0; break;       // Section 3.3.3: block entirely
            }
        }
        g.mask_[id] = mask;
    }
    return g;
}

void canonicalize(FrameSimResult& res) {
    std::sort(res.implied.begin(), res.implied.end(),
              [](const ImpliedValue& a, const ImpliedValue& b) {
                  return a.frame != b.frame ? a.frame < b.frame : a.gate < b.gate;
              });
}

FrameSimulator::FrameSimulator(const Netlist& nl, SeqGating gating)
    : owned_topo_(std::make_unique<Topology>(nl)),
      topo_(owned_topo_.get()),
      gating_(std::move(gating)),
      val_(topo_->size(), Val3::X),
      queue_(*topo_) {}

FrameSimulator::FrameSimulator(const Topology& topo, SeqGating gating)
    : topo_(&topo),
      gating_(std::move(gating)),
      val_(topo.size(), Val3::X),
      queue_(topo) {}

void FrameSimulator::reset_frame_scratch() {
    for (const GateId g : touched_) val_[g] = Val3::X;
    touched_.clear();
    // Only a conflict abort leaves events behind.
    queue_.clear();
}

// Give `g` the binary value `v`; detect contradictions; record; enqueue
// combinational fanouts; force equivalence partners. Returns false on
// conflict.
bool FrameSimulator::assign(GateId g, Val3 v, std::uint32_t frame, FrameSimResult& res) {
    if (val_[g] == v) return true;
    if (val_[g] != Val3::X) {
        res.conflict = true;
        res.conflict_gate = g;
        res.conflict_frame = frame;
        return false;
    }
    val_[g] = v;
    touched_.push_back(g);
    res.implied.push_back({frame, g, v});
    queue_.push_fanouts(g);
    if (equiv_ && g < equiv_->size()) {
        for (const EquivLink& link : (*equiv_)[g]) {
            const Val3 forced = link.inverted ? logic::v3_not(v) : v;
            if (!assign(link.other, forced, frame, res)) return false;
        }
    }
    return true;
}

FrameSimResult& FrameSimulator::run_into(std::span<const Injection> injections,
                                         const FrameSimOptions& opt, FrameSimResult& out) {
    out.implied.clear();
    out.conflict = false;
    out.conflict_gate = netlist::kNoGate;
    out.conflict_frame = 0;
    out.frames_run = 0;
    out.stopped_on_repeat = false;
    FrameSimResult& res = out;

    // Injections are applied in frame order. The sort is stable so that
    // equal-frame injections keep their given order: an unstable sort would
    // make the conflict outcome of a same-frame schedule depend on
    // std::sort internals.
    inj_scratch_.assign(injections.begin(), injections.end());
    std::stable_sort(inj_scratch_.begin(), inj_scratch_.end(),
                     [](const Injection& a, const Injection& b) { return a.frame < b.frame; });
    const std::span<const Injection> inj = inj_scratch_;
    std::uint32_t last_seed_frame = 0;
    for (const Injection& x : inj) last_seed_frame = std::max(last_seed_frame, x.frame);
    if (ties_ && tie_cycles_) {
        for (GateId g = 0; g < ties_->size(); ++g) {
            if ((*ties_)[g] != Val3::X && (*tie_cycles_)[g] < opt.max_frames)
                last_seed_frame = std::max(last_seed_frame, (*tie_cycles_)[g]);
        }
    }

    state_.clear();       // binary sequential outputs entering this frame
    next_state_.clear();  // captured at this frame's boundary
    std::size_t inj_cursor = 0;

    for (std::uint32_t frame = 0; frame < opt.max_frames; ++frame) {
        reset_frame_scratch();

        // Seed 0: constant sources (event-driven evaluation never visits
        // them otherwise).
        for (const GateId g : topo_->const_gates()) {
            const Val3 cv = topo_->op(g) == logic::GateOp::Const1 ? Val3::One : Val3::Zero;
            if (!assign(g, cv, frame, res)) {
                res.frames_run = frame + 1;
                return res;
            }
        }
        // Seed 1: established tie facts (paper: later passes exploit
        // previously learned ties). A sequential tie proven from cycle c is
        // a fact only in frames with at least c predecessors.
        if (ties_) {
            for (GateId g = 0; g < ties_->size(); ++g) {
                if ((*ties_)[g] == Val3::X) continue;
                if (tie_cycles_ && (*tie_cycles_)[g] > frame) continue;
                if (!assign(g, (*ties_)[g], frame, res)) {
                    res.frames_run = frame + 1;
                    return res;
                }
            }
        }
        // Seed 2: sequential state from the previous frame.
        for (const StateEntry& e : state_) {
            if (!assign(e.gate, e.value, frame, res)) {
                res.frames_run = frame + 1;
                return res;
            }
        }
        // Seed 3: this frame's injections.
        while (inj_cursor < inj.size() && inj[inj_cursor].frame == frame) {
            const Injection& x = inj[inj_cursor++];
            if (!assign(x.gate, x.value, frame, res)) {
                res.frames_run = frame + 1;
                return res;
            }
        }

        queue_.drain([&](GateId g) {
            const auto fi = topo_->fanins(g);
            const Val3 v = logic::eval_op_indirect(
                topo_->op(g), fi.size(), [&](std::size_t k) { return val_[fi[k]]; });
            return v == Val3::X || assign(g, v, frame, res);
        });
        res.frames_run = frame + 1;
        if (res.conflict) return res;

        // Capture: sequential elements fed by a touched gate (or touched
        // themselves, for direct feedback) take their gated data value.
        next_state_.clear();
        for (const GateId t : touched_) {
            for (const GateId fo : topo_->seq_fanouts(t)) {
                const Val3 d = val_[topo_->fanins(fo)[0]];
                if (d == Val3::X) continue;
                if (!gating_.allows(fo, d)) continue;
                next_state_.push_back({fo, d});
            }
        }
        std::sort(next_state_.begin(), next_state_.end(),
                  [](const StateEntry& a, const StateEntry& b) { return a.gate < b.gate; });
        next_state_.erase(std::unique(next_state_.begin(), next_state_.end()),
                          next_state_.end());

        // Stop rules apply only once every scheduled injection has fired and
        // every sequential tie has activated.
        const bool seeding_done = inj_cursor >= inj.size() && frame >= last_seed_frame;
        if (seeding_done && opt.stop_on_state_repeat && frame > 0 && next_state_ == state_) {
            res.stopped_on_repeat = true;
            return res;
        }
        if (seeding_done && next_state_.empty()) return res;

        std::swap(state_, next_state_);
    }
    return res;
}

}  // namespace seqlearn::sim
