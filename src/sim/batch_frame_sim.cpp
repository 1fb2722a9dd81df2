#include "sim/batch_frame_sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace seqlearn::sim {

using netlist::GateId;

namespace {

constexpr std::uint64_t lane_bit(int lane) noexcept { return 1ULL << lane; }

}  // namespace

void BatchFrameResult::finish_lane(int lane, FrameSimResult& out) const {
    const std::uint64_t bit = lane_bit(lane);
    out.conflict = (fallback & bit) != 0;
    out.conflict_gate = netlist::kNoGate;
    out.conflict_frame = 0;
    out.frames_run = frames_run[static_cast<std::size_t>(lane)];
    out.stopped_on_repeat = (stopped_on_repeat & bit) != 0;
    if (out.conflict) {
        // The batched events of a contradictory lane are invalid from a
        // schedule-dependent point on; only the verdict is usable here.
        out.implied.clear();
        return;
    }
}

FrameSimResult& BatchFrameResult::extract_lane(int lane, FrameSimResult& out) const {
    out.implied.clear();
    const std::uint64_t bit = lane_bit(lane);
    if ((fallback & bit) == 0) {
        std::size_t i = 0;
        for (std::uint32_t t = 0; t < frames_run[static_cast<std::size_t>(lane)]; ++t) {
            closure->append_fixed(t, out.implied);
            for (; i < events.size() && events[i].frame == t; ++i) {
                const Event& e = events[i];
                if (e.ones & bit) out.implied.push_back({e.frame, e.gate, Val3::One});
                else if (e.zeros & bit) out.implied.push_back({e.frame, e.gate, Val3::Zero});
            }
        }
    }
    finish_lane(lane, out);
    return out;
}

void BatchFrameResult::extract_all(std::span<FrameSimResult> outs) const {
    int lanes = 0;
    for (std::uint64_t m = used; m != 0; m &= m - 1) ++lanes;
    // An undersized `outs` would leave stale results from a previous batch
    // in the un-extracted slots — catch the misuse in Debug builds (Release
    // clamps, which is still wrong but bounded; see the header contract).
    assert(outs.size() >= static_cast<std::size_t>(lanes) &&
           "extract_all: outs must hold one result per simulated lane");
    lanes = static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(lanes), outs.size()));
    for (int l = 0; l < lanes; ++l) outs[static_cast<std::size_t>(l)].implied.clear();
    const std::uint64_t wanted = (lanes == 64 ? ~0ULL : (lane_bit(lanes) - 1)) & ~fallback;
    for (const Event& e : events) {
        for (std::uint64_t m = (e.ones | e.zeros) & wanted; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            outs[static_cast<std::size_t>(l)].implied.push_back(
                {e.frame, e.gate, (e.ones >> l) & 1 ? Val3::One : Val3::Zero});
        }
    }
    for (int l = 0; l < lanes; ++l) finish_lane(l, outs[static_cast<std::size_t>(l)]);
}

BatchFrameSimulator::BatchFrameSimulator(const TieClosure& closure)
    : closure_(&closure),
      topo_(&closure.topology()),
      bg_(closure.entries().data()),
      val_(closure.topology().size(), logic::kPatAllX),
      queue_(closure.topology()) {}

void BatchFrameSimulator::reset_frame_scratch() {
    for (const GateId g : touched_) val_[g] = logic::kPatAllX;
    touched_.clear();
    // Only an early bail-out (every lane retired mid-frame) leaves events
    // behind.
    queue_.clear();
}

// Give `g` the binary values of `p` in the lanes of `mask`: detect per-lane
// contradictions (those lanes are flagged for scalar fallback and retired),
// record the newly assigned lanes as one event, enqueue combinational
// fanouts, and force equivalence partners in the same lanes. A gate the
// background fixes gains nothing in agreeing lanes and contradicts the rest.
void BatchFrameSimulator::assign(GateId g, Pattern p, std::uint64_t mask,
                                 BatchFrameResult& res) {
    mask &= live_;
    if (mask == 0) return;
    std::uint64_t want1 = p.ones & mask;
    std::uint64_t want0 = p.zeros & mask;
    const TieClosure::Entry& b = bg_[g];
    if (b.since <= frame_) {
        const std::uint64_t conflict = b.value == Val3::One ? want0 : want1;
        res.fallback |= conflict;
        live_ &= ~conflict;
        return;
    }
    Pattern& v = val_[g];
    const std::uint64_t conflict = (want1 & v.zeros) | (want0 & v.ones);
    if (conflict != 0) {
        res.fallback |= conflict;
        live_ &= ~conflict;
        want1 &= ~conflict;
        want0 &= ~conflict;
    }
    const std::uint64_t known = v.ones | v.zeros;
    const std::uint64_t new1 = want1 & ~known;
    const std::uint64_t new0 = want0 & ~known;
    if ((new1 | new0) == 0) return;
    if (known == 0) touched_.push_back(g);
    v.ones |= new1;
    v.zeros |= new0;
    res.events.push_back({frame_, g, new1, new0});
    queue_.push_fanouts(g);
    const EquivMap* equiv = closure_->equivalences();
    if (equiv && g < equiv->size()) {
        for (const EquivLink& link : (*equiv)[g]) {
            const Pattern forced = link.inverted ? Pattern{new0, new1} : Pattern{new1, new0};
            assign(link.other, forced, new1 | new0, res);
        }
    }
}

// Lanes whose full state entering frame_ + 1 differs from the one entering
// frame_. A lane's state is the background's plus its own divergent
// captures (never on the same element); the background's only grows, by
// state_gain(frame_), so a merge over the two divergent lists and that gain
// visits every element where the two can differ.
std::uint64_t BatchFrameSimulator::state_diff() const {
    const std::span<const TieClosure::FrameValue> gain = closure_->state_gain(frame_);
    std::uint64_t diff = 0;
    std::size_t i = 0, j = 0, k = 0;
    while (i < state_.size() || j < next_state_.size() || k < gain.size()) {
        GateId g = UINT32_MAX;
        if (i < state_.size()) g = std::min(g, state_[i].gate);
        if (j < next_state_.size()) g = std::min(g, next_state_[j].gate);
        if (k < gain.size()) g = std::min(g, gain[k].gate);
        Pattern before = logic::kPatAllX;
        Pattern after = logic::kPatAllX;
        if (i < state_.size() && state_[i].gate == g) before = state_[i++].pat;
        if (j < next_state_.size() && next_state_[j].gate == g) after = next_state_[j++].pat;
        if (k < gain.size() && gain[k].gate == g)
            after = logic::pat_broadcast(gain[k++].value);
        diff |= (before.ones ^ after.ones) | (before.zeros ^ after.zeros);
    }
    return diff;
}

BatchFrameResult& BatchFrameSimulator::run_batch(std::span<const BatchLane> lanes,
                                                 const FrameSimOptions& opt,
                                                 BatchFrameResult& out) {
    assert(lanes.size() <= 64 && "run_batch is 64 lanes wide; chunk larger spans");
    if (opt.max_frames > closure_->frames())
        throw std::invalid_argument("run_batch: more frames than the background holds");
    const int n = static_cast<int>(std::min<std::size_t>(lanes.size(), 64));
    out.events.clear();
    out.used = n == 64 ? ~0ULL : (lane_bit(n) - 1);
    out.fallback = 0;
    out.stopped_on_repeat = 0;
    out.frames_run.fill(0);
    out.closure = closure_;
    live_ = out.used;

    // Flatten the per-lane schedules frame-major. The stable sort keeps each
    // lane's equal-frame injections in their given order — the same order a
    // scalar run applies them in. As in the scalar rule, a lane's seeding
    // ends after its last injection and the last tie cycle below its own
    // frame limit.
    inj_.clear();
    for (int l = 0; l < n; ++l) {
        const std::uint32_t lim = lanes[static_cast<std::size_t>(l)].max_frames;
        const std::uint32_t limit = lim == 0 ? opt.max_frames : std::min(lim, opt.max_frames);
        lane_limit_[static_cast<std::size_t>(l)] = limit;
        std::uint32_t last = closure_->last_tie_cycle_below(limit);
        for (const Injection& x : lanes[static_cast<std::size_t>(l)].injections) {
            inj_.push_back({x.frame, x.gate, x.value, static_cast<std::uint8_t>(l)});
            last = std::max(last, x.frame);
        }
        lane_seed_done_[static_cast<std::size_t>(l)] = last;
    }
    std::stable_sort(inj_.begin(), inj_.end(),
                     [](const LaneInjection& a, const LaneInjection& b) {
                         return a.frame < b.frame;
                     });

    state_.clear();
    next_state_.clear();
    std::size_t inj_cursor = 0;
    const std::span<const TieClosure::FrameValue> free = closure_->free_values();

    for (std::uint32_t frame = 0; frame < opt.max_frames && live_ != 0; ++frame) {
        // Retire lanes whose own frame window is exhausted (their frames_run
        // already equals the limit).
        for (std::uint64_t m = live_; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            if (frame >= lane_limit_[static_cast<std::size_t>(l)]) live_ &= ~lane_bit(l);
        }
        if (live_ == 0) break;

        reset_frame_scratch();
        frame_ = frame;
        for (std::uint64_t m = live_; m != 0; m &= m - 1)
            out.frames_run[static_cast<std::size_t>(std::countr_zero(m))] = frame + 1;
        if (frame >= closure_->conflict_frame()) {
            // The background itself is contradictory here, so is every
            // lane still running.
            out.fallback |= live_;
            live_ = 0;
            break;
        }

        // The background's untied values, in every live lane.
        for (const TieClosure::FrameValue& f : free) {
            if (f.frame > frame) break;
            out.events.push_back({frame, f.gate, f.value == Val3::One ? live_ : 0,
                                  f.value == Val3::Zero ? live_ : 0});
        }
        // Seeds beyond the background, in the scalar order: carried state,
        // then this frame's injections. Each assign masks itself by the live
        // set, so retired lanes receive nothing.
        for (const StateEntry& e : state_) {
            assign(e.gate, e.pat, e.pat.ones | e.pat.zeros, out);
        }
        while (inj_cursor < inj_.size() && inj_[inj_cursor].frame == frame) {
            const LaneInjection& x = inj_[inj_cursor++];
            Pattern p = logic::kPatAllX;
            logic::pat_set(p, x.lane, x.value);
            assign(x.gate, p, lane_bit(x.lane), out);
        }

        // Evaluation is lane-wise over the pattern planes (background values
        // read through), and an evaluated gate is assigned only in the lanes
        // where the result is binary. Once every lane has retired nothing
        // can be assigned, so the drain stops; the reset drops the rest.
        queue_.drain([&](GateId g) {
            if (live_ == 0) return false;
            const auto fi = topo_->fanins(g);
            const Pattern v = logic::eval_op_indirect(
                topo_->op(g), fi.size(), [&](std::size_t k) { return lane_value(fi[k]); });
            const std::uint64_t known = v.ones | v.zeros;
            if (known != 0) assign(g, v, known, out);
            return true;
        });
        if (live_ == 0) break;

        // Capture: sequential elements fed by a divergent gate take their
        // per-lane gated data value; an element whose data value the
        // background fixes is in the background's carried state instead. A
        // multi-fanin element appears once per driving pin; the captured
        // pattern is identical each time, so the gate-keyed dedup below
        // matches the scalar (gate, value) unique.
        next_state_.clear();
        const SeqGating& gating = closure_->gating();
        for (const GateId t : touched_) {
            for (const GateId fo : topo_->seq_fanouts(t)) {
                const GateId data = topo_->fanins(fo)[0];
                if (bg_[data].since <= frame) continue;
                const Pattern d = val_[data];
                const Pattern cap{gating.allows(fo, Val3::One) ? d.ones & live_ : 0,
                                  gating.allows(fo, Val3::Zero) ? d.zeros & live_ : 0};
                if ((cap.ones | cap.zeros) == 0) continue;
                next_state_.push_back({fo, cap});
            }
        }
        std::sort(next_state_.begin(), next_state_.end(),
                  [](const StateEntry& a, const StateEntry& b) { return a.gate < b.gate; });
        next_state_.erase(std::unique(next_state_.begin(), next_state_.end(),
                                      [](const StateEntry& a, const StateEntry& b) {
                                          return a.gate == b.gate;
                                      }),
                          next_state_.end());

        // Per-lane stop rules, in the scalar order: state repeat first, then
        // empty next state; both only once the lane's seeding is complete.
        std::uint64_t seeding_done = 0;
        for (std::uint64_t m = live_; m != 0; m &= m - 1) {
            const int l = std::countr_zero(m);
            if (frame >= lane_seed_done_[static_cast<std::size_t>(l)]) seeding_done |= lane_bit(l);
        }
        if (seeding_done != 0) {
            if (opt.stop_on_state_repeat && frame > 0) {
                const std::uint64_t repeat = seeding_done & ~state_diff();
                out.stopped_on_repeat |= repeat;
                live_ &= ~repeat;
                seeding_done &= ~repeat;
            }
            std::uint64_t nonempty = closure_->carries_state(frame) ? ~0ULL : 0;
            for (const StateEntry& e : next_state_) nonempty |= e.pat.ones | e.pat.zeros;
            live_ &= ~(seeding_done & ~nonempty);
        }

        std::swap(state_, next_state_);
    }
    // A final reset so stale per-frame values never leak into the next run
    // (and so a bailed-out frame's leftover events are cleaned up).
    reset_frame_scratch();
    return out;
}

}  // namespace seqlearn::sim
