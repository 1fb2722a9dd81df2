#pragma once
// 64-lane bit-parallel multi-frame event-driven simulation against a shared
// background.
//
// The scalar FrameSimulator evaluates one injection scenario per run; the
// learning passes need two runs per stem (inject 0, inject 1), and every run
// would re-seed the same constants, learned ties, equivalence forcings and
// tie-driven state before propagating a usually-small divergent cone.
// BatchFrameSimulator runs up to 64 independent scenarios through ONE
// occupied-level-band event sweep per frame: each gate holds a
// logic::Pattern (two 64-bit planes: ones, zeros; both clear = X) instead of
// a Val3, and a gate shared by several lanes' cones is evaluated once for
// all of them.
//
// What all scenarios share is not simulated at all: a sim::TieClosure (the
// pass's background — per frame, the closure of constants, active ties,
// their equivalence forcings and the tie-driven state) is computed once per
// tie-set version and read, not re-seeded. A frame starts from the
// background: a gate the background fixes reads as that value in every
// lane, and only gates some lane assigns beyond it (lane-divergent values)
// are stored, recorded as events and reset at the next frame. No pass over
// the gates or the ties runs per batch or per frame.
//
// Lane semantics are exactly the scalar simulator's, lane-wise:
//  - the event queue is driven by the lane-divergence mask — a gate is
//    (re)queued when any live lane assigns one of its fanins beyond the
//    background, and an evaluation assigns only the lanes where the result
//    is binary, new, and the lane is still live;
//  - per-lane stop rules (state repeat, empty next state, max_frames) retire
//    lanes individually, comparing each lane's full state (background plus
//    its own); retired lanes stop seeding and stop recording;
//  - a lane whose closure turns contradictory (a gate acquiring both binary
//    values, its own or the background's) is flagged in `fallback` and
//    retired: its batched events are not usable because the scalar run
//    aborts mid-propagation at a schedule-dependent point. The learning
//    passes need only the conflict *verdict* (the single-node learner: an
//    injection that conflicts proves a stem tie) and consume the flag
//    directly; a caller that wants such a lane's full scalar result re-runs
//    it on a FrameSimulator configured from the same closure, as the
//    lane-parity tests do.
//
// The event stream holds each lane's divergent values plus the background's
// values on gates that are neither constant nor tied (emitted in every lane
// every frame they hold). Those are the only values the learning passes
// read — they skip constant and tied gates — and emitting the untied ones
// keeps a gate that the background implies, but the tie set lacks, visible
// in both lanes of the next stem, which ties it exactly as before.
// extract_lane() adds the background's constant and tied values back for
// callers that want a lane's complete value set.
//
// Within a frame the batch sweep interleaves all lanes' event schedules, so
// per-lane discovery order differs from a scalar run's; the per-frame
// fixpoint does not (3-valued propagation is monotone, so the closure is
// schedule-independent). Raw extraction keeps the batch order — consumers
// are expected to be order-insensitive within a frame (the learning
// extraction is) or to apply sim::canonicalize to both sides before
// comparing.

#include "logic/pattern.hpp"
#include "sim/frame_sim.hpp"
#include "sim/tie_closure.hpp"

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace seqlearn::sim {

using logic::Pattern;

/// One scenario: the injection schedule a scalar run would receive, plus an
/// optional per-lane frame limit (0 = the batch-wide opt.max_frames). A
/// lane with limit L behaves exactly like a scalar run with max_frames = L
/// — the multiple-node learner batches targets whose windows differ.
struct BatchLane {
    std::span<const Injection> injections;
    std::uint32_t max_frames = 0;
};

/// Raw result of a batched run: a flat event stream (frame-major; each event
/// carries the planes of the lanes assigned at that point) plus per-lane
/// outcome summaries. Events hold lane-divergent values and the
/// background's values on gates neither constant nor tied (see the header).
struct BatchFrameResult {
    struct Event {
        std::uint32_t frame;
        netlist::GateId gate;
        std::uint64_t ones;   ///< lanes newly assigned 1 by this event
        std::uint64_t zeros;  ///< lanes newly assigned 0 by this event
    };
    std::vector<Event> events;
    /// Lanes that were simulated (bit i = lane i of the input span).
    std::uint64_t used = 0;
    /// Lanes that hit a contradiction: their events are invalid from an
    /// unspecified point on — re-run them on a scalar FrameSimulator (or
    /// consume the conflict verdict directly).
    std::uint64_t fallback = 0;
    /// Lanes that ended on the state-repeat rule.
    std::uint64_t stopped_on_repeat = 0;
    std::array<std::uint32_t, 64> frames_run{};
    /// The background the batch ran against.
    const TieClosure* closure = nullptr;

    /// Extract one non-fallback lane's complete value set into `out`
    /// (buffers reused): per frame, the background's constant and tied
    /// values, then the lane's events. Needs the closure unchanged since
    /// the run. The implied list is grouped by frame (frames simulate in
    /// order); within a frame its order is not a scalar run's — the *set*
    /// per frame equals a scalar run's (the fixpoint is
    /// schedule-independent), so apply sim::canonicalize for a total order.
    /// Returns `out` for chaining.
    FrameSimResult& extract_lane(int lane, FrameSimResult& out) const;

    /// Extract the events of every used lane in one pass over the stream
    /// (total cost = the sum of per-lane event counts, not 64 * events):
    /// each lane's divergent values and the background's free values, but
    /// not the background's values on constant and tied gates, which the
    /// learning passes skip. Grouped by frame like extract_lane. Fallback
    /// lanes get conflict=true and an empty implied list — callers wanting
    /// their full scalar result must re-run them on a FrameSimulator.
    /// `outs` must hold at least as many results as lanes were simulated.
    void extract_all(std::span<FrameSimResult> outs) const;

private:
    void finish_lane(int lane, FrameSimResult& out) const;
};

/// Reusable 64-lane simulator over a shared background; configured entirely
/// by its TieClosure (topology, gating, equivalences, ties).
class BatchFrameSimulator {
public:
    /// Simulate against `closure`, which must outlive the simulator and must
    /// not change while a batch runs (it may change between batches).
    explicit BatchFrameSimulator(const TieClosure& closure);

    /// Run up to 64 scenarios through one batched event sweep into a
    /// caller-owned result whose buffers are reused across calls. Returns
    /// `out` for chaining. opt.max_frames must not exceed the closure's
    /// frames() (std::invalid_argument).
    BatchFrameResult& run_batch(std::span<const BatchLane> lanes, const FrameSimOptions& opt,
                                BatchFrameResult& out);

    const Topology& topology() const noexcept { return *topo_; }

private:
    struct StateEntry {
        netlist::GateId gate;
        Pattern pat;
    };

    // Gate `g` in every lane at the current frame: the background's value
    // when it has one, the lanes' own values otherwise.
    Pattern lane_value(netlist::GateId g) const noexcept {
        const TieClosure::Entry& b = bg_[g];
        const std::uint64_t fixed = b.since <= frame_ ? ~0ULL : 0;
        const std::uint64_t one = b.value == Val3::One ? ~0ULL : 0;
        const Pattern& p = val_[g];
        return {p.ones | (fixed & one), p.zeros | (fixed & ~one)};
    }
    void assign(netlist::GateId g, Pattern p, std::uint64_t mask, BatchFrameResult& res);
    void propagate(BatchFrameResult& res);
    std::uint64_t state_diff() const;
    void reset_frame_scratch();

    const TieClosure* closure_;
    const Topology* topo_;
    const TieClosure::Entry* bg_;
    std::uint32_t frame_ = 0;

    // Lane-divergent values of the current frame (X where the background
    // decides or no lane assigned), and the gates holding them.
    std::vector<Pattern> val_;
    std::vector<netlist::GateId> touched_;
    std::vector<std::vector<netlist::GateId>> buckets_;
    std::vector<std::uint8_t> queued_;
    std::size_t pending_ = 0;
    std::uint32_t evt_lo_ = UINT32_MAX;
    std::uint32_t evt_hi_ = 0;
    std::uint64_t live_ = 0;

    // Flattened injection schedule, frame-major with per-lane tags, plus the
    // frame after which each lane's seeding is complete.
    struct LaneInjection {
        std::uint32_t frame;
        netlist::GateId gate;
        Val3 value;
        std::uint8_t lane;
    };
    std::vector<LaneInjection> inj_;
    std::array<std::uint32_t, 64> lane_seed_done_{};
    std::array<std::uint32_t, 64> lane_limit_{};

    // Lane-divergent sequential state entering this frame and the next one,
    // sorted by gate; the background's carried state is the closure's.
    std::vector<StateEntry> state_;
    std::vector<StateEntry> next_state_;
};

}  // namespace seqlearn::sim
