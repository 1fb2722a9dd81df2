#pragma once
// The background every scenario of a learning pass starts from.
//
// Per frame t, the background is the 3-valued closure of what all scenarios
// of a clock-class pass share: the constant sources, the learned ties active
// at t (a tie proven from cycle c holds in frames >= c), the equivalence
// forcings they trigger, and the tie-driven state carried from frame t-1
// through the class's SeqGating. A scenario's own values at frame t are then
// the closure of this background plus its injections and its own carried
// state — 3-valued propagation is monotone, so closing over the background
// first changes nothing.
//
// The background only grows from frame to frame: its seeds at t+1 include
// those at t (ties stay active; the carried state is the capture of the
// previous frame's closure, which grew too). So each gate has one
// background value, held from one frame `since` on, and the whole
// background costs O(gates) regardless of the frame count.
//
// Ties are added one at a time as a pass commits them (add_tie). The
// closure is extended in place, frame by frame from the tie's proof cycle,
// revisiting only what the new tie changes; since propagation is monotone,
// the result equals a closure built from the final tie set in one go.
// Readers (the BatchFrameSimulators of a pass's workers) share it read-only
// while a batch runs; it must not be extended during a run.

#include "sim/frame_sim.hpp"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace seqlearn::sim {

class TieClosure {
public:
    /// A gate's background value: `value` from frame `since` on, X before
    /// (since == kNever: never implied).
    struct Entry {
        std::uint32_t since;
        Val3 value;
    };
    static constexpr std::uint32_t kNever = UINT32_MAX;

    /// A background value that appears at one frame; see free_values() and
    /// state_gain().
    struct FrameValue {
        std::uint32_t frame;
        GateId gate;
        Val3 value;
    };

    /// The closure over `frames` frames of the constant sources plus the
    /// ties in `ties`/`cycles` (dense by gate, X = untied; null = none),
    /// under `gating`, forcing `equiv` (may be null). `topo` and `equiv`
    /// must outlive the closure.
    TieClosure(const Topology& topo, SeqGating gating, const EquivMap* equiv,
               std::uint32_t frames, const std::vector<Val3>* ties = nullptr,
               const std::vector<std::uint32_t>* cycles = nullptr);
    // Simulators hold its address (and that of entries()).
    TieClosure(const TieClosure&) = delete;
    TieClosure& operator=(const TieClosure&) = delete;

    /// Tie `g` to `v` from frame `cycle` on and extend the closure. Same
    /// contract as core::TieSet::set: a repeated tie keeps the smaller
    /// cycle, and the opposite value throws std::logic_error.
    void add_tie(GateId g, Val3 v, std::uint32_t cycle);

    std::uint32_t frames() const noexcept { return frames_; }
    const Topology& topology() const noexcept { return *topo_; }
    const SeqGating& gating() const noexcept { return gating_; }
    const EquivMap* equivalences() const noexcept { return equiv_; }
    /// The tie set, dense by gate in FrameSimulator::set_ties format.
    const std::vector<Val3>& tie_values() const noexcept { return ties_; }
    const std::vector<std::uint32_t>& tie_cycles() const noexcept { return cycles_; }

    /// Per-gate background values, indexed by gate id; the span stays put
    /// for the closure's lifetime.
    std::span<const Entry> entries() const noexcept { return entry_; }
    Val3 value(GateId g, std::uint32_t frame) const noexcept {
        return entry_[g].since <= frame ? entry_[g].value : Val3::X;
    }

    /// First frame whose closure is contradictory (frames() when none):
    /// every scenario still running there conflicts. Frames from here on
    /// hold no meaningful values.
    std::uint32_t conflict_frame() const noexcept { return conflict_frame_; }

    /// Background values on gates that are neither constant nor tied — the
    /// only ones the learning passes read — ordered by (since, gate), so
    /// frame t's are the prefix with frame <= t.
    std::span<const FrameValue> free_values() const noexcept { return free_; }

    /// Sequential elements the carried background state gains from frame t
    /// to frame t+1 (the state never loses an element), ordered by gate.
    std::span<const FrameValue> state_gain(std::uint32_t t) const noexcept;
    /// Does the background carry any state into frame t+1?
    bool carries_state(std::uint32_t t) const noexcept { return t >= first_gain_; }

    /// The largest tie proof cycle below `limit` (0 when none) — the frame
    /// after which a run limited to `limit` frames seeds no new tie.
    std::uint32_t last_tie_cycle_below(std::uint32_t limit) const noexcept;

    /// Append frame t's background values on constant and tied gates (the
    /// ones free_values() leaves out), in gate order. O(gates): for callers
    /// materializing complete scenario results.
    void append_fixed(std::uint32_t t, std::vector<ImpliedValue>& out) const;

private:
    struct Seed {
        std::uint32_t frame;
        GateId gate;
        Val3 value;
    };
    struct Changed {
        GateId gate;
        std::uint32_t old_since;
    };

    bool fixed(GateId g) const noexcept { return topo_->is_const(g) || ties_[g] != Val3::X; }
    void note_cycle(std::uint32_t cycle, int delta);
    void close_from(std::span<const Seed> seeds);
    bool assign(GateId g, Val3 v);
    bool propagate();
    void drop_events();
    void enqueue_fanouts(GateId g);

    const Topology* topo_;
    SeqGating gating_;
    const EquivMap* equiv_;
    std::uint32_t frames_;

    std::vector<Val3> ties_;
    std::vector<std::uint32_t> cycles_;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> cycle_counts_;  // (cycle, ties), sorted

    std::vector<Entry> entry_;
    std::uint32_t conflict_frame_;
    std::uint32_t horizon_ = 0;  // last frame at which any gate entered
    std::vector<FrameValue> free_;   // sorted by (frame, gate)
    std::vector<FrameValue> gains_;  // sorted by (frame, gate)
    std::uint32_t first_gain_ = kNever;

    // Extension scratch.
    std::uint32_t frame_ = 0;
    std::vector<Changed> changed_;  // gates entered during this extension
    std::vector<Changed> fresh_;    // of those, the ones the old closure lacked at frame_
    std::vector<Seed> caps_;
    std::vector<std::vector<GateId>> buckets_;
    std::vector<std::uint8_t> queued_;
    std::size_t pending_ = 0;
    std::uint32_t evt_lo_ = UINT32_MAX;
    std::uint32_t evt_hi_ = 0;
};

}  // namespace seqlearn::sim
