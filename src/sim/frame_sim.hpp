#pragma once
// Sparse event-driven forward simulation across time frames, one injection
// scenario per run (paper Section 3). Learning runs the 64-lane
// BatchFrameSimulator; this scalar simulator is the reference its lanes are
// checked against, and the engine a caller re-runs a conflicting lane on
// when it wants that lane's full result.
//
// A run starts from the all-X state, applies scheduled injections at the
// start of their frames, and propagates three-valued values forward. Within
// a frame only the fanout cone of non-X values is visited, so a run costs
// O(cone) rather than O(circuit). Values cross frame boundaries only through
// sequential elements whose gating allows the value (Section 3.3 rules:
// multi-port latches block, unconstrained set/reset restricts by value,
// foreign clock classes block). Simulation stops early when the sequential
// state repeats across two consecutive frames (paper Section 3.1) or when
// nothing remains to propagate.
//
// Conflicts — a node acquiring both binary values — abort the run and are
// reported; multiple-node learning turns them into tie-gate proofs.
//
// All connectivity is read from a flat CSR netlist::Topology, events run
// through a sim::LevelQueue, and every scratch buffer — including the
// result's implied list via run_into() — is reused across runs.

#include "logic/val3.hpp"
#include "netlist/netlist.hpp"
#include "netlist/topology.hpp"
#include "sim/level_queue.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace seqlearn::sim {

using logic::Val3;
using netlist::GateId;
using netlist::Netlist;
using netlist::Topology;

/// Per-sequential-element, per-value propagation permission.
class SeqGating {
public:
    /// Everything propagates (single clock domain, no set/reset concerns).
    static SeqGating all_open(const Netlist& nl);

    /// Apply the paper's Section-3.3 rules for a learning pass over
    /// `class_members` (a clock class): elements outside the class block both
    /// values; multi-port latches block; an element with an unconstrained
    /// set (reset) line only passes 1 (0); unconstrained set+reset blocks.
    static SeqGating for_class(const Netlist& nl, std::span<const GateId> class_members);

    /// May value `v` (binary) propagate through sequential element `id`?
    bool allows(GateId id, Val3 v) const noexcept {
        const std::uint8_t bit = v == Val3::One ? 2 : 1;
        return (mask_[id] & bit) != 0;
    }

private:
    explicit SeqGating(std::size_t n) : mask_(n, 0) {}
    std::vector<std::uint8_t> mask_;
};

/// Combinational equivalence links used to overcome 3-valued pessimism
/// (paper Section 3.1): when a gate takes a binary value, its equivalent
/// (or inverse-equivalent) partners take the matching value too.
struct EquivLink {
    GateId other = netlist::kNoGate;
    bool inverted = false;
};

/// gate id -> links; empty vectors for gates without partners.
using EquivMap = std::vector<std::vector<EquivLink>>;

/// A scheduled assignment: `gate` takes `value` at the start of `frame`.
struct Injection {
    std::uint32_t frame = 0;
    GateId gate = netlist::kNoGate;
    Val3 value = Val3::X;
};

/// A binary value observed during the run.
struct ImpliedValue {
    std::uint32_t frame = 0;
    GateId gate = netlist::kNoGate;
    Val3 value = Val3::X;

    friend bool operator==(const ImpliedValue&, const ImpliedValue&) = default;
};

struct FrameSimOptions {
    /// Maximum number of frames simulated (paper uses 50).
    std::uint32_t max_frames = 50;
    /// Stop when the sequential state repeats over consecutive frames.
    bool stop_on_state_repeat = true;
};

struct FrameSimResult {
    /// Every binary value observed, in (frame, discovery) order — frames are
    /// simulated in order, so this list is sorted by frame; includes the
    /// injected values themselves.
    std::vector<ImpliedValue> implied;
    /// True when two contradictory binary values met; the run stops there.
    bool conflict = false;
    GateId conflict_gate = netlist::kNoGate;
    std::uint32_t conflict_frame = 0;
    /// Number of frames actually simulated.
    std::uint32_t frames_run = 0;
    /// True when the run ended on the state-repeat rule.
    bool stopped_on_repeat = false;
};

/// Re-order `res.implied` into canonical (frame, gate) order. Within a frame
/// the fixpoint a run computes is unique, but the *discovery* order depends
/// on the event schedule — and the 64-lane BatchFrameSimulator interleaves
/// the schedules of all its lanes. Consumers that must produce identical
/// results from a scalar run and from an extracted batch lane (the learning
/// extraction) canonicalize both first. Keys are unique (a gate acquires at
/// most one value per frame), so the order is total.
void canonicalize(FrameSimResult& res);

/// Reusable event-driven simulator; one instance per (topology, gating) pair
/// amortizes the CSR build and scratch buffers across many runs.
class FrameSimulator {
public:
    /// Build (and own) the CSR topology from `nl`.
    FrameSimulator(const Netlist& nl, SeqGating gating);

    /// Share an existing topology (must outlive the simulator).
    FrameSimulator(const Topology& topo, SeqGating gating);

    /// Force known equivalence classes during simulation (may be null).
    /// The map must outlive the simulator.
    void set_equivalences(const EquivMap* equiv) noexcept { equiv_ = equiv; }

    /// Take known tied gates as established facts: `ties` maps gate id to
    /// its tied value (X = not tied). A tie is seeded in every frame at or
    /// after its proof cycle (`cycles`, same indexing; null = all ties hold
    /// from frame 0, i.e. combinationally). Both vectors must outlive the
    /// simulator (may be null).
    void set_ties(const std::vector<Val3>* ties,
                  const std::vector<std::uint32_t>* cycles = nullptr) noexcept {
        ties_ = ties;
        tie_cycles_ = cycles;
    }

    /// Run one injection scenario into a caller-owned result whose buffers
    /// are reused across calls (hand the same result object back on every
    /// call). Injections may target any frame below opt.max_frames, in any
    /// order; equal-frame injections apply in their given order, and
    /// out-of-range injections are ignored. Returns `out` for chaining.
    FrameSimResult& run_into(std::span<const Injection> injections,
                             const FrameSimOptions& opt, FrameSimResult& out);

    /// Convenience wrapper allocating a fresh result per call.
    FrameSimResult run(std::span<const Injection> injections, const FrameSimOptions& opt) {
        FrameSimResult res;
        run_into(injections, opt, res);
        return res;
    }

    const Topology& topology() const noexcept { return *topo_; }

private:
    struct StateEntry {
        GateId gate;
        Val3 value;
        friend bool operator==(const StateEntry&, const StateEntry&) = default;
    };

    bool assign(GateId g, Val3 v, std::uint32_t frame, FrameSimResult& res);
    void reset_frame_scratch();

    std::unique_ptr<const Topology> owned_topo_;  // null when sharing
    const Topology* topo_;
    SeqGating gating_;
    const EquivMap* equiv_ = nullptr;
    const std::vector<Val3>* ties_ = nullptr;
    const std::vector<std::uint32_t>* tie_cycles_ = nullptr;

    std::vector<Val3> val_;
    std::vector<GateId> touched_;
    LevelQueue queue_;
    // Reused run() scratch: the injections in frame order and the
    // sequential state entering/leaving the current frame.
    std::vector<Injection> inj_scratch_;
    std::vector<StateEntry> state_;
    std::vector<StateEntry> next_state_;
};

}  // namespace seqlearn::sim
