#pragma once
// Flat compressed-sparse-row (CSR) view of a Netlist, built once and shared
// by every simulator.
//
// The Netlist stores per-gate std::vector fanin/fanout lists — convenient
// for construction and editing, but a pointer chase per gate on the
// simulation hot paths. Topology freezes the connectivity into four
// contiguous arrays (fanin offsets+edges, fanout offsets+edges), caches the
// per-gate operator code and structural flags, and carries the combinational
// levelization. Each gate's fanout range is additionally partitioned so its
// combinational sinks come first and its sequential sinks last: the
// event-driven frame simulator iterates the combinational span when
// scheduling and the sequential span at the frame boundary, with no
// per-edge type test.
//
// It also holds the strongly connected components of the gate graph over
// every fanout edge, combinational and sequential (an iterative Tarjan at
// construction). Components are numbered so every edge runs from a lower to
// a higher component, and the condensation DAG is stored in CSR. A gate's
// forward cone through both kinds of sink — "a fault's cone" for the fault
// simulator, the ATPG engine, the CNF miter and the backend router — is
// exactly the gates of the components its own component reaches, so
// propagate_lanes() computes up to 64 such cones in one sweep of the DAG.
//
// A Topology is a snapshot: it must be rebuilt after the Netlist is edited.

#include "logic/val3.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace seqlearn::netlist {

class Topology {
public:
    /// Structural flags per gate.
    enum Flag : std::uint8_t {
        kInput = 1,  ///< primary input
        kConst = 2,  ///< Const0/Const1 source
        kSeq = 4,    ///< Dff/Dlatch
        kComb = 8,   ///< evaluable combinational operator (excludes consts)
    };

    /// Build the CSR snapshot (levelizes internally; throws on
    /// combinational cycles, like levelize()).
    explicit Topology(const Netlist& nl);

    std::size_t size() const noexcept { return type_.size(); }

    // --- connectivity -----------------------------------------------------
    std::span<const GateId> fanins(GateId g) const noexcept {
        return {fanin_.data() + fanin_off_[g], fanin_.data() + fanin_off_[g + 1]};
    }
    std::span<const GateId> fanouts(GateId g) const noexcept {
        return {fanout_.data() + fanout_off_[g], fanout_.data() + fanout_off_[g + 1]};
    }
    /// Fanouts that are combinational gates (evaluated within a frame).
    std::span<const GateId> comb_fanouts(GateId g) const noexcept {
        return {fanout_.data() + fanout_off_[g], fanout_.data() + fanout_seq_[g]};
    }
    /// Fanouts that are sequential elements (captured at the frame boundary).
    std::span<const GateId> seq_fanouts(GateId g) const noexcept {
        return {fanout_.data() + fanout_seq_[g], fanout_.data() + fanout_off_[g + 1]};
    }
    std::size_t fanout_count(GateId g) const noexcept {
        return fanout_off_[g + 1] - fanout_off_[g];
    }
    /// Index of gate `g`'s first fanin edge in the flat edge numbering
    /// [0, num_fanin_edges()); pin `i` of `g` is edge fanin_offset(g) + i.
    /// Lets consumers keep per-pin side data in one flat array.
    std::uint32_t fanin_offset(GateId g) const noexcept { return fanin_off_[g]; }
    std::size_t num_fanin_edges() const noexcept { return fanin_.size(); }

    // --- interface lists (mirrors of the Netlist's, in the same order) ----
    std::span<const GateId> inputs() const noexcept { return inputs_; }
    std::span<const GateId> outputs() const noexcept { return outputs_; }
    std::span<const GateId> seq_elements() const noexcept { return seq_elems_; }

    // --- per-gate codes ---------------------------------------------------
    GateType type(GateId g) const noexcept { return type_[g]; }
    /// Operator code; meaningful only when is_comb(g) or is_const(g).
    logic::GateOp op(GateId g) const noexcept { return op_[g]; }
    std::uint8_t flags(GateId g) const noexcept { return flags_[g]; }
    bool is_input(GateId g) const noexcept { return flags_[g] & kInput; }
    bool is_const(GateId g) const noexcept { return flags_[g] & kConst; }
    bool is_seq(GateId g) const noexcept { return flags_[g] & kSeq; }
    bool is_comb(GateId g) const noexcept { return flags_[g] & kComb; }

    // --- schedule ---------------------------------------------------------
    const Levelization& levels() const noexcept { return lv_; }
    std::uint32_t level(GateId g) const noexcept { return lv_.level[g]; }
    std::uint32_t max_level() const noexcept { return lv_.max_level; }
    /// All gates in combinational evaluation order (sources first, then by
    /// non-decreasing level) — identical to levelize(nl).topo_order.
    std::span<const GateId> schedule() const noexcept { return lv_.topo_order; }
    /// Constant sources in id order (event-driven runs must seed them).
    std::span<const GateId> const_gates() const noexcept { return consts_; }

    // --- strongly connected components -----------------------------------
    /// Number of strongly connected components (every gate is in exactly one;
    /// a gate on no cycle is a component of its own).
    std::uint32_t num_components() const noexcept {
        return static_cast<std::uint32_t>(comp_gate_off_.size() - 1);
    }
    /// Component of gate `g`. For every fanout edge g -> h,
    /// component(g) <= component(h).
    std::uint32_t component(GateId g) const noexcept { return comp_[g]; }
    /// Gates of component `c`, in ascending id order.
    std::span<const GateId> component_gates(std::uint32_t c) const noexcept {
        return {comp_gate_.data() + comp_gate_off_[c],
                comp_gate_.data() + comp_gate_off_[c + 1]};
    }
    /// Successors of component `c` in the condensation DAG: distinct, each
    /// greater than `c`.
    std::span<const std::uint32_t> component_succs(std::uint32_t c) const noexcept {
        return {comp_succ_.data() + comp_succ_off_[c],
                comp_succ_.data() + comp_succ_off_[c + 1]};
    }
    /// OR-propagate per-component lane masks along the condensation DAG in
    /// one ascending sweep from `first`, the lowest seeded component (no
    /// component below it can reach a seed). `lanes` holds num_components()
    /// words. On return lanes[c] is the OR of the seeds of every component
    /// that reaches `c`, itself included. Seeding bit j at component(r) thus
    /// marks r's forward cone — r and every gate reachable from it through
    /// combinational and sequential sinks — in lane j.
    void propagate_lanes(std::span<std::uint64_t> lanes, std::uint32_t first) const noexcept;
    /// The forward cone of `root` (through combinational and sequential
    /// sinks, `root` included) in component order: one propagate_lanes()
    /// sweep over a single lane.
    std::vector<GateId> forward_cone(GateId root) const;

    /// Heap bytes held by the CSR arrays, the levelization and the
    /// components — the per-circuit structural footprint the serving cache
    /// accounts against its memory cap (bytes/gate stays flat as circuits
    /// grow).
    std::size_t memory_bytes() const noexcept;

private:
    void build_components();

    std::vector<std::uint32_t> fanin_off_;   // size() + 1
    std::vector<GateId> fanin_;
    std::vector<std::uint32_t> fanout_off_;  // size() + 1
    std::vector<std::uint32_t> fanout_seq_;  // start of the sequential span
    std::vector<GateId> fanout_;
    std::vector<GateType> type_;
    std::vector<logic::GateOp> op_;
    std::vector<std::uint8_t> flags_;
    std::vector<GateId> consts_;
    std::vector<GateId> inputs_;
    std::vector<GateId> outputs_;
    std::vector<GateId> seq_elems_;
    Levelization lv_;
    std::vector<std::uint32_t> comp_;           // gate -> component
    std::vector<std::uint32_t> comp_gate_off_;  // num_components() + 1
    std::vector<GateId> comp_gate_;
    std::vector<std::uint32_t> comp_succ_off_;  // num_components() + 1
    std::vector<std::uint32_t> comp_succ_;
};

}  // namespace seqlearn::netlist
