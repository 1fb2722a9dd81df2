#pragma once
// Tie-gate registry (paper Section 3.2).
//
// A gate tied to v can only assume v: combinationally (tied at frame 0,
// independent of state) or sequentially (guaranteed v from frame c onward
// starting from *any* state — a c-cycle redundancy in the sense of FIRES).
// Ties feed back into learning (the simulator seeds them as facts) and
// yield untestable stuck-at faults.

#include "fault/fault.hpp"
#include "logic/val3.hpp"
#include "netlist/netlist.hpp"

#include <vector>

namespace seqlearn::core {

using logic::Val3;
using netlist::GateId;
using netlist::Netlist;

class TieSet {
public:
    explicit TieSet(std::size_t num_gates) : value_(num_gates, Val3::X), cycle_(num_gates, 0) {}

    /// Record that `gate` is tied to `v`, proven from frame `cycle` on.
    /// Re-recording with a smaller cycle keeps the smaller one. Recording
    /// the opposite value throws std::logic_error (a gate tied to both
    /// values means the learning run was fed an inconsistent circuit).
    void set(GateId gate, Val3 v, std::uint32_t cycle);

    /// Mutation counter: bumped by every set() that changes observable state
    /// (a new tie, or a proof cycle lowered). The learning loop compares it
    /// around each unit's extraction and re-batches after a unit that moved
    /// it.
    std::uint64_t version() const noexcept { return version_; }

    /// Tied value of `gate`, or X when not tied.
    Val3 value(GateId gate) const noexcept { return value_[gate]; }

    /// Earliest frame from which the tie holds (0 = combinational).
    std::uint32_t cycle(GateId gate) const noexcept { return cycle_[gate]; }

    bool is_tied(GateId gate) const noexcept { return value_[gate] != Val3::X; }

    /// Dense gate -> tied-value vector, the format FrameSimulator::set_ties
    /// consumes. Valid as long as the TieSet lives and is not modified.
    const std::vector<Val3>& dense() const noexcept { return value_; }

    /// Dense gate -> proof-cycle vector (pairs with dense()).
    const std::vector<std::uint32_t>& dense_cycles() const noexcept { return cycle_; }

    std::size_t count() const noexcept { return count_; }
    std::size_t count_combinational() const;
    std::size_t count_sequential() const;

    /// All tied gates in id order.
    std::vector<GateId> tied_gates() const;

    /// Heap bytes held by the dense value/cycle vectors.
    std::size_t memory_bytes() const noexcept {
        return value_.capacity() * sizeof(Val3) + cycle_.capacity() * sizeof(std::uint32_t);
    }

    /// stuck_at_tie()'s bound that accepts a tie proven at any cycle.
    static constexpr std::uint32_t kAnyCycle = ~std::uint32_t{0};

    /// True when `f` is stuck at the value its line is tied to, proven from
    /// frame `max_cycle` or earlier: for a gate tied to v, the stem fault
    /// s-a-v and every s-a-v branch fault on its fanout pins. The fault can
    /// never be excited once the tie holds, so it is untestable; a tie from
    /// cycle 0 (max_cycle 0) holds in every frame of every sequence. `graph`
    /// is a Netlist or a Topology.
    template <typename Graph>
    bool stuck_at_tie(const Graph& graph, const fault::Fault& f,
                      std::uint32_t max_cycle = kAnyCycle) const noexcept {
        const GateId line = fault::line_driver(graph, f);
        return value_[line] == f.stuck && cycle_[line] <= max_cycle;
    }

    /// The faults of `universe` stuck_at_tie() marks, at any proof cycle.
    std::vector<fault::Fault> untestable_faults(const Netlist& nl,
                                                std::span<const fault::Fault> universe) const;

private:
    std::vector<Val3> value_;
    std::vector<std::uint32_t> cycle_;
    std::size_t count_ = 0;
    std::uint64_t version_ = 0;
};

}  // namespace seqlearn::core
