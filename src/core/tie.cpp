#include "core/tie.hpp"

#include <stdexcept>

namespace seqlearn::core {

void TieSet::set(GateId gate, Val3 v, std::uint32_t cycle) {
    if (v == Val3::X) throw std::invalid_argument("TieSet::set: X is not a tie value");
    if (value_[gate] == Val3::X) {
        value_[gate] = v;
        cycle_[gate] = cycle;
        ++count_;
        ++version_;
        return;
    }
    if (value_[gate] != v)
        throw std::logic_error("TieSet::set: gate tied to both values");
    if (cycle < cycle_[gate]) {
        cycle_[gate] = cycle;
        ++version_;
    }
}

std::size_t TieSet::count_combinational() const {
    std::size_t n = 0;
    for (GateId g = 0; g < value_.size(); ++g) {
        if (value_[g] != Val3::X && cycle_[g] == 0) ++n;
    }
    return n;
}

std::size_t TieSet::count_sequential() const { return count_ - count_combinational(); }

std::vector<GateId> TieSet::tied_gates() const {
    std::vector<GateId> out;
    for (GateId g = 0; g < value_.size(); ++g) {
        if (value_[g] != Val3::X) out.push_back(g);
    }
    return out;
}

std::vector<fault::Fault> TieSet::untestable_faults(
    const Netlist& nl, std::span<const fault::Fault> universe) const {
    std::vector<fault::Fault> out;
    for (const fault::Fault& f : universe) {
        if (stuck_at_tie(nl, f)) out.push_back(f);
    }
    return out;
}

}  // namespace seqlearn::core
