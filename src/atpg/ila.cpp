#include "atpg/ila.hpp"

namespace seqlearn::atpg {

std::vector<bool> fault_cone_mask(const netlist::Topology& topo, const fault::Fault& f) {
    // For an output fault the affected line starts at the gate itself; for a
    // pin fault the divergence starts at the consuming gate.
    std::vector<bool> mask(topo.size(), false);
    for (const GateId g : topo.forward_cone(f.gate)) mask[g] = true;
    return mask;
}

}  // namespace seqlearn::atpg
