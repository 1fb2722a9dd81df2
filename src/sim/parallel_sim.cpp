#include "sim/parallel_sim.hpp"

#include <stdexcept>

namespace seqlearn::sim {

void ParallelSim::eval(std::vector<Pattern>& pats) const {
    const netlist::Topology& topo = *topo_;
    if (pats.size() != topo.size()) throw std::invalid_argument("ParallelSim::eval: bad size");
    Pattern* const vals = pats.data();
    for (const GateId id : topo.schedule()) {
        if (!(topo.flags(id) & (netlist::Topology::kComb | netlist::Topology::kConst)))
            continue;
        const auto fi = topo.fanins(id);
        vals[id] = logic::eval_op_indirect(topo.op(id), fi.size(),
                                           [&](std::size_t k) { return vals[fi[k]]; });
    }
}

void ParallelSim::eval_random(std::vector<Pattern>& pats, util::Rng& rng) const {
    if (pats.size() != topo_->size())
        throw std::invalid_argument("ParallelSim::eval_random: bad size");
    auto randomize = [&](GateId id) {
        const std::uint64_t bits = rng.next_u64();
        pats[id] = Pattern{bits, ~bits};
    };
    for (const GateId id : topo_->inputs()) randomize(id);
    for (const GateId id : topo_->seq_elements()) randomize(id);
    eval(pats);
}

SignatureSet collect_signatures(const netlist::Topology& topo, std::size_t rounds,
                                std::uint64_t seed) {
    const ParallelSim sim(topo);
    util::Rng rng(seed);
    const std::size_t n = topo.size();
    SignatureSet out;
    out.rounds = rounds;
    out.words.assign(n * rounds, 0);  // one preallocated rounds-per-gate block
    std::vector<Pattern> pats(n);
    for (std::size_t r = 0; r < rounds; ++r) {
        sim.eval_random(pats, rng);
        for (GateId id = 0; id < n; ++id) out.words[id * rounds + r] = pats[id].ones;
    }
    return out;
}

}  // namespace seqlearn::sim
