#include "sim/parallel_sim.hpp"

#include "sim/level_queue.hpp"

#include <stdexcept>

namespace seqlearn::sim {

void eval_random(const netlist::Topology& topo, std::vector<Pattern>& pats, util::Rng& rng) {
    if (pats.size() != topo.size()) throw std::invalid_argument("eval_random: bad size");
    auto randomize = [&](GateId id) {
        const std::uint64_t bits = rng.next_u64();
        pats[id] = Pattern{bits, ~bits};
    };
    for (const GateId id : topo.inputs()) randomize(id);
    for (const GateId id : topo.seq_elements()) randomize(id);
    eval_gates(topo, topo.schedule(), pats);
}

SignatureSet collect_signatures(const netlist::Topology& topo, std::size_t rounds,
                                std::uint64_t seed) {
    util::Rng rng(seed);
    const std::size_t n = topo.size();
    SignatureSet out;
    out.rounds = rounds;
    out.words.assign(n * rounds, 0);  // one preallocated rounds-per-gate block
    std::vector<Pattern> pats(n);
    for (std::size_t r = 0; r < rounds; ++r) {
        eval_random(topo, pats, rng);
        for (GateId id = 0; id < n; ++id) out.words[id * rounds + r] = pats[id].ones;
    }
    return out;
}

}  // namespace seqlearn::sim
