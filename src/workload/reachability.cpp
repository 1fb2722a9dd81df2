#include "workload/reachability.hpp"

#include "sim/comb_engine.hpp"

#include <stdexcept>

namespace seqlearn::workload {

using logic::Val3;
using netlist::Netlist;

std::vector<bool> image_set(const Netlist& nl, std::size_t depth, std::size_t max_ffs) {
    const auto seq = nl.seq_elements();
    const auto inputs = nl.inputs();
    const std::size_t k = seq.size();
    if (k > max_ffs) throw std::invalid_argument("image_set: too many sequential elements");
    if (inputs.size() > 16) throw std::invalid_argument("image_set: too many inputs");
    const sim::CombEngine engine(nl);
    const std::uint64_t n_states = 1ULL << k;
    const std::uint64_t n_inputs = 1ULL << inputs.size();

    auto step = [&](std::uint64_t s, std::uint64_t u) {
        std::vector<Val3> vals(nl.size(), Val3::X);
        for (std::size_t i = 0; i < k; ++i)
            vals[seq[i]] = (s >> i) & 1 ? Val3::One : Val3::Zero;
        for (std::size_t i = 0; i < inputs.size(); ++i)
            vals[inputs[i]] = (u >> i) & 1 ? Val3::One : Val3::Zero;
        engine.eval(vals);
        std::uint64_t next = 0;
        for (std::size_t i = 0; i < k; ++i) {
            if (vals[nl.fanins(seq[i])[0]] == Val3::One) next |= 1ULL << i;
        }
        return next;
    };

    std::vector<bool> current(n_states, true);
    for (std::size_t d = 0; d < depth; ++d) {
        std::vector<bool> next(n_states, false);
        for (std::uint64_t s = 0; s < n_states; ++s) {
            if (!current[s]) continue;
            for (std::uint64_t u = 0; u < n_inputs; ++u) next[step(s, u)] = true;
        }
        if (next == current) break;
        current = std::move(next);
    }
    return current;
}

}  // namespace seqlearn::workload
