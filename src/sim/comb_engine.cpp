#include "sim/comb_engine.hpp"

#include "sim/level_queue.hpp"

#include <stdexcept>

namespace seqlearn::sim {

CombEngine::CombEngine(const Netlist& nl) : nl_(&nl), topo_(nl) {}

void CombEngine::eval(std::vector<Val3>& vals) const {
    if (vals.size() != topo_.size()) throw std::invalid_argument("CombEngine::eval: bad size");
    eval_gates(topo_, topo_.schedule(), vals);
}

SequenceResult simulate_sequence(const Netlist& nl, const InputSequence& seq,
                                 const std::vector<Val3>* initial_state) {
    const CombEngine engine(nl);
    const auto inputs = nl.inputs();
    const auto seq_elems = nl.seq_elements();
    if (initial_state && initial_state->size() != seq_elems.size())
        throw std::invalid_argument("simulate_sequence: bad initial state size");

    SequenceResult out;
    out.frames.reserve(seq.size());
    out.outputs.reserve(seq.size());

    std::vector<Val3> state(seq_elems.size(), Val3::X);
    if (initial_state) state = *initial_state;

    for (const InputFrame& frame : seq) {
        if (frame.size() != inputs.size())
            throw std::invalid_argument("simulate_sequence: bad input frame size");
        std::vector<Val3> vals(nl.size(), Val3::X);
        for (std::size_t i = 0; i < inputs.size(); ++i) vals[inputs[i]] = frame[i];
        for (std::size_t i = 0; i < seq_elems.size(); ++i) vals[seq_elems[i]] = state[i];
        engine.eval(vals);
        for (std::size_t i = 0; i < seq_elems.size(); ++i) {
            // Scalar reference model: every element captures its (first-port)
            // data value at the frame boundary.
            state[i] = vals[nl.fanins(seq_elems[i])[0]];
        }
        std::vector<Val3> povals;
        povals.reserve(nl.outputs().size());
        for (const GateId o : nl.outputs()) povals.push_back(vals[o]);
        out.frames.push_back(std::move(vals));
        out.outputs.push_back(std::move(povals));
    }
    return out;
}

}  // namespace seqlearn::sim
