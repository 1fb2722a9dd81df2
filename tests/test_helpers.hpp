#pragma once
// Shared helpers for the test suites: a one-shot learn() through the
// supported facade, a small random sequential circuit generator, and
// exhaustive image-set computation used as the soundness oracle for learned
// relations and ties.

#include "api/session.hpp"
#include "netlist/builder.hpp"
#include "netlist/netlist.hpp"
#include "sim/comb_engine.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

#include <string>
#include <vector>

namespace seqlearn::testing {

using logic::Val3;
using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

/// One-shot learning for tests: compile a private Design from a copy of
/// `nl`, run the full pipeline through api::Session (the supported entry
/// point) and return the result by value.
inline core::LearnResult learn(const Netlist& nl, const core::LearnConfig& cfg = {}) {
    return api::Session(Netlist(nl)).learn(cfg);
}

/// Order-sensitive FNV-1a digest of every gate's tie value and proof cycle
/// — pins a whole tie set in one golden.
inline std::uint64_t tie_digest(const core::TieSet& ties) {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (std::size_t g = 0; g < ties.dense().size(); ++g) {
        mix(static_cast<std::uint64_t>(ties.dense()[g]));
        mix(ties.dense_cycles()[g]);
    }
    return h;
}

/// Build a random sequential circuit: `n_in` inputs, `n_ff` flip-flops,
/// `n_gate` combinational gates wired to random earlier signals; every FF's
/// D input is a random signal; a few random signals become outputs.
inline Netlist random_circuit(std::uint64_t seed, std::size_t n_in, std::size_t n_ff,
                              std::size_t n_gate) {
    util::Rng rng(seed);
    netlist::NetlistBuilder b(util::format("rand_%llu", static_cast<unsigned long long>(seed)));
    std::vector<std::string> signals;
    for (std::size_t i = 0; i < n_in; ++i) {
        b.input(util::format("i%zu", i));
        signals.push_back(util::format("i%zu", i));
    }
    std::vector<std::string> ff_names;
    for (std::size_t i = 0; i < n_ff; ++i) {
        ff_names.push_back(util::format("f%zu", i));
        signals.push_back(ff_names.back());
    }
    const GateType kinds[] = {GateType::And,  GateType::Nand, GateType::Or,  GateType::Nor,
                              GateType::Xor,  GateType::Xnor, GateType::Not, GateType::Buf,
                              GateType::And,  GateType::Or,   GateType::Nand, GateType::Nor};
    std::vector<std::string> gate_names;
    for (std::size_t i = 0; i < n_gate; ++i) {
        const GateType t = kinds[rng.below(std::size(kinds))];
        const std::string name = util::format("g%zu", i);
        const std::size_t arity =
            (t == GateType::Not || t == GateType::Buf) ? 1 : 2 + rng.below(2);
        std::vector<std::string> fan;
        for (std::size_t a = 0; a < arity; ++a)
            fan.push_back(signals[rng.below(signals.size())]);
        b.gate(t, name, fan);
        signals.push_back(name);
        gate_names.push_back(name);
    }
    for (std::size_t i = 0; i < n_ff; ++i) {
        // D input: any signal, biased toward gates so state feedback exists.
        const std::string& d = gate_names.empty() || rng.chance(0.2)
                                   ? signals[rng.below(n_in + n_ff)]
                                   : gate_names[rng.below(gate_names.size())];
        b.dff(ff_names[i], d);
    }
    // A handful of observation points.
    for (std::size_t i = 0; i < std::min<std::size_t>(3, signals.size()); ++i) {
        b.output(signals[signals.size() - 1 - i]);
    }
    return b.build();
}

/// States with at least `depth` predecessor frames: Image^depth(AllStates),
/// inputs free at every step. Indexed by the packed FF vector (bit i =
/// seq_elements()[i]).
inline std::vector<bool> image_set(const Netlist& nl, std::size_t depth) {
    const auto seq = nl.seq_elements();
    const auto inputs = nl.inputs();
    const std::size_t k = seq.size();
    const std::uint64_t n_states = 1ULL << k;
    const std::uint64_t n_inputs = 1ULL << inputs.size();
    const sim::CombEngine engine(nl);

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
        if (next == current) break;  // fixpoint: deeper images are identical
        current = std::move(next);
    }
    return current;
}

/// Evaluate all gate values for packed state `s` and packed input `u`.
inline std::vector<Val3> eval_frame(const Netlist& nl, const sim::CombEngine& engine,
                                    std::uint64_t s, std::uint64_t u) {
    const auto seq = nl.seq_elements();
    const auto inputs = nl.inputs();
    std::vector<Val3> vals(nl.size(), Val3::X);
    for (std::size_t i = 0; i < seq.size(); ++i)
        vals[seq[i]] = (s >> i) & 1 ? Val3::One : Val3::Zero;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        vals[inputs[i]] = (u >> i) & 1 ? Val3::One : Val3::Zero;
    engine.eval(vals);
    return vals;
}

}  // namespace seqlearn::testing
