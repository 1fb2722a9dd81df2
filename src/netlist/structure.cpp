#include "netlist/structure.hpp"

#include "netlist/levelize.hpp"

#include <algorithm>

namespace seqlearn::netlist {

namespace {

std::vector<GateId> cone(const Netlist& nl, GateId start, bool through_seq, bool forward) {
    std::vector<bool> seen(nl.size(), false);
    std::vector<GateId> out;
    std::vector<GateId> stack{start};
    // `start` is deliberately not pre-marked: a node reachable from itself
    // (through feedback) belongs to its own cone.
    while (!stack.empty()) {
        const GateId u = stack.back();
        stack.pop_back();
        const bool expand = (u == start) || through_seq || !is_sequential(nl.type(u));
        if (!expand) continue;
        const auto next = forward ? nl.fanouts(u) : nl.fanins(u);
        for (const GateId v : next) {
            if (seen[v]) continue;
            seen[v] = true;
            out.push_back(v);
            stack.push_back(v);
        }
    }
    return out;
}

}  // namespace

std::vector<GateId> fanout_cone(const Netlist& nl, GateId start, bool through_seq) {
    return cone(nl, start, through_seq, /*forward=*/true);
}

std::vector<GateId> fanin_cone(const Netlist& nl, GateId start, bool through_seq) {
    return cone(nl, start, through_seq, /*forward=*/false);
}

std::size_t sequential_depth(const Topology& topo, std::size_t cap) {
    // Same wave relaxation as the Netlist overload, with the combinational
    // fanin support gathered by a backward walk over the CSR fanin spans
    // that does not expand through sequential elements.
    std::vector<std::size_t> depth(topo.size(), 0);
    std::vector<bool> seen(topo.size(), false);
    std::vector<GateId> stack;
    std::vector<GateId> touched;
    bool changed = true;
    std::size_t result = 0;
    std::size_t iter = 0;
    while (changed && iter++ < cap) {
        changed = false;
        for (const GateId ff : topo.seq_elements()) {
            std::size_t d = 1;  // the element itself is one stage
            for (const GateId g : touched) seen[g] = false;
            touched.clear();
            stack.assign(1, ff);
            while (!stack.empty()) {
                const GateId u = stack.back();
                stack.pop_back();
                if (u != ff && topo.is_seq(u)) continue;  // support boundary
                for (const GateId v : topo.fanins(u)) {
                    if (seen[v]) continue;
                    seen[v] = true;
                    touched.push_back(v);
                    if (topo.is_seq(v)) d = std::max(d, depth[v] + 1);
                    stack.push_back(v);
                }
            }
            d = std::min(d, cap);
            if (d > depth[ff]) {
                depth[ff] = d;
                changed = true;
                result = std::max(result, d);
            }
        }
    }
    return result;
}

std::size_t sequential_depth(const Netlist& nl, std::size_t cap) {
    // BFS in waves over sequential elements: depth of an element is one past
    // the max depth of elements in its combinational fanin support.
    std::vector<std::size_t> depth(nl.size(), 0);
    bool changed = true;
    std::size_t result = 0;
    std::size_t iter = 0;
    while (changed && iter++ < cap) {
        changed = false;
        for (const GateId ff : nl.seq_elements()) {
            std::size_t d = 1;  // the element itself is one stage
            for (const GateId s : fanin_cone(nl, ff, /*through_seq=*/false)) {
                if (is_sequential(nl.type(s))) d = std::max(d, depth[s] + 1);
            }
            d = std::min(d, cap);
            if (d > depth[ff]) {
                depth[ff] = d;
                changed = true;
                result = std::max(result, d);
            }
        }
    }
    return result;
}

}  // namespace seqlearn::netlist
