#include "netlist/topology.hpp"

#include <algorithm>
#include <limits>

namespace seqlearn::netlist {

Topology::Topology(const Netlist& nl) : lv_(levelize(nl)) {
    const std::size_t n = nl.size();
    type_.resize(n);
    op_.assign(n, logic::GateOp::Buf);
    flags_.assign(n, 0);

    std::size_t fanin_total = 0;
    std::size_t fanout_total = 0;
    for (GateId g = 0; g < n; ++g) {
        fanin_total += nl.fanins(g).size();
        fanout_total += nl.fanouts(g).size();
    }

    fanin_off_.resize(n + 1);
    fanout_off_.resize(n + 1);
    fanout_seq_.resize(n);
    fanin_.reserve(fanin_total);
    fanout_.reserve(fanout_total);

    for (GateId g = 0; g < n; ++g) {
        const GateType t = nl.type(g);
        type_[g] = t;
        std::uint8_t f = 0;
        if (t == GateType::Input) {
            f |= kInput;
        } else if (t == GateType::Const0 || t == GateType::Const1) {
            f |= kConst;
            op_[g] = to_op(t);
            consts_.push_back(g);
        } else if (is_sequential(t)) {
            f |= kSeq;
        } else {
            f |= kComb;
            op_[g] = to_op(t);
        }
        flags_[g] = f;

        fanin_off_[g] = static_cast<std::uint32_t>(fanin_.size());
        for (const GateId fi : nl.fanins(g)) fanin_.push_back(fi);

        // Stable partition of the fanout list: combinational sinks first,
        // sequential sinks last, each keeping the Netlist's relative order
        // (event-driven propagation order — and hence every downstream
        // discovery order — stays identical to iterating the Netlist lists).
        fanout_off_[g] = static_cast<std::uint32_t>(fanout_.size());
        for (const GateId fo : nl.fanouts(g))
            if (!is_sequential(nl.type(fo))) fanout_.push_back(fo);
        fanout_seq_[g] = static_cast<std::uint32_t>(fanout_.size());
        for (const GateId fo : nl.fanouts(g))
            if (is_sequential(nl.type(fo))) fanout_.push_back(fo);
    }
    fanin_off_[n] = static_cast<std::uint32_t>(fanin_.size());
    fanout_off_[n] = static_cast<std::uint32_t>(fanout_.size());

    inputs_.assign(nl.inputs().begin(), nl.inputs().end());
    outputs_.assign(nl.outputs().begin(), nl.outputs().end());
    seq_elems_.assign(nl.seq_elements().begin(), nl.seq_elements().end());
    build_components();
}

void Topology::build_components() {
    // Iterative Tarjan over every fanout edge. Roots are taken in id order
    // and edges in CSR order, so the numbering is a pure function of the
    // Netlist.
    const std::size_t n = size();
    constexpr std::uint32_t kUnvisited = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> index(n, kUnvisited);
    std::vector<std::uint32_t> low(n, 0);
    std::vector<std::uint8_t> on_stack(n, 0);
    std::vector<GateId> stack;  // gates of components still open
    struct Frame {
        GateId gate;
        std::uint32_t next_edge;  // next position in fanout_
    };
    std::vector<Frame> calls;
    comp_.assign(n, 0);
    std::uint32_t next_index = 0;
    std::uint32_t closed = 0;
    auto open = [&](GateId g) {
        index[g] = low[g] = next_index++;
        stack.push_back(g);
        on_stack[g] = 1;
        calls.push_back({g, fanout_off_[g]});
    };
    for (GateId root = 0; root < n; ++root) {
        if (index[root] != kUnvisited) continue;
        open(root);
        while (!calls.empty()) {
            const GateId g = calls.back().gate;
            if (calls.back().next_edge < fanout_off_[g + 1]) {
                const GateId h = fanout_[calls.back().next_edge++];
                if (index[h] == kUnvisited) open(h);
                else if (on_stack[h]) low[g] = std::min(low[g], index[h]);
                continue;
            }
            calls.pop_back();
            if (!calls.empty()) {
                const GateId parent = calls.back().gate;
                low[parent] = std::min(low[parent], low[g]);
            }
            if (low[g] != index[g]) continue;
            GateId h;
            do {
                h = stack.back();
                stack.pop_back();
                on_stack[h] = 0;
                comp_[h] = closed;
            } while (h != g);
            ++closed;
        }
    }
    // Tarjan closes a component only after every component it reaches, so
    // reversing the closing order makes every edge run low -> high.
    for (std::uint32_t& c : comp_) c = closed - 1 - c;

    // Members per component (counting sort keeps ascending gate ids).
    comp_gate_off_.assign(closed + 1, 0);
    for (GateId g = 0; g < n; ++g) ++comp_gate_off_[comp_[g] + 1];
    for (std::uint32_t c = 0; c < closed; ++c) comp_gate_off_[c + 1] += comp_gate_off_[c];
    comp_gate_.resize(n);
    std::vector<std::uint32_t> fill(comp_gate_off_.begin(), comp_gate_off_.end() - 1);
    for (GateId g = 0; g < n; ++g) comp_gate_[fill[comp_[g]]++] = g;

    // Condensation DAG, successors deduplicated per component.
    comp_succ_off_.assign(closed + 1, 0);
    comp_succ_.clear();
    std::vector<std::uint32_t> seen_from(closed, kUnvisited);
    for (std::uint32_t c = 0; c < closed; ++c) {
        comp_succ_off_[c] = static_cast<std::uint32_t>(comp_succ_.size());
        for (const GateId g : component_gates(c)) {
            for (const GateId h : fanouts(g)) {
                const std::uint32_t d = comp_[h];
                if (d == c || seen_from[d] == c) continue;
                seen_from[d] = c;
                comp_succ_.push_back(d);
            }
        }
    }
    comp_succ_off_[closed] = static_cast<std::uint32_t>(comp_succ_.size());
    comp_succ_.shrink_to_fit();
}

void Topology::propagate_lanes(std::span<std::uint64_t> lanes,
                               std::uint32_t first) const noexcept {
    const std::uint32_t count = num_components();
    for (std::uint32_t c = first; c < count; ++c) {
        const std::uint64_t m = lanes[c];
        if (m == 0) continue;
        for (const std::uint32_t d : component_succs(c)) lanes[d] |= m;
    }
}

std::vector<GateId> Topology::forward_cone(GateId root) const {
    const std::uint32_t first = comp_[root];
    std::vector<std::uint64_t> reached(num_components(), 0);
    reached[first] = 1;
    propagate_lanes(reached, first);
    std::vector<GateId> cone;
    for (std::uint32_t c = first; c < num_components(); ++c) {
        if (reached[c] == 0) continue;
        const auto gates = component_gates(c);
        cone.insert(cone.end(), gates.begin(), gates.end());
    }
    return cone;
}

std::size_t Topology::memory_bytes() const noexcept {
    const auto vec = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
    return vec(fanin_off_) + vec(fanin_) + vec(fanout_off_) + vec(fanout_seq_) +
           vec(fanout_) + vec(type_) + vec(op_) + vec(flags_) + vec(consts_) +
           vec(inputs_) + vec(outputs_) + vec(seq_elems_) + vec(lv_.level) +
           vec(lv_.topo_order) + vec(comp_) + vec(comp_gate_off_) + vec(comp_gate_) +
           vec(comp_succ_off_) + vec(comp_succ_);
}

}  // namespace seqlearn::netlist
