#include "cnf/encoder.hpp"

#include <stdexcept>

namespace seqlearn::cnf {

using logic::GateOp;
using logic::Val3;

namespace {

// out <-> AND(ins). With constant or duplicate literals the solver's
// top-level simplification cleans the clauses up.
void emit_and(Solver& s, Lit out, std::span<const Lit> ins) {
    std::vector<Lit> big;
    big.reserve(ins.size() + 1);
    big.push_back(out);
    for (const Lit in : ins) {
        s.add_clause({~out, in});
        big.push_back(~in);
    }
    s.add_clause(big);
}

// out <-> OR(ins).
void emit_or(Solver& s, Lit out, std::span<const Lit> ins) {
    std::vector<Lit> big;
    big.reserve(ins.size() + 1);
    big.push_back(~out);
    for (const Lit in : ins) {
        s.add_clause({out, ~in});
        big.push_back(in);
    }
    s.add_clause(big);
}

// a <-> b.
void emit_equal(Solver& s, Lit a, Lit b) {
    s.add_clause({~a, b});
    s.add_clause({a, ~b});
}

// out <-> a XOR b.
void emit_xor2(Solver& s, Lit out, Lit a, Lit b) {
    s.add_clause({~out, a, b});
    s.add_clause({~out, ~a, ~b});
    s.add_clause({out, ~a, b});
    s.add_clause({out, a, ~b});
}

}  // namespace

// ---------------------------------------------------------------------------
// BinaryUnroller

BinaryUnroller::BinaryUnroller(const netlist::Topology& topo, Solver& solver)
    : topo_(&topo), solver_(&solver) {}

void BinaryUnroller::encode(std::uint32_t frames, const Seeds& seeds,
                            const CaptureModel& capture) {
    if (frames == 0) throw std::invalid_argument("BinaryUnroller: frames must be >= 1");
    const netlist::Topology& topo = *topo_;
    Solver& s = *solver_;
    frames_ = frames;
    lits_.assign(static_cast<std::size_t>(frames) * topo.size(), Lit{});
    true_lit_ = pos(s.new_var());
    s.add_clause({true_lit_});

    // Per-seq-element index (into seq_elements()) for capture-group lookup.
    std::vector<std::uint32_t> seq_index(topo.size(), 0);
    const auto seq_elems = topo.seq_elements();
    for (std::size_t i = 0; i < seq_elems.size(); ++i)
        seq_index[seq_elems[i]] = static_cast<std::uint32_t>(i);

    // One free capture-enable per (group, frame boundary into frame t >= 1).
    std::vector<Lit> enables(static_cast<std::size_t>(frames) * capture.num_groups);
    for (std::uint32_t t = 1; t < frames; ++t) {
        for (std::uint32_t gi = 0; gi < capture.num_groups; ++gi)
            enables[static_cast<std::size_t>(t) * capture.num_groups + gi] =
                pos(s.new_var());
    }

    std::vector<Lit> ins;
    for (std::uint32_t t = 0; t < frames; ++t) {
        for (const GateId g : topo.schedule()) {
            const std::size_t idx = static_cast<std::size_t>(t) * topo.size() + g;
            if (topo.is_input(g)) {
                lits_[idx] = pos(s.new_var());
                continue;
            }
            if (topo.is_const(g)) {
                lits_[idx] = topo.op(g) == GateOp::Const1 ? true_lit_ : ~true_lit_;
                continue;
            }
            if (topo.is_seq(g)) {
                if (t == 0) {
                    lits_[idx] = pos(s.new_var());  // free initial state
                    continue;
                }
                const Lit d = lit(topo.fanins(g)[0], t - 1);
                const std::uint32_t group = capture.group_of.empty()
                                                ? CaptureModel::kExactCapture
                                                : capture.group_of[seq_index[g]];
                if (group == CaptureModel::kExactCapture) {
                    lits_[idx] = d;
                } else {
                    // May or may not tick this boundary: v = e ? d : prev.
                    const Lit v = pos(s.new_var());
                    const Lit e =
                        enables[static_cast<std::size_t>(t) * capture.num_groups + group];
                    const Lit prev = lit(g, t - 1);
                    s.add_clause({~e, ~d, v});
                    s.add_clause({~e, d, ~v});
                    s.add_clause({e, ~prev, v});
                    s.add_clause({e, prev, ~v});
                    lits_[idx] = v;
                }
                continue;
            }
            // Combinational operator.
            const auto fanins = topo.fanins(g);
            ins.clear();
            for (const GateId fi : fanins) ins.push_back(lit(fi, t));
            switch (topo.op(g)) {
                case GateOp::Buf: lits_[idx] = ins[0]; break;
                case GateOp::Not: lits_[idx] = ~ins[0]; break;
                case GateOp::And:
                case GateOp::Nand: {
                    const Lit v = pos(s.new_var());
                    emit_and(s, topo.op(g) == GateOp::And ? v : ~v, ins);
                    lits_[idx] = v;
                    break;
                }
                case GateOp::Or:
                case GateOp::Nor: {
                    const Lit v = pos(s.new_var());
                    emit_or(s, topo.op(g) == GateOp::Or ? v : ~v, ins);
                    lits_[idx] = v;
                    break;
                }
                case GateOp::Xor:
                case GateOp::Xnor: {
                    Lit acc = ins[0];
                    for (std::size_t k = 1; k < ins.size(); ++k) {
                        const Lit step = pos(s.new_var());
                        emit_xor2(s, step, acc, ins[k]);
                        acc = step;
                    }
                    lits_[idx] = topo.op(g) == GateOp::Xor ? acc : ~acc;
                    break;
                }
                case GateOp::Const0: lits_[idx] = ~true_lit_; break;
                case GateOp::Const1: lits_[idx] = true_lit_; break;
            }
        }

        // Seed learned facts for this frame (each proven for the real
        // machine, so asserting it only removes impossible executions).
        if (seeds.ties != nullptr) {
            for (GateId g = 0; g < topo.size(); ++g) {
                const Val3 v = seeds.ties->value(g);
                if (v == Val3::X || t < seeds.ties->cycle(g)) continue;
                s.add_clause({lit(g, t, v == Val3::One)});
            }
        }
        if (seeds.equivalences != nullptr && !seeds.equivalences->rep.empty()) {
            for (GateId g = 0; g < topo.size(); ++g) {
                const GateId rep = seeds.equivalences->rep[g];
                if (rep == netlist::kNoGate || rep == g) continue;
                emit_equal(s, lit(g, t),
                           lit(rep, t, !seeds.equivalences->inverted[g]));
            }
        }
    }
    if (seeds.db != nullptr) {
        for (const core::Relation& r : seeds.db->relations()) {
            for (std::uint32_t t = r.frame; t < frames; ++t) {
                s.add_clause({~lit(r.lhs.gate, t, r.lhs.value == Val3::One),
                              lit(r.rhs.gate, t, r.rhs.value == Val3::One)});
            }
        }
    }
}

// ---------------------------------------------------------------------------
// FaultMiter

FaultMiter::FaultMiter(const netlist::Topology& topo, Solver& solver)
    : topo_(&topo), solver_(&solver) {}

FaultMiter::Rails FaultMiter::fresh_rails() {
    return {pos(solver_->new_var()), pos(solver_->new_var())};
}

// Dual-rail Kleene encoding of one combinational operator: monotone clauses
// on the is-one / is-zero rails, exactly logic::eval_op_indirect's algebra.
FaultMiter::Rails FaultMiter::comb_rails(GateOp op, const std::vector<Rails>& ins) {
    Solver& s = *solver_;
    std::vector<Lit> ones, zeros;
    ones.reserve(ins.size());
    zeros.reserve(ins.size());
    for (const Rails& r : ins) {
        ones.push_back(r.one);
        zeros.push_back(r.zero);
    }
    auto and_of = [&](std::span<const Lit> lits) {
        if (lits.size() == 1) return lits[0];
        const Lit v = pos(s.new_var());
        emit_and(s, v, lits);
        return v;
    };
    auto or_of = [&](std::span<const Lit> lits) {
        if (lits.size() == 1) return lits[0];
        const Lit v = pos(s.new_var());
        emit_or(s, v, lits);
        return v;
    };
    switch (op) {
        case GateOp::Buf: return ins[0];
        case GateOp::Not: return {ins[0].zero, ins[0].one};
        case GateOp::And: return {and_of(ones), or_of(zeros)};
        case GateOp::Nand: return {or_of(zeros), and_of(ones)};
        case GateOp::Or: return {or_of(ones), and_of(zeros)};
        case GateOp::Nor: return {and_of(zeros), or_of(ones)};
        case GateOp::Xor:
        case GateOp::Xnor: {
            Rails acc = ins[0];
            for (std::size_t k = 1; k < ins.size(); ++k) {
                const Rails b = ins[k];
                const Lit p_and_n = and_of(std::initializer_list<Lit>{acc.one, b.zero});
                const Lit n_and_p = and_of(std::initializer_list<Lit>{acc.zero, b.one});
                const Lit p_and_p = and_of(std::initializer_list<Lit>{acc.one, b.one});
                const Lit n_and_n = and_of(std::initializer_list<Lit>{acc.zero, b.zero});
                const Lit one = pos(s.new_var());
                const Lit zero = pos(s.new_var());
                emit_or(s, one, std::initializer_list<Lit>{p_and_n, n_and_p});
                emit_or(s, zero, std::initializer_list<Lit>{p_and_p, n_and_n});
                acc = {one, zero};
            }
            if (op == GateOp::Xnor) return {acc.zero, acc.one};
            return acc;
        }
        case GateOp::Const0: return {~true_lit_, true_lit_};
        case GateOp::Const1: return {true_lit_, ~true_lit_};
    }
    return {~true_lit_, ~true_lit_};
}

bool FaultMiter::encode(const fault::Fault& f, std::uint32_t frames,
                        const core::TieSet* ties) {
    if (frames == 0) throw std::invalid_argument("FaultMiter: frames must be >= 1");
    const netlist::Topology& topo = *topo_;
    Solver& s = *solver_;
    frames_ = frames;

    // Fault cone: forward reachability from the fault site through both
    // combinational and sequential sinks (same closure FaultSimulator marks).
    in_cone_.assign(topo.size(), 0);
    for (const GateId g : topo.forward_cone(f.gate)) in_cone_[g] = 1;
    bool observable = false;
    for (const GateId o : topo.outputs()) observable |= in_cone_[o] != 0;
    if (!observable) return false;

    true_lit_ = pos(s.new_var());
    s.add_clause({true_lit_});
    const Lit false_lit = ~true_lit_;
    const Rails x_rails{false_lit, false_lit};
    const Rails stuck_rails = f.stuck == Val3::One ? Rails{true_lit_, false_lit}
                                                  : Rails{false_lit, true_lit_};

    const std::size_t n = topo.size();
    good_one_.assign(static_cast<std::size_t>(frames) * n, false_lit);
    good_zero_.assign(static_cast<std::size_t>(frames) * n, false_lit);
    faulty_one_.assign(static_cast<std::size_t>(frames) * n, false_lit);
    faulty_zero_.assign(static_cast<std::size_t>(frames) * n, false_lit);
    input_lits_.assign(static_cast<std::size_t>(frames) * topo.inputs().size(), Lit{});

    std::vector<std::uint32_t> input_index(n, 0);
    const auto inputs = topo.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i)
        input_index[inputs[i]] = static_cast<std::uint32_t>(i);

    std::vector<Lit> detect_terms;
    std::vector<Rails> ins;

    auto set_good = [&](GateId g, std::uint32_t t, Rails r) {
        const std::size_t k = static_cast<std::size_t>(t) * n + g;
        good_one_[k] = r.one;
        good_zero_[k] = r.zero;
    };
    auto set_faulty = [&](GateId g, std::uint32_t t, Rails r) {
        const std::size_t k = static_cast<std::size_t>(t) * n + g;
        faulty_one_[k] = r.one;
        faulty_zero_[k] = r.zero;
    };
    auto faulty_rails = [&](GateId g, std::uint32_t t) -> Rails {
        const std::size_t k = static_cast<std::size_t>(t) * n + g;
        return {faulty_one_[k], faulty_zero_[k]};
    };
    auto tied_const = [&](GateId g, std::uint32_t t) -> const Rails* {
        static Rails one_rails, zero_rails;
        if (ties == nullptr) return nullptr;
        const Val3 v = ties->value(g);
        if (v == Val3::X || t < ties->cycle(g)) return nullptr;
        one_rails = {true_lit_, false_lit};
        zero_rails = {false_lit, true_lit_};
        return v == Val3::One ? &one_rails : &zero_rails;
    };
    const bool out_fault = f.pin == fault::kOutputPin;

    for (std::uint32_t t = 0; t < frames; ++t) {
        for (const GateId g : topo.schedule()) {
            // Good machine (never forced; ties applied like FaultSimulator's
            // lane 0: the tied value wins at frames >= its proof cycle).
            Rails good;
            if (topo.is_input(g)) {
                const Lit b = pos(s.new_var());
                input_lits_[static_cast<std::size_t>(t) * inputs.size() +
                            input_index[g]] = b;
                good = {b, ~b};
            } else if (const Rails* tc = tied_const(g, t); tc != nullptr &&
                                                           !topo.is_input(g)) {
                good = *tc;
            } else if (topo.is_const(g)) {
                good = topo.op(g) == GateOp::Const1 ? Rails{true_lit_, false_lit}
                                                    : Rails{false_lit, true_lit_};
            } else if (topo.is_seq(g)) {
                good = t == 0 ? x_rails : good_rails(topo.fanins(g)[0], t - 1);
            } else {
                ins.clear();
                for (const GateId fi : topo.fanins(g)) ins.push_back(good_rails(fi, t));
                good = comb_rails(topo.op(g), ins);
            }
            set_good(g, t, good);

            // Faulty machine: copies only inside the cone; outside, the two
            // machines agree line for line.
            if (in_cone_[g] == 0) {
                set_faulty(g, t, good);
                continue;
            }
            if (g == f.gate && out_fault) {
                set_faulty(g, t, stuck_rails);
                continue;
            }
            if (topo.is_input(g) || topo.is_const(g)) {
                set_faulty(g, t, good);
                continue;
            }
            if (topo.is_seq(g)) {
                if (t == 0) {
                    set_faulty(g, t, x_rails);
                } else if (g == f.gate) {  // pin fault on the data input
                    set_faulty(g, t, stuck_rails);
                } else {
                    set_faulty(g, t, faulty_rails(topo.fanins(g)[0], t - 1));
                }
                continue;
            }
            ins.clear();
            const auto fanins = topo.fanins(g);
            for (std::size_t k = 0; k < fanins.size(); ++k) {
                if (g == f.gate && static_cast<std::int32_t>(k) == f.pin)
                    ins.push_back(stuck_rails);
                else
                    ins.push_back(faulty_rails(fanins[k], t));
            }
            set_faulty(g, t, comb_rails(topo.op(g), ins));
        }

        // Detection terms: a cone PO binary in both machines with differing
        // values in some frame.
        for (const GateId o : topo.outputs()) {
            if (in_cone_[o] == 0) continue;
            const Rails g_r = good_rails(o, t);
            const Rails f_r = faulty_rails(o, t);
            const Lit d10 = pos(s.new_var());  // good 1, faulty 0
            s.add_clause({~d10, g_r.one});
            s.add_clause({~d10, f_r.zero});
            detect_terms.push_back(d10);
            const Lit d01 = pos(s.new_var());  // good 0, faulty 1
            s.add_clause({~d01, g_r.zero});
            s.add_clause({~d01, f_r.one});
            detect_terms.push_back(d01);
        }
    }
    s.add_clause(detect_terms);
    return true;
}

sim::InputSequence FaultMiter::witness(const Solver& solver) const {
    const std::size_t num_inputs = topo_->inputs().size();
    sim::InputSequence seq(frames_, sim::InputFrame(num_inputs, Val3::X));
    for (std::uint32_t t = 0; t < frames_; ++t) {
        for (std::size_t i = 0; i < num_inputs; ++i) {
            const Lit b = input_lits_[static_cast<std::size_t>(t) * num_inputs + i];
            const bool v = solver.model_value(b.var()) != b.neg();
            seq[t][i] = v ? Val3::One : Val3::Zero;
        }
    }
    return seq;
}

}  // namespace seqlearn::cnf
