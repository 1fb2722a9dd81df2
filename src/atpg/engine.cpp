#include "atpg/engine.hpp"

#include <algorithm>

namespace seqlearn::atpg {

std::string_view mode_name(LearnMode m) {
    return m == LearnMode::None ? "none" : m == LearnMode::KnownValue ? "known" : "forbidden";
}

namespace {

using logic::GateOp;
using logic::Val3;
using netlist::GateType;
using netlist::Topology;

constexpr int kGood = 0;
constexpr int kFaulty = 1;

// All per-solve state lives here; only the CSR topology outlives a solve.
struct Search {
    const Topology& topo;
    Ila ila;
    fault::Fault fault;
    EngineConfig cfg;

    // The faulted line's driver (== fault.gate for output faults).
    GateId fault_line;
    std::vector<bool> cone;  // gate -> may differ between planes

    // Per plane, per cell values. Values only move X -> binary on a branch.
    std::vector<Val3> plane[2];
    // Facts pre-asserted before search (ties, stuck plane): never need
    // justification and survive rollbacks (trail starts after them).
    std::vector<bool> exempt[2];
    // Forbidden values on the good plane: bit0 = cannot be 0, bit1 = 1.
    std::vector<std::uint8_t> forbid;

    struct TrailEntry {
        Cell cell;
        std::uint8_t plane;  // 0/1, or 2 for a forbid-bit entry
        std::uint8_t forbid_bit;
    };
    std::vector<TrailEntry> trail;

    // Worklist of (cell, plane) whose value changed; justification queue.
    std::vector<std::pair<Cell, std::uint8_t>> work;
    std::vector<std::pair<Cell, std::uint8_t>> justify;
    std::vector<std::pair<Cell, std::uint8_t>> forbid_work;

    bool conflict = false;
    std::uint32_t backtracks = 0;
    std::uint32_t decisions = 0;

    // True when the faulty plane of fault.gate is pinned by the fault
    // itself: an output fault anywhere, or a data-pin fault on a sequential
    // element (whose captures are all stuck from frame 1 on).
    bool site_output_pinned = false;
    bool site_seq_data_pinned = false;

    Search(const Topology& topology, const fault::Fault& f, std::uint32_t frames,
           const EngineConfig& config)
        : topo(topology), ila(topology, frames), fault(f), cfg(config) {
        fault_line = fault::line_driver(topo, f);
        cone = fault_cone_mask(topo, f);
        site_output_pinned = f.pin == fault::kOutputPin;
        site_seq_data_pinned = f.pin == 0 && topo.is_seq(f.gate);
        const std::size_t cells = ila.num_cells();
        plane[0].assign(cells, Val3::X);
        plane[1].assign(cells, Val3::X);
        exempt[0].assign(cells, false);
        exempt[1].assign(cells, false);
        forbid.assign(cells, 0);
    }

    // ----- basic accessors ------------------------------------------------

    Val3 value(Cell c, int p) const { return plane[p][c]; }

    bool is_const(GateId g) const { return topo.is_const(g); }

    // The value gate `g` sees on input pin `pin` in plane `p` at `frame`:
    // pin faults override the faulty plane.
    Val3 input_value(std::uint32_t frame, GateId g, std::size_t pin, int p) const {
        if (p == kFaulty && fault.pin != fault::kOutputPin && g == fault.gate &&
            pin == static_cast<std::size_t>(fault.pin)) {
            return fault.stuck;
        }
        return plane[p][ila.cell(frame, topo.fanins(g)[pin])];
    }

    Val3 eval_plane(std::uint32_t frame, GateId g, int p) const {
        const GateType t = topo.type(g);
        if (t == GateType::Const0) return Val3::Zero;
        if (t == GateType::Const1) return Val3::One;
        if (topo.is_input(g) || topo.is_seq(g)) return Val3::X;
        std::array<Val3, 2> small;
        const std::size_t n = topo.fanins(g).size();
        if (n <= 2) {
            for (std::size_t i = 0; i < n; ++i) small[i] = input_value(frame, g, i, p);
            return logic::eval_op(topo.op(g), std::span<const Val3>(small.data(), n));
        }
        std::vector<Val3> ins(n);
        for (std::size_t i = 0; i < n; ++i) ins[i] = input_value(frame, g, i, p);
        return logic::eval_op(topo.op(g), ins);
    }

    // ----- assignment with trail -------------------------------------------

    // Set plane `p` of `c` to binary `v`. Returns false on conflict.
    bool set_plane(Cell c, int p, Val3 v) {
        if (conflict) return false;
        const Val3 cur = plane[p][c];
        if (cur == v) return true;
        if (cur != Val3::X) {
            conflict = true;
            return false;
        }
        const GateId g = ila.gate_of(c);
        const std::uint32_t frame = ila.frame_of(c);
        // Unknown initial state: frame-0 sequential outputs stay X.
        const bool is_ppi = frame == 0 && topo.is_seq(g);
        if (is_ppi && !cfg.redundancy_proof) {
            conflict = true;
            return false;
        }
        if (p == kGood && (forbid[c] & (v == Val3::One ? 2 : 1))) {
            conflict = true;
            return false;
        }
        plane[p][c] = v;
        trail.push_back({c, static_cast<std::uint8_t>(p), 0});
        work.push_back({c, static_cast<std::uint8_t>(p)});
        justify.push_back({c, static_cast<std::uint8_t>(p)});
        // Outside the fault cone the two machines agree line-for-line. Free
        // PPIs are shared power-up state, equal in both machines even inside
        // the cone — except a fault-pinned site output, which stays pinned.
        const bool share_ppi =
            is_ppi && cfg.redundancy_proof && !(g == fault.gate && site_output_pinned);
        if (!cone[g] || share_ppi) {
            const int q = 1 - p;
            if (plane[q][c] == Val3::X) {
                plane[q][c] = v;
                trail.push_back({c, static_cast<std::uint8_t>(q), 0});
                work.push_back({c, static_cast<std::uint8_t>(q)});
            } else if (plane[q][c] != v) {
                conflict = true;
                return false;
            }
        }
        if (p == kGood) apply_learned(c, v);
        return !conflict;
    }

    void add_forbid(Cell c, Val3 v) {
        if (conflict) return;
        const std::uint8_t bit = v == Val3::One ? 2 : 1;
        if (forbid[c] & bit) return;
        if (plane[kGood][c] == v) {  // already assigned the forbidden value
            conflict = true;
            return;
        }
        forbid[c] |= bit;
        trail.push_back({c, 2, bit});
        forbid_work.push_back({c, bit});
    }

    // Effective good-plane value for forbid propagation: a real binary value,
    // or the value implied by a single-sided forbid, else X.
    Val3 effective(Cell c) const {
        const Val3 v = plane[kGood][c];
        if (v != Val3::X) return v;
        const std::uint8_t f = forbid[c];
        if (f == 1) return Val3::One;   // cannot be 0
        if (f == 2) return Val3::Zero;  // cannot be 1
        return Val3::X;
    }

    void apply_learned(Cell c, Val3 v) {
        if (cfg.mode == LearnMode::None || cfg.db == nullptr) return;
        const GateId g = ila.gate_of(c);
        const std::uint32_t frame = ila.frame_of(c);
        for (const core::ImplicationDB::Edge& e : cfg.db->edges_of({g, v})) {
            // A relation proven at frame t needs t predecessor frames.
            if (e.frame > frame) continue;
            const Cell mc = ila.cell(frame, e.to.gate);
            if (cfg.mode == LearnMode::KnownValue) {
                if (!set_plane(mc, kGood, e.to.value)) return;
            } else {
                add_forbid(mc, logic::v3_not(e.to.value));
                if (conflict) return;
            }
        }
    }

    // ----- implication fixpoint --------------------------------------------

    // Backward implication on gate `g`'s own inputs in plane `p`, given its
    // binary output value.
    void backward(std::uint32_t frame, GateId g, int p) {
        const Cell c = ila.cell(frame, g);
        const Val3 out = plane[p][c];
        if (out == Val3::X) return;
        // A pinned faulty plane (stuck output, or an FF fed through a stuck
        // data pin) places no requirement on the gate's inputs.
        if (p == kFaulty && g == fault.gate &&
            (site_output_pinned || site_seq_data_pinned)) {
            return;
        }
        if (topo.is_seq(g)) {
            if (frame == 0) return;  // guarded at set_plane already
            // FF output at k equals its (first-port) data value at k-1.
            set_plane(ila.cell(frame - 1, topo.fanins(g)[0]), p, out);
            return;
        }
        if (topo.is_input(g) || is_const(g)) return;

        const GateOp op = topo.op(g);
        const std::size_t n = topo.fanins(g).size();
        auto skip_pin = [&](std::size_t pin) {
            return p == kFaulty && fault.pin != fault::kOutputPin && g == fault.gate &&
                   pin == static_cast<std::size_t>(fault.pin);
        };
        if (op == GateOp::Buf || op == GateOp::Not) {
            if (!skip_pin(0)) {
                set_plane(ila.cell(frame, topo.fanins(g)[0]), p,
                          op == GateOp::Not ? logic::v3_not(out) : out);
            }
            return;
        }
        const Val3 ctrl = logic::controlling_value(op);
        if (ctrl != Val3::X) {
            const Val3 nco = logic::noncontrolled_output(op);
            if (out == nco) {
                // Every input must carry the noncontrolling value.
                for (std::size_t i = 0; i < n; ++i) {
                    if (skip_pin(i)) continue;
                    if (!set_plane(ila.cell(frame, topo.fanins(g)[i]), p, logic::v3_not(ctrl)))
                        return;
                }
            } else {
                // Controlled output: if exactly one input is still X it must
                // carry the controlling value.
                std::size_t unknown = n;
                for (std::size_t i = 0; i < n; ++i) {
                    const Val3 iv = input_value(frame, g, i, p);
                    if (iv == ctrl) return;  // already justified
                    if (iv == Val3::X) {
                        if (unknown != n) return;  // two unknowns: no implication
                        unknown = i;
                    }
                }
                if (unknown != n && !skip_pin(unknown)) {
                    set_plane(ila.cell(frame, topo.fanins(g)[unknown]), p, ctrl);
                }
            }
            return;
        }
        // XOR/XNOR: with all inputs but one known, the last is determined.
        std::size_t unknown = n;
        Val3 acc = Val3::Zero;
        for (std::size_t i = 0; i < n; ++i) {
            const Val3 iv = input_value(frame, g, i, p);
            if (iv == Val3::X) {
                if (unknown != n) return;
                unknown = i;
            } else {
                acc = logic::v3_xor(acc, iv);
            }
        }
        if (unknown == n) return;
        if (skip_pin(unknown)) return;
        Val3 need = logic::v3_xor(out, acc);
        if (op == GateOp::Xnor) need = logic::v3_not(need);
        set_plane(ila.cell(frame, topo.fanins(g)[unknown]), p, need);
    }

    // Re-evaluate gate `g` at `frame` in plane `p` and merge the result.
    void forward_eval(std::uint32_t frame, GateId g, int p) {
        // The faulty plane of an output-fault site is pinned to the stuck
        // value; evaluation never overrides it.
        if (p == kFaulty && fault.pin == fault::kOutputPin && g == fault.gate) return;
        const Val3 v = eval_plane(frame, g, p);
        if (v != Val3::X) set_plane(ila.cell(frame, g), p, v);
    }

    bool imply() {
        while (!conflict && (!work.empty() || !forbid_work.empty())) {
            while (!work.empty() && !conflict) {
                const auto [c, p] = work.back();
                work.pop_back();
                const GateId g = ila.gate_of(c);
                const std::uint32_t frame = ila.frame_of(c);
                // Forward into same-frame consumers, and their backward
                // rules (a new input value can complete a unique choice).
                for (const GateId h : topo.fanouts(g)) {
                    if (topo.is_seq(h)) {
                        // A fault-pinned sequential output ignores its data.
                        const bool pinned_site =
                            p == kFaulty && h == fault.gate &&
                            (site_output_pinned || site_seq_data_pinned);
                        if (!pinned_site && topo.fanins(h)[0] == g && frame + 1 < ila.frames) {
                            set_plane(ila.cell(frame + 1, h), p, plane[p][c]);
                        }
                        continue;
                    }
                    forward_eval(frame, h, p);
                    backward(frame, h, p);
                    if (conflict) return false;
                }
                // This gate's own backward rule.
                backward(frame, g, p);
                if (conflict) return false;
                // Forbidden values cross frames and gates too.
                if (cfg.mode == LearnMode::ForbiddenValue && p == kGood)
                    forbid_work.push_back({c, 0});
            }
            while (!forbid_work.empty() && !conflict) {
                const auto [c, bit] = forbid_work.back();
                forbid_work.pop_back();
                propagate_forbid(c);
            }
        }
        return !conflict;
    }

    // Derive further forbidden values around cell `c` using effective values
    // (real assignments or single-sided forbids). Sound by Kleene
    // monotonicity: substituting forbidden-v as !v, a binary evaluation
    // result b means the real value can never be !b.
    void propagate_forbid(Cell c) {
        const GateId g = ila.gate_of(c);
        const std::uint32_t frame = ila.frame_of(c);
        // Forward: consumers of g (and the FF link).
        for (const GateId h : topo.fanouts(g)) {
            if (topo.is_seq(h)) {
                if (topo.fanins(h)[0] == g && frame + 1 < ila.frames) {
                    mirror_forbid(c, ila.cell(frame + 1, h));
                }
                continue;
            }
            forbid_eval(frame, h);
            forbid_backward(frame, h);
            if (conflict) return;
        }
        // Cross-frame backward: an FF's forbids push onto its D input.
        if (topo.is_seq(g) && frame > 0) {
            mirror_forbid(c, ila.cell(frame - 1, topo.fanins(g)[0]));
        }
        forbid_backward(frame, g);
    }

    void mirror_forbid(Cell from, Cell to) {
        const std::uint8_t f = forbid[from];
        if (f & 1) add_forbid(to, Val3::Zero);
        if (f & 2) add_forbid(to, Val3::One);
    }

    void forbid_eval(std::uint32_t frame, GateId h) {
        if (!topo.is_comb(h)) return;
        const Cell hc = ila.cell(frame, h);
        if (plane[kGood][hc] != Val3::X) return;
        const std::size_t n = topo.fanins(h).size();
        std::vector<Val3> ins(n);
        bool any_forbid_based = false;
        for (std::size_t i = 0; i < n; ++i) {
            const Cell ic = ila.cell(frame, topo.fanins(h)[i]);
            ins[i] = effective(ic);
            if (plane[kGood][ic] == Val3::X && ins[i] != Val3::X) any_forbid_based = true;
        }
        if (!any_forbid_based) return;  // plain values are handled by imply()
        const Val3 v = logic::eval_op(topo.op(h), ins);
        if (v != Val3::X) add_forbid(hc, logic::v3_not(v));
    }

    void forbid_backward(std::uint32_t frame, GateId h) {
        if (!topo.is_comb(h)) return;
        const Cell hc = ila.cell(frame, h);
        const Val3 out = effective(hc);
        if (out == Val3::X) return;
        const GateOp op = topo.op(h);
        if (op == GateOp::Buf || op == GateOp::Not) {
            const Val3 need = op == GateOp::Not ? logic::v3_not(out) : out;
            add_forbid(ila.cell(frame, topo.fanins(h)[0]), logic::v3_not(need));
            return;
        }
        const Val3 ctrl = logic::controlling_value(op);
        if (ctrl == Val3::X) return;
        const Val3 controlled_out =
            logic::output_inverted(op) ? logic::v3_not(ctrl) : ctrl;
        if (out != controlled_out) {
            // Output holds (or must hold) the noncontrolled value: no input
            // may take the controlling value.
            for (const GateId f : topo.fanins(h)) add_forbid(ila.cell(frame, f), ctrl);
        }
    }

    // ----- facts: ties and the pinned faulty plane -------------------------

    bool assert_facts() {
        if (site_output_pinned) {
            for (std::uint32_t k = 0; k < ila.frames; ++k) {
                const Cell c = ila.cell(k, fault.gate);
                plane[kFaulty][c] = fault.stuck;
                exempt[kFaulty][c] = true;
                work.push_back({c, kFaulty});
            }
        } else if (site_seq_data_pinned) {
            // The element captures the stuck value at every boundary; only
            // its frame-0 (power-up) value stays unknown.
            for (std::uint32_t k = 1; k < ila.frames; ++k) {
                const Cell c = ila.cell(k, fault.gate);
                plane[kFaulty][c] = fault.stuck;
                exempt[kFaulty][c] = true;
                work.push_back({c, kFaulty});
            }
        }
        if (cfg.ties != nullptr) {
            for (const GateId g : cfg.ties->tied_gates()) {
                const Val3 v = cfg.ties->value(g);
                for (std::uint32_t k = cfg.ties->cycle(g); k < ila.frames; ++k) {
                    const Cell c = ila.cell(k, g);
                    if (plane[kGood][c] == Val3::X) {
                        plane[kGood][c] = v;
                        exempt[kGood][c] = true;
                        work.push_back({c, kGood});
                    }
                    // Outside the cone the faulty machine shares the tie.
                    if (!cone[g] && plane[kFaulty][c] == Val3::X) {
                        plane[kFaulty][c] = v;
                        exempt[kFaulty][c] = true;
                        work.push_back({c, kFaulty});
                    }
                }
            }
        }
        return imply();
    }

    // ----- observation and frontiers ---------------------------------------

    bool effect_at(Cell c) const {
        const Val3 g = plane[kGood][c];
        const Val3 f = plane[kFaulty][c];
        return g != Val3::X && f != Val3::X && g != f;
    }

    bool observed() const {
        for (std::uint32_t k = 0; k < ila.frames; ++k) {
            for (const GateId o : topo.outputs()) {
                if (effect_at(ila.cell(k, o))) return true;
            }
        }
        if (cfg.redundancy_proof) {
            const std::uint32_t k = ila.frames - 1;
            for (const GateId ff : topo.seq_elements()) {
                if (effect_at(ila.cell(k, topo.fanins(ff)[0]))) return true;
            }
            // A data-pin fault on a sequential element creates its effect at
            // the capture itself: the faulty machine latches the stuck value
            // while the good machine latches the driver's value.
            if (site_seq_data_pinned) {
                const Val3 good = plane[kGood][ila.cell(k, fault_line)];
                if (good != Val3::X && good != fault.stuck) return true;
            }
        }
        return false;
    }

    bool is_justified(Cell c, int p) const {
        if (exempt[p][c]) return true;
        const GateId g = ila.gate_of(c);
        const std::uint32_t frame = ila.frame_of(c);
        if (topo.is_input(g) || is_const(g)) return true;
        if (topo.is_seq(g)) {
            if (frame == 0) return true;  // free in a redundancy proof, else unreachable
            return plane[p][ila.cell(frame - 1, topo.fanins(g)[0])] == plane[p][c];
        }
        return eval_plane(frame, g, p) == plane[p][c];
    }

    // Gates on the D-frontier: output not a full fault effect, at least one
    // input carrying one. Scanned over cone gates only.
    void d_frontier(std::vector<Cell>& out) const {
        out.clear();
        for (std::uint32_t k = 0; k < ila.frames; ++k) {
            for (GateId g = 0; g < topo.size(); ++g) {
                if (!cone[g]) continue;
                if (!topo.is_comb(g)) {
                    // A sequential element forwards effects by itself.
                    continue;
                }
                const Cell c = ila.cell(k, g);
                if (plane[kFaulty][c] != Val3::X && plane[kGood][c] != Val3::X) continue;
                bool has_effect_input = false;
                bool blocked = false;
                const GateOp op = topo.op(g);
                const Val3 ctrl = logic::controlling_value(op);
                for (std::size_t i = 0; i < topo.fanins(g).size(); ++i) {
                    const Val3 gv = input_value(k, g, i, kGood);
                    const Val3 fv = input_value(k, g, i, kFaulty);
                    if (gv != Val3::X && fv != Val3::X && gv != fv) {
                        has_effect_input = true;
                    } else if (ctrl != Val3::X && gv == ctrl && fv == ctrl) {
                        blocked = true;  // controlled in both machines
                    }
                }
                if (has_effect_input && !blocked) out.push_back(c);
            }
        }
    }

    // ----- search ----------------------------------------------------------

    struct Alternative {
        enum class Kind : std::uint8_t { Activate, Assign, Propagate } kind;
        Cell cell = 0;       // Assign: the input cell; Propagate: the gate cell
        std::uint8_t p = 0;  // Assign: plane
        Val3 v = Val3::X;    // Activate/Assign value
        std::uint32_t frame = 0;  // Activate
    };

    struct Decision {
        std::size_t trail_mark;
        std::vector<Alternative> alts;
        std::size_t next = 0;
        // Obligation to re-check after applying an alternative.
        Cell recheck_cell = 0;
        std::uint8_t recheck_plane = 0;
        bool has_recheck = false;
    };
    std::vector<Decision> stack;

    void rollback(std::size_t mark) {
        while (trail.size() > mark) {
            const TrailEntry e = trail.back();
            trail.pop_back();
            if (e.plane == 2) forbid[e.cell] &= static_cast<std::uint8_t>(~e.forbid_bit);
            else plane[e.plane][e.cell] = Val3::X;
        }
        work.clear();
        forbid_work.clear();
        conflict = false;
    }

    bool apply(const Alternative& a) {
        switch (a.kind) {
            case Alternative::Kind::Activate:
                return set_plane(ila.cell(a.frame, fault_line), kGood,
                                 logic::v3_not(fault.stuck)) &&
                       imply();
            case Alternative::Kind::Assign:
                return set_plane(a.cell, a.p, a.v) && imply();
            case Alternative::Kind::Propagate: {
                const GateId g = ila.gate_of(a.cell);
                const std::uint32_t k = ila.frame_of(a.cell);
                const GateOp op = topo.op(g);
                const Val3 ctrl = logic::controlling_value(op);
                const Val3 side = ctrl != Val3::X ? logic::v3_not(ctrl) : Val3::Zero;
                bool assigned_any = false;
                for (std::size_t i = 0; i < topo.fanins(g).size(); ++i) {
                    const Val3 gv = input_value(k, g, i, kGood);
                    const Val3 fv = input_value(k, g, i, kFaulty);
                    if (gv != Val3::X && fv != Val3::X && gv != fv) continue;  // the effect
                    const Cell ic = ila.cell(k, topo.fanins(g)[i]);
                    if (gv == Val3::X) {
                        if (!set_plane(ic, kGood, side)) return false;
                        assigned_any = true;
                    }
                    if (fv == Val3::X && cone[topo.fanins(g)[i]]) {
                        if (!set_plane(ic, kFaulty, side)) return false;
                        assigned_any = true;
                    }
                }
                // A no-op propagation makes no progress; treating it as
                // success would recreate the same D-frontier decision
                // forever.
                if (!assigned_any) return false;
                return imply();
            }
        }
        return false;
    }

    // Collect justification alternatives for an unjustified (cell, plane).
    // Returns false when the obligation is impossible (conflict).
    bool justification_alts(Cell c, int p, std::vector<Alternative>& alts) {
        alts.clear();
        const GateId g = ila.gate_of(c);
        const std::uint32_t frame = ila.frame_of(c);
        const GateOp op = netlist::to_op(topo.type(g));
        const Val3 out = plane[p][c];
        const Val3 ctrl = logic::controlling_value(op);
        auto pin_cell = [&](std::size_t i) { return ila.cell(frame, topo.fanins(g)[i]); };
        auto pin_skipped = [&](std::size_t i) {
            return p == kFaulty && fault.pin != fault::kOutputPin && g == fault.gate &&
                   i == static_cast<std::size_t>(fault.pin);
        };
        if (ctrl != Val3::X) {
            const Val3 nco = logic::noncontrolled_output(op);
            if (out == nco) return true;  // backward imply handles it fully
            // Controlled output: some input must take the controlling value.
            std::vector<Alternative> preferred;
            for (std::size_t i = 0; i < topo.fanins(g).size(); ++i) {
                if (pin_skipped(i)) continue;
                if (input_value(frame, g, i, p) != Val3::X) continue;
                Alternative a{Alternative::Kind::Assign, pin_cell(i),
                              static_cast<std::uint8_t>(p), ctrl, 0};
                // Forbidden-value guidance (paper Section 4): prefer the
                // input whose noncontrolling value is forbidden; skip inputs
                // whose controlling value is forbidden.
                const std::uint8_t fb = forbid[pin_cell(i)];
                const std::uint8_t ctrl_bit = ctrl == Val3::One ? 2 : 1;
                if (p == kGood && (fb & ctrl_bit)) continue;
                const std::uint8_t nc_bit = ctrl == Val3::One ? 1 : 2;
                if (p == kGood && (fb & nc_bit)) preferred.push_back(a);
                else alts.push_back(a);
            }
            if (cfg.guide != nullptr) {
                // SCOAP backtrace: cheapest-to-control fanin first. The
                // forbidden-value preference partition is preserved — the
                // sort only reorders within each tier (stable, so unguided
                // ties keep the structural scan order).
                auto by_cc = [&](const Alternative& x, const Alternative& y) {
                    return cfg.guide->controllability(ila.gate_of(x.cell), ctrl) <
                           cfg.guide->controllability(ila.gate_of(y.cell), ctrl);
                };
                std::stable_sort(preferred.begin(), preferred.end(), by_cc);
                std::stable_sort(alts.begin(), alts.end(), by_cc);
            }
            alts.insert(alts.begin(), preferred.begin(), preferred.end());
            return !alts.empty();
        }
        // XOR-like: branch on the first unknown input's polarity (cheapest
        // controllability first when guided).
        for (std::size_t i = 0; i < topo.fanins(g).size(); ++i) {
            if (pin_skipped(i)) continue;
            if (input_value(frame, g, i, p) != Val3::X) continue;
            Val3 first = Val3::Zero;
            if (cfg.guide != nullptr) {
                const GateId drv = topo.fanins(g)[i];
                if (cfg.guide->cc1(drv) < cfg.guide->cc0(drv)) first = Val3::One;
            }
            alts.push_back({Alternative::Kind::Assign, pin_cell(i),
                            static_cast<std::uint8_t>(p), first, 0});
            alts.push_back({Alternative::Kind::Assign, pin_cell(i),
                            static_cast<std::uint8_t>(p), logic::v3_opposite(first), 0});
            return true;
        }
        return false;
    }

    EngineResult run() {
        EngineResult result;
        if (!assert_facts()) {
            result.status = EngineResult::Status::Exhausted;
            return result;
        }

        // Root decision: the activation frame, earliest first.
        {
            Decision d;
            d.trail_mark = trail.size();
            for (std::uint32_t k = 0; k < ila.frames; ++k) {
                // Activating on a frame-0 sequential output is impossible.
                if (k == 0 && topo.is_seq(fault_line) && !cfg.redundancy_proof)
                    continue;
                d.alts.push_back({Alternative::Kind::Activate, 0, 0, Val3::X, k});
            }
            stack.push_back(std::move(d));
        }

        std::vector<Cell> frontier;
        bool need_apply = true;

        while (true) {
            if (decisions > kMaxDecisions) {
                result.status = EngineResult::Status::Aborted;
                result.backtracks = backtracks;
                result.decisions = decisions;
                return result;
            }
            if (need_apply) {
                // Apply the next alternative of the top decision.
                Decision& d = stack.back();
                if (d.next >= d.alts.size()) {
                    if (!backtrack(result)) return result;
                    continue;
                }
                rollback(d.trail_mark);
                const Alternative& a = d.alts[d.next++];
                const bool ok = apply(a);
                if (d.has_recheck) justify.push_back({d.recheck_cell, d.recheck_plane});
                if (!ok) {
                    if (!backtrack(result)) return result;
                    continue;
                }
                need_apply = false;
            }

            // Pick the next obligation.
            bool found_obligation = false;
            while (!justify.empty()) {
                const auto [c, p] = justify.back();
                justify.pop_back();
                if (plane[p][c] == Val3::X) continue;  // rolled back
                if (is_justified(c, p)) continue;
                Decision d;
                d.trail_mark = trail.size();
                d.recheck_cell = c;
                d.recheck_plane = p;
                d.has_recheck = true;
                if (!justification_alts(c, p, d.alts)) {
                    // No way to justify: treat as conflict.
                    if (!backtrack(result)) return result;
                    need_apply = true;
                    found_obligation = true;
                    break;
                }
                if (d.alts.empty()) continue;  // fully handled by implication
                stack.push_back(std::move(d));
                ++decisions;
                need_apply = true;
                found_obligation = true;
                break;
            }
            if (found_obligation) continue;

            if (observed()) {
                // Rollbacks can strip the inputs that once justified an
                // older assignment, so re-verify everything still on the
                // trail before declaring success.
                bool all_justified = true;
                for (const TrailEntry& e : trail) {
                    if (e.plane == 2) continue;
                    if (!is_justified(e.cell, e.plane)) {
                        justify.push_back({e.cell, e.plane});
                        all_justified = false;
                    }
                }
                if (!all_justified) continue;
                result.status = EngineResult::Status::TestFound;
                result.test.assign(ila.frames,
                                   sim::InputFrame(topo.inputs().size(), Val3::X));
                for (std::uint32_t k = 0; k < ila.frames; ++k) {
                    for (std::size_t i = 0; i < topo.inputs().size(); ++i) {
                        result.test[k][i] = plane[kGood][ila.cell(k, topo.inputs()[i])];
                    }
                }
                result.backtracks = backtracks;
                result.decisions = decisions;
                return result;
            }

            if (cfg.redundancy_proof) {
                // Exhaustive fallback: branch on the first unassigned free
                // input (PI anywhere; PPI at frame 0). With all of them
                // assigned and nothing observed, this branch is dead.
                Cell pick = 0;
                bool found = false;
                for (std::uint32_t k = 0; k < ila.frames && !found; ++k) {
                    for (const GateId pi : topo.inputs()) {
                        const Cell c = ila.cell(k, pi);
                        if (plane[kGood][c] == Val3::X) {
                            pick = c;
                            found = true;
                            break;
                        }
                    }
                    if (found || k != 0) continue;
                    for (const GateId ff : topo.seq_elements()) {
                        const Cell c = ila.cell(0, ff);
                        if (plane[kGood][c] == Val3::X) {
                            pick = c;
                            found = true;
                            break;
                        }
                    }
                }
                if (!found) {
                    if (!backtrack(result)) return result;
                    need_apply = true;
                    continue;
                }
                Decision d;
                d.trail_mark = trail.size();
                d.alts.push_back({Alternative::Kind::Assign, pick, kGood, Val3::Zero, 0});
                d.alts.push_back({Alternative::Kind::Assign, pick, kGood, Val3::One, 0});
                stack.push_back(std::move(d));
                ++decisions;
                need_apply = true;
                continue;
            }

            // Propagate: branch over the D-frontier.
            d_frontier(frontier);
            if (frontier.empty()) {
                if (!backtrack(result)) return result;
                need_apply = true;
                continue;
            }
            if (cfg.guide != nullptr) {
                // SCOAP propagation: best-observable frontier gate first
                // (stable, so unguided ties keep the structural scan order).
                std::stable_sort(frontier.begin(), frontier.end(), [&](Cell x, Cell y) {
                    return cfg.guide->co(ila.gate_of(x)) < cfg.guide->co(ila.gate_of(y));
                });
            }
            Decision d;
            d.trail_mark = trail.size();
            for (const Cell c : frontier)
                d.alts.push_back({Alternative::Kind::Propagate, c, 0, Val3::X, 0});
            stack.push_back(std::move(d));
            ++decisions;
            need_apply = true;
        }
    }

    bool backtrack(EngineResult& result) {
        ++backtracks;
        if (backtracks > cfg.backtrack_limit) {
            result.status = EngineResult::Status::Aborted;
            result.backtracks = backtracks;
            result.decisions = decisions;
            return false;
        }
        while (!stack.empty() && stack.back().next >= stack.back().alts.size()) {
            rollback(stack.back().trail_mark);
            stack.pop_back();
        }
        if (stack.empty()) {
            result.status = EngineResult::Status::Exhausted;
            result.backtracks = backtracks;
            result.decisions = decisions;
            return false;
        }
        return true;
    }
};

}  // namespace

EngineResult solve(const netlist::Topology& topo, const fault::Fault& f, std::uint32_t frames,
                   const EngineConfig& cfg) {
    Search search(topo, f, frames, cfg);
    EngineResult result = search.run();
    // Count decisions also when a test was found.
    result.decisions = search.decisions;
    result.backtracks = search.backtracks;
    return result;
}

}  // namespace seqlearn::atpg
