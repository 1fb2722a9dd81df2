#include "workload/fires.hpp"

#include "logic/val3.hpp"
#include "netlist/levelize.hpp"

#include <algorithm>

namespace seqlearn::workload {

using logic::GateOp;
using logic::Val3;
using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

namespace {

// Single-frame implication box: forward evaluation plus unique backward
// implications to a fixpoint, free state (sequential outputs unassigned),
// three-valued.
class ImplyBox {
public:
    explicit ImplyBox(const Netlist& nl) : nl_(&nl), lv_(netlist::levelize(nl)) {}

    // Assert `g = v` and return all implied values (empty-on-conflict with
    // `ok=false`). Values indexed by gate; X = unknown.
    bool run(GateId g, Val3 v, std::vector<Val3>& val) {
        val.assign(nl_->size(), Val3::X);
        ok_ = true;
        // Constants are facts.
        for (GateId id = 0; id < nl_->size(); ++id) {
            if (nl_->type(id) == GateType::Const0) assign(val, id, Val3::Zero);
            if (nl_->type(id) == GateType::Const1) assign(val, id, Val3::One);
        }
        assign(val, g, v);
        while (ok_ && !work_.empty()) {
            const GateId u = work_.back();
            work_.pop_back();
            // Forward into consumers.
            for (const GateId h : nl_->fanouts(u)) {
                if (!comb(h)) continue;
                const Val3 out = eval(val, h);
                if (out != Val3::X) assign(val, h, out);
                backward(val, h);
                if (!ok_) return false;
            }
            backward(val, u);
            if (!ok_) return false;
        }
        return ok_;
    }

private:
    bool comb(GateId h) const {
        const GateType t = nl_->type(h);
        return netlist::is_combinational(t) && t != GateType::Const0 && t != GateType::Const1;
    }

    Val3 eval(const std::vector<Val3>& val, GateId h) const {
        ins_.clear();
        for (const GateId f : nl_->fanins(h)) ins_.push_back(val[f]);
        return logic::eval_op(netlist::to_op(nl_->type(h)), ins_);
    }

    void assign(std::vector<Val3>& val, GateId g, Val3 v) {
        if (val[g] == v) return;
        if (val[g] != Val3::X) {
            ok_ = false;
            return;
        }
        val[g] = v;
        work_.push_back(g);
    }

    void backward(std::vector<Val3>& val, GateId h) {
        if (!comb(h) || val[h] == Val3::X) return;
        const GateOp op = netlist::to_op(nl_->type(h));
        const auto fanins = nl_->fanins(h);
        if (op == GateOp::Buf || op == GateOp::Not) {
            assign(val, fanins[0], op == GateOp::Not ? logic::v3_not(val[h]) : val[h]);
            return;
        }
        const Val3 ctrl = logic::controlling_value(op);
        if (ctrl == Val3::X) {
            // XOR family: all-but-one known determines the last.
            std::size_t unknown = fanins.size();
            Val3 acc = Val3::Zero;
            for (std::size_t i = 0; i < fanins.size(); ++i) {
                if (val[fanins[i]] == Val3::X) {
                    if (unknown != fanins.size()) return;
                    unknown = i;
                } else {
                    acc = logic::v3_xor(acc, val[fanins[i]]);
                }
            }
            if (unknown == fanins.size()) return;
            Val3 need = logic::v3_xor(val[h], acc);
            if (op == GateOp::Xnor) need = logic::v3_not(need);
            assign(val, fanins[unknown], need);
            return;
        }
        const Val3 nco = logic::noncontrolled_output(op);
        if (val[h] == nco) {
            for (const GateId f : fanins) assign(val, f, logic::v3_not(ctrl));
        } else {
            std::size_t unknown = fanins.size();
            for (std::size_t i = 0; i < fanins.size(); ++i) {
                if (val[fanins[i]] == ctrl) return;
                if (val[fanins[i]] == Val3::X) {
                    if (unknown != fanins.size()) return;
                    unknown = i;
                }
            }
            if (unknown != fanins.size()) assign(val, fanins[unknown], ctrl);
        }
    }

    const Netlist* nl_;
    netlist::Levelization lv_;
    std::vector<GateId> work_;
    mutable std::vector<Val3> ins_;
    bool ok_ = true;
};

}  // namespace

FiresResult fires_untestable(const Netlist& nl, std::span<const fault::Fault> universe) {
    FiresResult out;
    ImplyBox box(nl);
    std::vector<Val3> val0, val1;

    // undetectable_mask[v][fault index] for the current stem.
    std::vector<bool> accumulated(universe.size(), false);

    // Only the *excitation* half of FIRE is applied: a fault is undetectable
    // under s=v when its line is implied to the stuck value (it can never be
    // excited in a frame where s=v). The propagation-blocking half of the
    // published algorithm is unsound without per-fault reconvergence
    // analysis — a "blocking" side input inside the fault's cone can itself
    // carry the effect — so this implementation deliberately omits it and
    // reports conservatively fewer untestable faults.
    auto undetectable_under = [&](const std::vector<Val3>& val,
                                  std::vector<bool>& mask) {
        for (std::size_t i = 0; i < universe.size(); ++i) {
            const fault::Fault& f = universe[i];
            const GateId line =
                f.pin == fault::kOutputPin ? f.gate : nl.fanins(f.gate)[f.pin];
            mask[i] = val[line] == f.stuck;
        }
    };

    for (const GateId stem : nl.stems()) {
        ++out.stems_analyzed;
        const bool ok0 = box.run(stem, Val3::Zero, val0);
        const bool ok1 = box.run(stem, Val3::One, val1);
        if (!ok0 && !ok1) continue;  // degenerate circuit; no claim
        std::vector<bool> m0(universe.size(), true), m1(universe.size(), true);
        // A conflicting assertion means the stem cannot take that value at
        // all: every fault is "undetectable under" it vacuously, so the
        // other side alone decides.
        if (ok0) undetectable_under(val0, m0);
        if (ok1) undetectable_under(val1, m1);
        for (std::size_t i = 0; i < universe.size(); ++i) {
            if (m0[i] && m1[i]) accumulated[i] = true;
        }
    }
    for (std::size_t i = 0; i < universe.size(); ++i) {
        if (accumulated[i]) out.untestable.push_back(universe[i]);
    }
    return out;
}

}  // namespace seqlearn::workload
