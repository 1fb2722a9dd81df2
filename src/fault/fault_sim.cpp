#include "fault/fault_sim.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

namespace seqlearn::fault {

using logic::GateOp;
using netlist::GateId;
using netlist::Topology;

struct FaultSimulator::Schedule {
    /// The fold of an instruction.
    enum class Kind : std::uint8_t { And, Xor };
    /// One non-source slot: `kind` folded over its operands, each with its
    /// rails swapped when `swap_in`, the result's when `swap_out` (OR, NOR,
    /// NAND and NOT are AND under De Morgan), then OR-ed with tie_on[tie]
    /// (the all-zero last entry when untied). The operands are in[0..2],
    /// or the CSR fanins of a gate with more than three inputs (`wide`).
    /// Missing operands read the fold's identity: the all-1 slot for AND,
    /// the all-0 slot for XOR and for AND over swapped rails, so a constant
    /// is AND (1) or OR (0) over identities alone.
    struct Instr {
        std::array<std::uint32_t, 3> in;
        std::uint32_t tie;
        Kind kind;
        bool swap_in;
        bool swap_out;
        bool wide;
    };
    struct Tie {
        std::uint32_t slot;
        std::uint32_t component;
        std::uint32_t cycle;
        Val3 value;
    };

    Schedule(const Topology& topo, const std::vector<Val3>* values,
             const std::vector<std::uint32_t>* cycles);
    std::size_t bytes() const noexcept;

    /// vals holds one slot per gate, then the all-1 and all-0 constants.
    std::size_t num_vals() const noexcept { return slot.size() + 2; }
    std::uint32_t one_slot() const noexcept { return static_cast<std::uint32_t>(slot.size()); }
    std::uint32_t zero_slot() const noexcept { return one_slot() + 1; }

    // Slots: primary inputs [0, num_inputs), sequential elements
    // [num_inputs, num_sources), then every other gate in
    // Topology::schedule() order.
    std::uint32_t num_inputs = 0;
    std::uint32_t num_sources = 0;
    std::vector<std::uint32_t> slot;  // GateId -> slot
    // Per non-source slot s, at index s - num_sources: its instruction, and
    // its CSR fanin slots (one more offset than slots) for wide
    // instructions and re-evaluated forced gates.
    std::vector<Instr> code;
    std::vector<std::uint32_t> fanin_off;
    std::vector<std::uint32_t> fanins;
    std::vector<std::uint32_t> outputs;     // primary-output slots
    std::vector<std::uint32_t> next_state;  // data-input slot per sequential element
    // Ties on sequential elements first (ids [0, seq_ties), element order),
    // then the others in slot order; tie_order lists ids by proof cycle.
    std::vector<Tie> ties;
    std::uint32_t seq_ties = 0;
    std::vector<std::uint32_t> tie_order;
};

namespace {

using Kind = FaultSimulator::Schedule::Kind;
using Instr = FaultSimulator::Schedule::Instr;

constexpr std::uint32_t kUntied = ~0u;

/// `op` as an instruction without operands: its fold and rail swaps.
Instr instr_for(GateOp op) noexcept {
    Instr ins{};
    ins.tie = kUntied;
    ins.kind = op == GateOp::Xor || op == GateOp::Xnor ? Kind::Xor : Kind::And;
    ins.swap_in = op == GateOp::Or || op == GateOp::Nor || op == GateOp::Const0;
    ins.swap_out = op == GateOp::Not || op == GateOp::Nand || op == GateOp::Or ||
                   op == GateOp::Xnor || op == GateOp::Const0;
    return ins;
}

}  // namespace

FaultSimulator::Schedule::Schedule(const Topology& topo, const std::vector<Val3>* values,
                                   const std::vector<std::uint32_t>* cycles) {
    const auto tied = [&](GateId g) { return values != nullptr && (*values)[g] != Val3::X; };
    const auto add_tie = [&](GateId g) {
        ties.push_back({slot[g], topo.component(g), cycles ? (*cycles)[g] : 0, (*values)[g]});
    };
    slot.assign(topo.size(), 0);
    std::uint32_t next = 0;
    for (const GateId g : topo.inputs()) slot[g] = next++;
    for (const GateId g : topo.seq_elements()) {
        slot[g] = next++;
        if (tied(g)) add_tie(g);
    }
    num_inputs = static_cast<std::uint32_t>(topo.inputs().size());
    num_sources = next;
    seq_ties = static_cast<std::uint32_t>(ties.size());

    code.reserve(topo.size() - num_sources);
    fanin_off.reserve(topo.size() - num_sources + 1);
    fanin_off.push_back(0);
    for (const GateId g : topo.schedule()) {
        if (topo.is_input(g) || topo.is_seq(g)) continue;
        slot[g] = next++;
        const auto fi = topo.fanins(g);
        Instr& ins = code.emplace_back(instr_for(topo.op(g)));
        ins.wide = fi.size() > ins.in.size();
        ins.in.fill(ins.kind == Kind::And && !ins.swap_in ? one_slot() : zero_slot());
        // The schedule puts every fanin before its gate: its slot is set.
        for (std::size_t i = 0; i < fi.size(); ++i) {
            if (i < ins.in.size()) ins.in[i] = slot[fi[i]];
            fanins.push_back(slot[fi[i]]);
        }
        fanin_off.push_back(static_cast<std::uint32_t>(fanins.size()));
        if (tied(g)) {
            ins.tie = static_cast<std::uint32_t>(ties.size());
            add_tie(g);
        }
    }
    // Untied gates read the all-zero entry after the last tie.
    for (Instr& ins : code) {
        if (ins.tie == kUntied) ins.tie = static_cast<std::uint32_t>(ties.size());
    }

    for (const GateId o : topo.outputs()) outputs.push_back(slot[o]);
    for (const GateId ff : topo.seq_elements()) next_state.push_back(slot[topo.fanins(ff)[0]]);
    tie_order.resize(ties.size());
    std::iota(tie_order.begin(), tie_order.end(), 0u);
    std::stable_sort(tie_order.begin(), tie_order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return ties[a].cycle < ties[b].cycle;
    });
    // Every worker clone shares this: drop the growth slack.
    fanins.shrink_to_fit();
    ties.shrink_to_fit();
}

std::size_t FaultSimulator::Schedule::bytes() const noexcept {
    const auto vec = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
    return vec(slot) + vec(code) + vec(fanin_off) + vec(fanins) + vec(outputs) +
           vec(next_state) + vec(ties) + vec(tie_order);
}

template <std::size_t W>
void FaultSimulator::Scratch<W>::reserve(const Schedule& sched) {
    vals.reserve(sched.num_vals());
    state.reserve(sched.num_sources - sched.num_inputs);
    tie_on.reserve(sched.ties.size() + 1);
    gates.reserve(W * 64 - 1);
    pins.reserve(W * 64 - 1);
}

template <std::size_t W>
std::size_t FaultSimulator::Scratch<W>::bytes() const noexcept {
    const auto vec = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
    return vec(vals) + vec(state) + vec(tie_on) + vec(gates) + vec(pins);
}

namespace {

/// Lanes of `v` where `f` forces a value take it: stuck-at-1 lanes in
/// f.ones, stuck-at-0 lanes in f.zeros.
template <std::size_t W>
void apply_force(WideLanes<W>& v, const WideLanes<W>& f) noexcept {
    for (std::size_t w = 0; w < W; ++w) {
        const std::uint64_t both = f.ones[w] | f.zeros[w];
        v.ones[w] = (v.ones[w] & ~both) | f.ones[w];
        v.zeros[w] = (v.zeros[w] & ~both) | f.zeros[w];
    }
}

template <std::size_t W>
void apply_tie(WideLanes<W>& v, const WideLanes<W>& t) noexcept {
    for (std::size_t w = 0; w < W; ++w) {
        v.ones[w] |= t.ones[w];
        v.zeros[w] |= t.zeros[w];
    }
}

/// Fold operand `x` into `acc` under the non-inverting operator `Op` (And
/// or Xor), lane-wise with logic::Pattern's semantics.
template <GateOp Op, std::size_t W>
void fold(WideLanes<W>& acc, const WideLanes<W>& x) noexcept {
    for (std::size_t w = 0; w < W; ++w) {
        if constexpr (Op == GateOp::And) {
            acc.ones[w] &= x.ones[w];
            acc.zeros[w] |= x.zeros[w];
        } else {
            const std::uint64_t ones = (acc.ones[w] & x.zeros[w]) | (acc.zeros[w] & x.ones[w]);
            acc.zeros[w] = (acc.ones[w] & x.ones[w]) | (acc.zeros[w] & x.zeros[w]);
            acc.ones[w] = ones;
        }
    }
}

template <std::size_t W>
void swap_rails(WideLanes<W>& v) noexcept {
    std::swap(v.ones, v.zeros);
}

/// `ins`'s fold over `n` operands, get(i) yielding operand i.
template <std::size_t W, typename GetFn>
WideLanes<W> fold_operands(const Instr& ins, std::size_t n, GetFn&& get) noexcept {
    const auto operand = [&](std::size_t i) {
        WideLanes<W> x = get(i);
        if (ins.swap_in) swap_rails(x);
        return x;
    };
    WideLanes<W> acc = operand(0);
    if (ins.kind == Kind::Xor) {
        for (std::size_t i = 1; i < n; ++i) fold<GateOp::Xor>(acc, operand(i));
    } else {
        for (std::size_t i = 1; i < n; ++i) fold<GateOp::And>(acc, operand(i));
    }
    if (ins.swap_out) swap_rails(acc);
    return acc;
}

/// `ins`'s fold over the CSR fanins of non-source slot k, get(i, x) yielding
/// operand i given its value x.
template <std::size_t W, typename GetFn>
WideLanes<W> fold_fanins(const FaultSimulator::Schedule& s, std::uint32_t k,
                         const WideLanes<W>* vals, GetFn&& get) noexcept {
    const std::uint32_t* fi = s.fanins.data() + s.fanin_off[k];
    return fold_operands<W>(s.code[k], s.fanin_off[k + 1] - s.fanin_off[k],
                            [&](std::size_t i) { return get(i, vals[fi[i]]); });
}

/// Evaluate slots [begin, end): one instruction each, in schedule order.
template <std::size_t W>
void run_slots(const FaultSimulator::Schedule& s, std::uint32_t begin, std::uint32_t end,
               WideLanes<W>* vals, const WideLanes<W>* tie_on) noexcept {
    for (std::uint32_t slot = begin; slot < end; ++slot) {
        const std::uint32_t k = slot - s.num_sources;
        const Instr& ins = s.code[k];
        WideLanes<W> v;
        if (ins.wide) [[unlikely]] {
            v = fold_fanins<W>(s, k, vals, [](std::size_t, const WideLanes<W>& x) { return x; });
        } else {
            v = fold_operands<W>(ins, ins.in.size(),
                                 [&](std::size_t i) { return vals[ins.in[i]]; });
        }
        apply_tie(v, tie_on[ins.tie]);
        vals[slot] = v;
    }
}

}  // namespace

FaultSimulator::FaultSimulator(const Topology& topo) : topo_(&topo) {}

const FaultSimulator::Schedule& FaultSimulator::schedule() {
    if (!sched_) sched_ = std::make_shared<const Schedule>(*topo_, nullptr, nullptr);
    return *sched_;
}

void FaultSimulator::set_good_ties(const std::vector<Val3>* values,
                                   const std::vector<std::uint32_t>* cycles) {
    if (values == nullptr && sched_ && sched_->ties.empty()) return;
    // Drop the old schedule everywhere before building the next, so at most
    // one is alive; without ties it is rebuilt lazily.
    sched_.reset();
    for (const std::unique_ptr<FaultSimulator>& w : workers_) w->sched_.reset();
    if (values != nullptr) sched_ = std::make_shared<const Schedule>(*topo_, values, cycles);
}

void FaultSimulator::set_executor(exec::Pool* pool) {
    executor_ = pool;
    if (pool == nullptr) {
        workers_.clear();
        pass_clones_ = 0;
    }
}

void FaultSimulator::reserve_scratch() {
    const Schedule& sched = schedule();
    narrow_.reserve(sched);
    wide_.reserve(sched);
    cone_lanes_.reserve(kPassWords * topo_->num_components());
    force_order_.reserve(kFaultsPerPass);
    chunk_.reserve(kFaultsPerPass);
}

void FaultSimulator::prepare_clones(std::size_t workers) {
    if (workers <= 1) return;
    while (workers_.size() + 1 < workers)
        workers_.push_back(std::make_unique<FaultSimulator>(*topo_));
    // Allocate every simulator's scratch on this thread, this one's too:
    // memory a pool thread allocates comes from its own malloc arena, which
    // keeps it resident after the thread (and the pool) is gone, and a
    // footprint grown by whichever passes a worker happened to run would
    // differ from run to run.
    reserve_scratch();
    for (const std::unique_ptr<FaultSimulator>& w : workers_) {
        w->sched_ = sched_;
        w->reserve_scratch();
    }
}

template <std::size_t W>
FaultSimulator::PassLanes FaultSimulator::simulate(Scratch<W>& sc, const sim::InputSequence& seq,
                                                   std::span<const Fault> faults) {
    const Schedule& s = schedule();
    const Topology& topo = *topo_;
    const std::uint32_t num_seq = s.num_sources - s.num_inputs;
    sc.vals.resize(s.num_vals());
    sc.vals[s.one_slot()] = {};
    sc.vals[s.one_slot()].ones.fill(~0ULL);
    sc.vals[s.zero_slot()] = {};
    sc.vals[s.zero_slot()].zeros.fill(~0ULL);
    sc.state.assign(num_seq, WideLanes<W>{});

    // Force table: fault j owns lane j + 1; faults sorted by (slot, pin)
    // group into one entry per gate, sources first.
    force_order_.resize(faults.size());
    std::iota(force_order_.begin(), force_order_.end(), 0u);
    std::sort(force_order_.begin(), force_order_.end(), [&](std::uint32_t a, std::uint32_t b) {
        return std::pair(s.slot[faults[a].gate], faults[a].pin) <
               std::pair(s.slot[faults[b].gate], faults[b].pin);
    });
    sc.gates.clear();
    sc.pins.clear();
    for (const std::uint32_t j : force_order_) {
        const Fault& f = faults[j];
        const std::size_t w = (j + 1) / 64;
        const std::uint64_t bit = 1ULL << ((j + 1) % 64);
        const std::uint32_t slot = s.slot[f.gate];
        if (sc.gates.empty() || sc.gates.back().slot != slot) {
            const auto pin = static_cast<std::uint32_t>(sc.pins.size());
            sc.gates.push_back({slot, pin, pin, {}});
        }
        GateForce<W>& g = sc.gates.back();
        WideLanes<W>* lanes = &g.out;
        if (f.pin != kOutputPin) {
            const auto pin = static_cast<std::uint32_t>(f.pin);
            if (g.pin_end == g.pin_begin || sc.pins.back().pin != pin) {
                sc.pins.push_back({pin, {}});
                ++g.pin_end;
            }
            lanes = &sc.pins.back().lanes;
        }
        (f.stuck == Val3::One ? lanes->ones : lanes->zeros)[w] |= bit;
    }

    // Tie lanes: lane 0 always; faulty lanes only where the tied gate is
    // outside that fault's cone (there the machines agree line-for-line).
    // Fault j seeds its lane at its site's component; one sweep of the
    // component DAG per word then marks every cone of the pass. The last
    // entry stays all zero for the untied gates.
    const std::size_t comps = topo.num_components();
    sc.tie_on.assign(s.ties.size() + 1, WideLanes<W>{});
    if (!s.ties.empty()) {
        cone_lanes_.assign(W * comps, 0);
        std::array<std::uint32_t, W> first;
        first.fill(static_cast<std::uint32_t>(comps));
        for (std::size_t j = 0; j < faults.size(); ++j) {
            const std::uint32_t c = topo.component(faults[j].gate);
            const std::size_t w = (j + 1) / 64;
            cone_lanes_[w * comps + c] |= 1ULL << ((j + 1) % 64);
            first[w] = std::min(first[w], c);
        }
        for (std::size_t w = 0; w < W; ++w) {
            if (first[w] < comps)
                topo.propagate_lanes({cone_lanes_.data() + w * comps, comps}, first[w]);
        }
    }
    std::size_t next_tie = 0;
    const auto activate_ties = [&](std::size_t frame) {
        for (; next_tie < s.tie_order.size(); ++next_tie) {
            const std::uint32_t id = s.tie_order[next_tie];
            const Schedule::Tie& t = s.ties[id];
            if (t.cycle > frame) break;
            for (std::size_t w = 0; w < W; ++w) {
                const std::uint64_t lanes = ~cone_lanes_[w * comps + t.component];
                sc.tie_on[id].ones[w] = t.value == Val3::One ? lanes : 0;
                sc.tie_on[id].zeros[w] = t.value == Val3::Zero ? lanes : 0;
            }
        }
    };

    // A forced gate, re-fixed right after its own slot: its instruction
    // folded over copies of its operands that carry the pin forces, then
    // its tie, then its output forces.
    WideLanes<W>* vals = sc.vals.data();
    const auto refix = [&](const GateForce<W>& g) {
        WideLanes<W>& v = vals[g.slot];
        if (g.pin_begin != g.pin_end) {
            const std::uint32_t k = g.slot - s.num_sources;
            v = fold_fanins<W>(s, k, vals, [&](std::size_t i, WideLanes<W> x) {
                for (std::uint32_t p = g.pin_begin; p < g.pin_end; ++p) {
                    if (sc.pins[p].pin == i) apply_force(x, sc.pins[p].lanes);
                }
                return x;
            });
            apply_tie(v, sc.tie_on[s.code[k].tie]);
        }
        apply_force(v, g.out);
    };

    const auto num_slots = static_cast<std::uint32_t>(s.slot.size());
    PassLanes detected{};
    for (std::size_t t = 0; t < seq.size(); ++t) {
        if (seq[t].size() != s.num_inputs)
            throw std::invalid_argument("FaultSimulator::run: bad input frame size");
        activate_ties(t);
        // Seed sources: inputs, then state with its ties, then their forces.
        for (std::uint32_t i = 0; i < s.num_inputs; ++i) {
            const Val3 v = seq[t][i];
            vals[i] = {};
            if (v == Val3::One) vals[i].ones.fill(~0ULL);
            if (v == Val3::Zero) vals[i].zeros.fill(~0ULL);
        }
        std::copy(sc.state.begin(), sc.state.end(), vals + s.num_inputs);
        for (std::uint32_t k = 0; k < s.seq_ties; ++k) apply_tie(vals[s.ties[k].slot], sc.tie_on[k]);
        std::size_t fi = 0;
        for (; fi < sc.gates.size() && sc.gates[fi].slot < s.num_sources; ++fi)
            apply_force(vals[sc.gates[fi].slot], sc.gates[fi].out);
        // Every other slot in schedule order, each forced gate re-fixed
        // before any later slot reads it.
        std::uint32_t from = s.num_sources;
        for (; fi < sc.gates.size(); ++fi) {
            const GateForce<W>& g = sc.gates[fi];
            run_slots<W>(s, from, g.slot + 1, vals, sc.tie_on.data());
            refix(g);
            from = g.slot + 1;
        }
        run_slots<W>(s, from, num_slots, vals, sc.tie_on.data());
        // Detection: a faulty lane differs from the good lane at a PO while
        // both are binary.
        for (const std::uint32_t o : s.outputs) {
            const WideLanes<W>& v = vals[o];
            if (v.ones[0] & 1) {
                for (std::size_t w = 0; w < W; ++w) detected[w] |= v.zeros[w];
            } else if (v.zeros[0] & 1) {
                for (std::size_t w = 0; w < W; ++w) detected[w] |= v.ones[w];
            }
        }
        // Capture next state (pin faults on sequential data pins included).
        for (std::uint32_t i = 0; i < num_seq; ++i) sc.state[i] = vals[s.next_state[i]];
        for (std::size_t k = 0; k < sc.gates.size() && sc.gates[k].slot < s.num_sources; ++k) {
            const GateForce<W>& g = sc.gates[k];
            if (g.slot >= s.num_inputs && g.pin_begin != g.pin_end &&
                sc.pins[g.pin_begin].pin == 0)
                apply_force(sc.state[g.slot - s.num_inputs], sc.pins[g.pin_begin].lanes);
        }
    }
    return detected;
}

FaultSimulator::PassLanes FaultSimulator::simulate_pass(const sim::InputSequence& seq,
                                                        std::span<const Fault> faults) {
    return faults.size() < 64 ? simulate(narrow_, seq, faults) : simulate(wide_, seq, faults);
}

namespace {

bool lane_bit(const std::array<std::uint64_t, kPassWords>& lanes, std::size_t lane) {
    return (lanes[lane / 64] >> (lane % 64)) & 1;
}

}  // namespace

std::vector<bool> FaultSimulator::run(const sim::InputSequence& seq,
                                      std::span<const Fault> faults) {
    std::vector<bool> detected(faults.size());
    for (std::size_t pos = 0; pos < faults.size(); pos += kFaultsPerPass) {
        const auto chunk = faults.subspan(pos, std::min(kFaultsPerPass, faults.size() - pos));
        const PassLanes lanes = simulate_pass(seq, chunk);
        for (std::size_t j = 0; j < chunk.size(); ++j) detected[pos + j] = lane_bit(lanes, j + 1);
    }
    return detected;
}

bool FaultSimulator::detects(const sim::InputSequence& seq, const Fault& f) {
    return lane_bit(simulate_pass(seq, {&f, 1}), 1);
}

std::size_t FaultSimulator::drop_detected(const sim::InputSequence& seq, FaultList& list) {
    const std::vector<std::size_t> todo = list.undetected();
    const std::size_t passes = (todo.size() + kFaultsPerPass - 1) / kFaultsPerPass;
    const std::size_t workers =
        executor_ != nullptr ? std::min<std::size_t>(executor_->size(), passes) : 1;
    prepare_clones(workers);
    if (workers > 1) pass_clones_ = std::max(pass_clones_, workers - 1);

    const std::size_t words = (todo.size() + 63) / 64;
    if (detected_words_ < words) {
        detected_bits_ = std::make_unique<std::atomic<std::uint64_t>[]>(words);
        detected_words_ = words;
    }
    for (std::size_t w = 0; w < words; ++w)
        detected_bits_[w].store(0, std::memory_order_relaxed);

    auto pass = [&](unsigned worker, std::size_t p) {
        // Pass-boundary governance: a skipped pass only leaves detectable
        // faults undropped, which is sound, and a stop is sticky, so every
        // later pass skips too.
        if (exec::poll_point(cancel_, budget_) != exec::RunStatus::Completed) return;
        if (failpoint_ != nullptr) failpoint_->poll(exec::FailSite::WorkItem);
        FaultSimulator& fs = clone(worker);
        const std::size_t begin = p * kFaultsPerPass;
        const std::size_t end = std::min(begin + kFaultsPerPass, todo.size());
        fs.chunk_.clear();
        for (std::size_t k = begin; k < end; ++k) fs.chunk_.push_back(list.fault(todo[k]));
        const PassLanes det = fs.simulate_pass(seq, fs.chunk_);
        for (std::size_t k = begin; k < end; ++k) {
            if (lane_bit(det, k - begin + 1)) {
                detected_bits_[k / 64].fetch_or(1ULL << (k % 64),
                                                std::memory_order_relaxed);
            }
        }
    };
    exec::run(executor_, passes, exec::TaskView(pass));

    // Merge in fault-index order (todo is index-ordered): detection is a
    // union, and credit order is canonical.
    std::size_t dropped = 0;
    for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = detected_bits_[w].load(std::memory_order_relaxed); bits != 0;
             bits &= bits - 1) {
            list.set_status(todo[w * 64 + std::countr_zero(bits)], FaultStatus::Detected);
            ++dropped;
        }
    }
    return dropped;
}

std::size_t FaultSimulator::memory_bytes() const noexcept {
    const auto vec = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
    std::size_t bytes = (sched_ ? sched_->bytes() : 0) + narrow_.bytes() + wide_.bytes() +
                        vec(cone_lanes_) + vec(force_order_) + vec(chunk_) +
                        detected_words_ * sizeof(std::uint64_t);
    for (const auto& w : workers_) {
        // A clone's schedule is this simulator's: count its scratch only.
        if (w) {
            bytes += sizeof(FaultSimulator) + w->memory_bytes() -
                     (w->sched_ && w->sched_ == sched_ ? sched_->bytes() : 0);
        }
    }
    return bytes;
}

}  // namespace seqlearn::fault
