#include "fault/fault_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace seqlearn::fault {

using logic::Pattern;
using logic::pat_get;
using netlist::GateId;
using netlist::Topology;

FaultSimulator::FaultSimulator(const Topology& topo)
    : topo_(&topo),
      force_flags_(topo.size(), 0),
      out_force1_(topo.size(), 0),
      out_force0_(topo.size(), 0),
      pin_force1_(topo.num_fanin_edges(), 0),
      pin_force0_(topo.num_fanin_edges(), 0),
      pats_(topo.size(), logic::kPatAllX) {}

void FaultSimulator::set_good_ties(const std::vector<Val3>* values,
                                   const std::vector<std::uint32_t>* cycles) {
    tie_values_ = values;
    tie_cycles_ = cycles;
    for (const TieLanes& t : tie_lanes_) tie_index_[t.gate] = -1;
    tie_lanes_.clear();
    if (values != nullptr) {
        if (tie_index_.size() != topo_->size()) tie_index_.assign(topo_->size(), -1);
        cone_lanes_.resize(topo_->num_components());
        for (GateId g = 0; g < topo_->size(); ++g) {
            const Val3 v = (*values)[g];
            if (v == Val3::X) continue;
            tie_index_[g] = static_cast<std::int32_t>(tie_lanes_.size());
            tie_lanes_.push_back({g, cycles ? (*cycles)[g] : 0, v, 0, 0});
        }
    }
    // Worker clones must simulate the same good machine.
    for (const std::unique_ptr<FaultSimulator>& w : workers_) {
        w->set_good_ties(values, cycles);
    }
}

void FaultSimulator::set_executor(exec::Pool* pool, unsigned max_workers) {
    executor_ = pool;
    executor_max_workers_ = max_workers;
    if (pool == nullptr) workers_.clear();
}

void FaultSimulator::clear_forces() {
    for (const GateId g : forced_gates_) {
        force_flags_[g] = 0;
        out_force1_[g] = 0;
        out_force0_[g] = 0;
    }
    forced_gates_.clear();
    for (const std::uint32_t e : forced_edges_) {
        pin_force1_[e] = 0;
        pin_force0_[e] = 0;
    }
    forced_edges_.clear();
}

std::vector<bool> FaultSimulator::run(const sim::InputSequence& seq,
                                      std::span<const Fault> faults) {
    if (faults.size() > kFaultsPerPass)
        throw std::invalid_argument("FaultSimulator::run: too many faults for one pass");
    const Topology& topo = *topo_;
    const auto inputs = topo.inputs();
    const auto seq_elems = topo.seq_elements();

    clear_forces();
    for (std::size_t j = 0; j < faults.size(); ++j) {
        const Fault& f = faults[j];
        const std::uint64_t bit = 1ULL << (j + 1);
        if (force_flags_[f.gate] == 0) forced_gates_.push_back(f.gate);
        if (f.pin == kOutputPin) {
            force_flags_[f.gate] |= kOutForced;
            (f.stuck == Val3::One ? out_force1_ : out_force0_)[f.gate] |= bit;
        } else {
            force_flags_[f.gate] |= kPinForced;
            const std::uint32_t edge =
                topo.fanin_offset(f.gate) + static_cast<std::uint32_t>(f.pin);
            if (pin_force1_[edge] == 0 && pin_force0_[edge] == 0)
                forced_edges_.push_back(edge);
            (f.stuck == Val3::One ? pin_force1_ : pin_force0_)[edge] |= bit;
        }
    }

    // Tie lanes: lane 0 always; faulty lanes only where the tied gate is
    // outside that fault's cone (there the machines agree line-for-line).
    // Fault j seeds lane j+1 at its site's component; one sweep of the
    // component DAG then marks every cone of the pass.
    if (!tie_lanes_.empty()) {
        std::fill(cone_lanes_.begin(), cone_lanes_.end(), 0);
        std::uint32_t first = topo.num_components();
        for (std::size_t j = 0; j < faults.size(); ++j) {
            const std::uint32_t c = topo.component(faults[j].gate);
            cone_lanes_[c] |= 1ULL << (j + 1);
            first = std::min(first, c);
        }
        topo.propagate_lanes(cone_lanes_, first);
        const std::uint64_t used_lanes = faults.size() == 63
                                             ? ~0ULL
                                             : ((1ULL << (faults.size() + 1)) - 1);
        for (TieLanes& t : tie_lanes_) {
            const std::uint64_t lanes = ~cone_lanes_[topo.component(t.gate)] & used_lanes;
            t.ones = t.value == Val3::One ? lanes : 0;
            t.zeros = t.value == Val3::Zero ? lanes : 0;
        }
    }
    std::size_t frame_index = 0;
    auto apply_tie = [&](GateId g, Pattern& p) {
        if (tie_lanes_.empty() || tie_index_[g] < 0) return;
        const TieLanes& t = tie_lanes_[static_cast<std::size_t>(tie_index_[g])];
        if (frame_index < t.cycle) return;
        p.ones |= t.ones;
        p.zeros |= t.zeros;
    };

    auto force_output = [&](GateId g, Pattern& p) {
        const std::uint64_t f1 = out_force1_[g], f0 = out_force0_[g];
        const std::uint64_t both = f1 | f0;
        p.ones = (p.ones & ~both) | f1;
        p.zeros = (p.zeros & ~both) | f0;
    };
    // The data value gate `g` sees on flat fanin edge `edge`, with per-lane
    // pin faults applied.
    auto forced_pin_value = [&](GateId driver, std::uint32_t edge) {
        Pattern p = pats_[driver];
        const std::uint64_t f1 = pin_force1_[edge], f0 = pin_force0_[edge];
        const std::uint64_t both = f1 | f0;
        p.ones = (p.ones & ~both) | f1;
        p.zeros = (p.zeros & ~both) | f0;
        return p;
    };

    state_.assign(seq_elems.size(), logic::kPatAllX);
    std::uint64_t detected_lanes = 0;

    for (const sim::InputFrame& frame : seq) {
        if (frame.size() != inputs.size())
            throw std::invalid_argument("FaultSimulator::run: bad input frame size");
        // Seed sources.
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            Pattern p = logic::pat_broadcast(frame[i]);
            if (force_flags_[inputs[i]] & kOutForced) force_output(inputs[i], p);
            pats_[inputs[i]] = p;
        }
        for (std::size_t i = 0; i < seq_elems.size(); ++i) {
            Pattern p = state_[i];
            apply_tie(seq_elems[i], p);
            if (force_flags_[seq_elems[i]] & kOutForced) force_output(seq_elems[i], p);
            pats_[seq_elems[i]] = p;
        }
        // Levelized evaluation over the CSR schedule with fault forcing.
        for (const GateId g : topo.schedule()) {
            if (topo.is_input(g) || topo.is_seq(g)) continue;
            const auto fi = topo.fanins(g);
            Pattern p;
            if (force_flags_[g] & kPinForced) {
                const std::uint32_t base = topo.fanin_offset(g);
                p = logic::eval_op_indirect(topo.op(g), fi.size(), [&](std::size_t i) {
                    return forced_pin_value(fi[i], base + static_cast<std::uint32_t>(i));
                });
            } else {
                p = logic::eval_op_indirect(topo.op(g), fi.size(),
                                            [&](std::size_t i) { return pats_[fi[i]]; });
            }
            apply_tie(g, p);
            if (force_flags_[g] & kOutForced) force_output(g, p);
            pats_[g] = p;
        }
        // Detection: a faulty lane differs from the good lane at a PO while
        // both are binary.
        for (const GateId o : topo.outputs()) {
            const Pattern p = pats_[o];
            const Val3 good = pat_get(p, 0);
            if (good == Val3::X) continue;
            detected_lanes |= good == Val3::One ? p.zeros : p.ones;
        }
        // Capture next state (pin faults on sequential data pins included).
        for (std::size_t i = 0; i < seq_elems.size(); ++i) {
            const GateId ff = seq_elems[i];
            const GateId d = topo.fanins(ff)[0];
            state_[i] = force_flags_[ff] & kPinForced
                            ? forced_pin_value(d, topo.fanin_offset(ff))
                            : pats_[d];
        }
        ++frame_index;
    }
    std::vector<bool> detected(faults.size());
    for (std::size_t j = 0; j < faults.size(); ++j) detected[j] = (detected_lanes >> (j + 1)) & 1;
    return detected;
}

bool FaultSimulator::detects(const sim::InputSequence& seq, const Fault& f) {
    return run(seq, {&f, 1})[0];
}

std::size_t FaultSimulator::drop_detected(const sim::InputSequence& seq, FaultList& list) {
    std::size_t dropped = 0;
    const std::vector<std::size_t> todo = list.undetected();
    const std::size_t passes = (todo.size() + kFaultsPerPass - 1) / kFaultsPerPass;
    if (executor_ != nullptr && passes > 1) {
        unsigned workers = executor_->size();
        if (executor_max_workers_ != 0) workers = std::min(workers, executor_max_workers_);
        if (workers > 1) return drop_detected_parallel(seq, list, todo, passes, workers);
    }
    for (std::size_t pos = 0; pos < todo.size(); pos += kFaultsPerPass) {
        // Pass-boundary governance: stopping between passes keeps the union
        // of already-dropped faults valid (remaining ones just stay
        // undetected, which is sound).
        if ((cancel_ != nullptr && cancel_->requested()) ||
            (budget_ != nullptr && budget_->check() != exec::RunStatus::Completed))
            break;
        if (failpoint_ != nullptr) failpoint_->poll(exec::FailSite::WorkItem);
        chunk_indices_.clear();
        chunk_.clear();
        for (std::size_t k = pos; k < std::min(pos + kFaultsPerPass, todo.size()); ++k) {
            chunk_indices_.push_back(todo[k]);
            chunk_.push_back(list.fault(todo[k]));
        }
        const std::vector<bool> det = run(seq, chunk_);
        for (std::size_t k = 0; k < chunk_.size(); ++k) {
            if (det[k]) {
                list.set_status(chunk_indices_[k], FaultStatus::Detected);
                ++dropped;
            }
        }
    }
    return dropped;
}

std::size_t FaultSimulator::drop_detected_parallel(const sim::InputSequence& seq,
                                                   FaultList& list,
                                                   std::span<const std::size_t> todo,
                                                   std::size_t passes, unsigned workers) {
    if ((cancel_ != nullptr && cancel_->requested()) ||
        (budget_ != nullptr && budget_->check() != exec::RunStatus::Completed))
        return 0;
    // Per-worker clones over the shared snapshot (worker 0 is this
    // simulator); built once and reused across calls.
    while (workers_.size() + 1 < workers) {
        auto clone = std::make_unique<FaultSimulator>(*topo_);
        clone->set_good_ties(tie_values_, tie_cycles_);
        workers_.push_back(std::move(clone));
    }

    const std::size_t words = (todo.size() + 63) / 64;
    if (detected_words_ < words) {
        detected_bits_ = std::make_unique<std::atomic<std::uint64_t>[]>(words);
        detected_words_ = words;
    }
    for (std::size_t w = 0; w < words; ++w)
        detected_bits_[w].store(0, std::memory_order_relaxed);

    auto task = [&](unsigned worker, std::size_t pass) {
        // Governance lives on the primary simulator; workers read its sticky
        // flags only (no clock) and skip their pass once a stop is pending.
        if ((cancel_ != nullptr && cancel_->requested()) ||
            (budget_ != nullptr && budget_->deadline_exceeded()))
            return;
        if (failpoint_ != nullptr) failpoint_->poll(exec::FailSite::WorkItem);
        FaultSimulator& fs = worker == 0 ? *this : *workers_[worker - 1];
        const std::size_t begin = pass * kFaultsPerPass;
        const std::size_t end = std::min(begin + kFaultsPerPass, todo.size());
        fs.chunk_.clear();
        for (std::size_t k = begin; k < end; ++k) fs.chunk_.push_back(list.fault(todo[k]));
        const std::vector<bool> det = fs.run(seq, fs.chunk_);
        for (std::size_t k = begin; k < end; ++k) {
            if (det[k - begin]) {
                detected_bits_[k / 64].fetch_or(1ULL << (k % 64),
                                                std::memory_order_relaxed);
            }
        }
    };
    executor_->run(passes, exec::TaskView(task), workers);

    // Merge in fault-index order (todo is index-ordered): identical statuses
    // to the serial pass — detection is a union, credit order is canonical.
    std::size_t dropped = 0;
    for (std::size_t k = 0; k < todo.size(); ++k) {
        if (detected_bits_[k / 64].load(std::memory_order_relaxed) & (1ULL << (k % 64))) {
            list.set_status(todo[k], FaultStatus::Detected);
            ++dropped;
        }
    }
    return dropped;
}

std::size_t FaultSimulator::memory_bytes() const noexcept {
    const auto vec = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
    std::size_t bytes = vec(force_flags_) + vec(out_force1_) + vec(out_force0_) +
                        vec(pin_force1_) + vec(pin_force0_) + vec(forced_gates_) +
                        vec(forced_edges_) + vec(tie_lanes_) + vec(tie_index_) +
                        vec(pats_) + vec(state_) + vec(cone_lanes_) + vec(chunk_indices_) +
                        vec(chunk_) +
                        detected_words_ * sizeof(std::uint64_t);
    for (const auto& w : workers_) {
        if (w) bytes += sizeof(FaultSimulator) + w->memory_bytes();
    }
    return bytes;
}

}  // namespace seqlearn::fault
