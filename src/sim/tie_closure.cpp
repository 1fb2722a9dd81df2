#include "sim/tie_closure.hpp"

#include <algorithm>
#include <stdexcept>

namespace seqlearn::sim {

namespace {

using FrameValue = TieClosure::FrameValue;

bool key_less(const FrameValue& a, const FrameValue& b) noexcept {
    return a.frame != b.frame ? a.frame < b.frame : a.gate < b.gate;
}

bool same_key(const FrameValue& a, const FrameValue& b) noexcept {
    return a.frame == b.frame && a.gate == b.gate;
}

// Remove the keys in `drop` from the (frame, gate)-sorted `list` and merge
// in `add`, in O(list + k log k); both scratch vectors are left empty.
void update_sorted(std::vector<FrameValue>& list, std::vector<FrameValue>& drop,
                   std::vector<FrameValue>& add) {
    if (!drop.empty()) {
        std::sort(drop.begin(), drop.end(), key_less);
        std::size_t d = 0;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < list.size(); ++i) {
            while (d < drop.size() && key_less(drop[d], list[i])) ++d;
            if (d < drop.size() && same_key(drop[d], list[i])) continue;
            list[kept++] = list[i];
        }
        list.resize(kept);
        drop.clear();
    }
    if (!add.empty()) {
        std::sort(add.begin(), add.end(), key_less);
        const std::size_t mid = list.size();
        list.insert(list.end(), add.begin(), add.end());
        std::inplace_merge(list.begin(), list.begin() + static_cast<std::ptrdiff_t>(mid),
                           list.end(), key_less);
        // A sequential element fed twice by one gate is listed twice.
        list.erase(std::unique(list.begin(), list.end(), same_key), list.end());
        add.clear();
    }
}

}  // namespace

TieClosure::TieClosure(const Topology& topo, SeqGating gating, const EquivMap* equiv,
                       std::uint32_t frames, const std::vector<Val3>* ties,
                       const std::vector<std::uint32_t>* cycles)
    : topo_(&topo),
      gating_(std::move(gating)),
      equiv_(equiv),
      frames_(frames),
      ties_(topo.size(), Val3::X),
      cycles_(topo.size(), 0),
      entry_(topo.size(), Entry{kNever, Val3::X}),
      conflict_frame_(frames),
      queue_(topo) {
    // Constant sources are ties from frame 0.
    std::vector<Seed> seeds;
    for (const GateId g : topo.const_gates())
        seeds.push_back({0, g, topo.op(g) == logic::GateOp::Const1 ? Val3::One : Val3::Zero});
    if (ties != nullptr) {
        for (GateId g = 0; g < ties->size() && g < topo.size(); ++g) {
            if ((*ties)[g] == Val3::X) continue;
            const std::uint32_t c = cycles != nullptr ? (*cycles)[g] : 0;
            ties_[g] = (*ties)[g];
            cycles_[g] = c;
            note_cycle(c, +1);
            seeds.push_back({c, g, (*ties)[g]});
        }
    }
    std::stable_sort(seeds.begin(), seeds.end(),
                     [](const Seed& a, const Seed& b) { return a.frame < b.frame; });
    close_from(seeds);
}

void TieClosure::add_tie(GateId g, Val3 v, std::uint32_t cycle) {
    if (ties_[g] != Val3::X) {
        if (ties_[g] != v) throw std::logic_error("TieClosure: gate tied to both values");
        if (cycles_[g] <= cycle) return;
        note_cycle(cycles_[g], -1);
    } else if (!topo_->is_const(g) && entry_[g].since != kNever) {
        // Tied gates are no longer free values.
        std::vector<FrameValue> drop{{entry_[g].since, g, entry_[g].value}};
        std::vector<FrameValue> none;
        update_sorted(free_, drop, none);
    }
    ties_[g] = v;
    cycles_[g] = cycle;
    note_cycle(cycle, +1);
    const Seed seed{cycle, g, v};
    close_from({&seed, 1});
}

void TieClosure::note_cycle(std::uint32_t cycle, int delta) {
    auto it = std::lower_bound(
        cycle_counts_.begin(), cycle_counts_.end(), cycle,
        [](const std::pair<std::uint32_t, std::uint32_t>& e, std::uint32_t c) {
            return e.first < c;
        });
    if (it == cycle_counts_.end() || it->first != cycle) it = cycle_counts_.insert(it, {cycle, 0});
    it->second = static_cast<std::uint32_t>(static_cast<int>(it->second) + delta);
    if (it->second == 0) cycle_counts_.erase(it);
}

std::uint32_t TieClosure::last_tie_cycle_below(std::uint32_t limit) const noexcept {
    const auto it = std::lower_bound(
        cycle_counts_.begin(), cycle_counts_.end(), limit,
        [](const std::pair<std::uint32_t, std::uint32_t>& e, std::uint32_t c) {
            return e.first < c;
        });
    return it == cycle_counts_.begin() ? 0 : std::prev(it)->first;
}

std::span<const TieClosure::FrameValue> TieClosure::state_gain(std::uint32_t t) const noexcept {
    const auto lo = std::partition_point(gains_.begin(), gains_.end(),
                                         [t](const FrameValue& e) { return e.frame < t; });
    const auto hi =
        std::partition_point(lo, gains_.end(), [t](const FrameValue& e) { return e.frame == t; });
    return {gains_.data() + (lo - gains_.begin()), static_cast<std::size_t>(hi - lo)};
}

void TieClosure::append_fixed(std::uint32_t t, std::vector<ImpliedValue>& out) const {
    for (GateId g = 0; g < entry_.size(); ++g) {
        if (entry_[g].since <= t && fixed(g)) out.push_back({t, g, entry_[g].value});
    }
}

// Give `g` the value `v` from frame_ on. Returns false on a contradiction.
bool TieClosure::assign(GateId g, Val3 v) {
    Entry& e = entry_[g];
    if (e.since <= frame_) return e.value == v;
    // The old closure still forces the other value from e.since on, so the
    // grown closure is contradictory there at the latest.
    if (e.since != kNever && e.value != v) conflict_frame_ = std::min(conflict_frame_, e.since);
    changed_.push_back({g, e.since});
    fresh_.push_back({g, e.since});
    e.since = frame_;
    e.value = v;
    queue_.push_fanouts(g);
    if (equiv_ != nullptr && g < equiv_->size()) {
        for (const EquivLink& link : (*equiv_)[g]) {
            if (!assign(link.other, link.inverted ? logic::v3_not(v) : v)) return false;
        }
    }
    return true;
}

// Extend the closure with `seeds` (sorted by frame), frame by frame. Frame
// t starts from the closure before this call (the old closure at t) plus
// every value this call already established at earlier frames — the
// background only grows across frames — and adds what that union implies:
// the state captured from values that entered at t-1, the seeds of t, and
// the consequences at t of earlier values the old closure lacked at t.
void TieClosure::close_from(std::span<const Seed> seeds) {
    changed_.clear();
    fresh_.clear();
    const std::uint32_t old_horizon = horizon_;
    std::size_t si = 0;
    std::uint32_t t = seeds.empty() ? kNever : seeds.front().frame;
    while (t < conflict_frame_) {
        frame_ = t;
        caps_.clear();
        for (const Changed& c : fresh_) {
            const Entry& e = entry_[c.gate];
            if (e.since + 1 != t) continue;  // captured at an earlier frame
            for (const GateId fo : topo_->seq_fanouts(c.gate)) {
                if (topo_->fanins(fo)[0] == c.gate && gating_.allows(fo, e.value))
                    caps_.push_back({t, fo, e.value});
            }
        }
        std::erase_if(fresh_, [t](const Changed& c) { return c.old_since <= t; });
        // Past the old horizon the old closure no longer changes, so earlier
        // values have nothing new to meet.
        if (t <= old_horizon) {
            for (const Changed& c : fresh_) queue_.push_fanouts(c.gate);
        }
        const std::size_t carried = fresh_.size();
        bool ok = true;
        for (std::size_t i = 0; ok && i < caps_.size(); ++i)
            ok = assign(caps_[i].gate, caps_[i].value);
        for (; ok && si < seeds.size() && seeds[si].frame == t; ++si)
            ok = assign(seeds[si].gate, seeds[si].value);
        if (ok) {
            ok = queue_.drain([&](GateId g) {
                const auto fi = topo_->fanins(g);
                const Val3 v = logic::eval_op_indirect(
                    topo_->op(g), fi.size(), [&](std::size_t k) { return value(fi[k], frame_); });
                return v == Val3::X || assign(g, v);
            });
        }
        if (!ok) {
            queue_.clear();
            conflict_frame_ = t;
            break;
        }
        // When nothing entered at t and nothing from earlier is left to meet
        // the old closure, every frame up to the next seed stays as it is.
        if (fresh_.size() == carried && (fresh_.empty() || t >= old_horizon)) {
            if (si == seeds.size()) break;
            t = seeds[si].frame;
        } else {
            ++t;
        }
    }

    // Re-file the entered values in the per-frame lists.
    std::vector<FrameValue> drop_free, add_free, drop_gain, add_gain;
    for (const Changed& c : changed_) {
        const Entry& e = entry_[c.gate];
        horizon_ = std::max(horizon_, e.since);
        if (!fixed(c.gate)) {
            if (c.old_since != kNever) drop_free.push_back({c.old_since, c.gate, e.value});
            add_free.push_back({e.since, c.gate, e.value});
        }
        for (const GateId fo : topo_->seq_fanouts(c.gate)) {
            if (topo_->fanins(fo)[0] != c.gate || !gating_.allows(fo, e.value)) continue;
            if (c.old_since != kNever) drop_gain.push_back({c.old_since, fo, e.value});
            add_gain.push_back({e.since, fo, e.value});
            first_gain_ = std::min(first_gain_, e.since);
        }
    }
    update_sorted(free_, drop_free, add_free);
    update_sorted(gains_, drop_gain, add_gain);
}

}  // namespace seqlearn::sim
