#pragma once
// The level order the simulators evaluate in, in one place.
//
// LevelQueue is the event schedule of every event-driven propagator
// (FrameSimulator, BatchFrameSimulator, TieClosure): a gate whose fanin took
// a value is queued once in its level's bucket, and drain() evaluates the
// queued gates level by level. A propagator supplies only the visit: read
// the gate's fanins, evaluate, and assign the result, which queues the
// gate's own fanouts in later buckets. Equivalence forcing can assign a gate
// at any level, so the sweep repeats while events remain; values only move
// from X to binary, so the work is bounded by the number of assignments.
// Only the occupied band [evt_lo_, evt_hi_] is swept: deep circuits have
// hundreds of levels while a sparse run touches a handful of gates.
//
// eval_gates() is the full levelized sweep of the reference engine, the
// signature simulator and the equivalence proofs: each gate of a list in
// topological order is evaluated from the values already in its fanins,
// for 3-valued scalars and 64-lane patterns alike.

#include "logic/pattern.hpp"
#include "logic/val3.hpp"
#include "netlist/topology.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace seqlearn::sim {

/// Level-bucketed event queue over a CSR topology, which must outlive it.
/// Between drains the queue is empty unless a drain was stopped, or gates
/// were queued and never drained; clear() empties it in either case.
class LevelQueue {
public:
    explicit LevelQueue(const netlist::Topology& topo)
        : topo_(&topo), buckets_(topo.max_level() + 1), queued_(topo.size(), 0) {}

    /// Queue every combinational fanout of `g` that is not already queued.
    void push_fanouts(netlist::GateId g) {
        for (const netlist::GateId fo : topo_->comb_fanouts(g)) {
            if (queued_[fo]) continue;
            queued_[fo] = 1;
            const std::uint32_t lvl = topo_->level(fo);
            buckets_[lvl].push_back(fo);
            evt_lo_ = std::min(evt_lo_, lvl);
            evt_hi_ = std::max(evt_hi_, lvl);
            ++pending_;
        }
    }

    /// Visit each queued combinational gate once, in non-decreasing level
    /// order within a sweep, sweeping again while `visit` queues more. A
    /// gate leaves the queue before its visit, so the visit may queue it
    /// again. Returns true when the queue ran empty, false when `visit`
    /// returned false; clear() then drops what was left queued.
    template <typename Visit>
    bool drain(Visit&& visit) {
        while (pending_ > 0) {
            // push_fanouts() from inside a visit may lower evt_lo_ (picked up
            // by the next pass), raise evt_hi_ (picked up by the re-read
            // bound) or grow the bucket being swept (the index loop follows).
            for (std::uint32_t level = evt_lo_; level <= evt_hi_; ++level) {
                std::vector<netlist::GateId>& bucket = buckets_[level];
                for (std::size_t i = 0; i < bucket.size(); ++i) {
                    const netlist::GateId g = bucket[i];
                    queued_[g] = 0;
                    --pending_;
                    if (!topo_->is_comb(g)) continue;
                    if (!visit(g)) return false;
                }
                bucket.clear();
            }
        }
        evt_lo_ = UINT32_MAX;
        evt_hi_ = 0;
        return true;
    }

    /// Drop every queued gate: the leftovers of a stopped drain, or gates
    /// queued by a run that aborted before draining. Unqueued gates must
    /// not stay marked queued, or later pushes would silently skip them.
    void clear() {
        if (evt_lo_ != UINT32_MAX) {
            for (std::uint32_t l = evt_lo_; l <= evt_hi_; ++l) {
                for (const netlist::GateId g : buckets_[l]) queued_[g] = 0;
                buckets_[l].clear();
            }
        }
        evt_lo_ = UINT32_MAX;
        evt_hi_ = 0;
        pending_ = 0;
    }

private:
    const netlist::Topology* topo_;
    std::vector<std::vector<netlist::GateId>> buckets_;
    std::vector<std::uint8_t> queued_;
    std::size_t pending_ = 0;
    std::uint32_t evt_lo_ = UINT32_MAX;
    std::uint32_t evt_hi_ = 0;
};

/// Evaluate the combinational and constant gates of `gates`, in the order
/// given, each from the values its fanins hold in `vals` at that point;
/// other gates (inputs, sequential elements) keep their values. Pass gates
/// in topological order, such as topo.schedule() or a sorted cone of it.
/// `vals` is indexed by gate id and must be sized topo.size(); V is
/// logic::Val3 or logic::Pattern.
template <typename V>
void eval_gates(const netlist::Topology& topo, std::span<const netlist::GateId> gates,
                std::vector<V>& vals) {
    V* const v = vals.data();
    for (const netlist::GateId g : gates) {
        if (!(topo.flags(g) & (netlist::Topology::kComb | netlist::Topology::kConst))) continue;
        const auto fi = topo.fanins(g);
        v[g] = logic::eval_op_indirect(topo.op(g), fi.size(),
                                       [&](std::size_t k) { return v[fi[k]]; });
    }
}

}  // namespace seqlearn::sim
