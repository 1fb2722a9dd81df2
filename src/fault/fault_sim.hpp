#pragma once
// Sequential stuck-at fault simulation, 63 faults per pass.
//
// Lane 0 of every 64-lane pattern carries the fault-free circuit; lanes
// 1..63 carry faulty circuits (one permanent fault each). All machines run
// from the all-X state under 3-valued semantics. A fault is detected when a
// primary output is binary in both the good and the faulty lane and the two
// values differ (the conservative definition a tester can rely on).
//
// Hot-path design: all structural access goes through the flat CSR
// netlist::Topology (contiguous fanin spans in the 64-lane evaluation loop,
// its strongly-connected-component DAG for fault cones). Fault forcing lives
// in flat per-gate and per-fanin-edge mask arrays that persist on the
// simulator and are cleared entry-by-entry between passes. With ties
// attached, one Topology::propagate_lanes() sweep per pass marks all 63
// fault cones at once (one lane bit per fault, one word per component), and
// only the tied gates are visited to build their lanes. Primary-output
// detection accumulates into one lane mask per pass. Apart from the
// returned flags, run() performs no per-pass heap allocation.

#include "exec/budget.hpp"
#include "exec/cancel.hpp"
#include "exec/failpoint.hpp"
#include "exec/pool.hpp"
#include "fault/fault.hpp"
#include "fault/fault_list.hpp"
#include "logic/pattern.hpp"
#include "netlist/topology.hpp"
#include "sim/comb_engine.hpp"

#include <atomic>
#include <memory>
#include <span>
#include <vector>

namespace seqlearn::fault {

/// Maximum faults per simulation pass (lanes 1..63).
inline constexpr std::size_t kFaultsPerPass = 63;

class FaultSimulator {
public:
    /// Share an existing CSR snapshot (must outlive the simulator) — a
    /// Session hands every engine the same Topology so the circuit is
    /// levelized exactly once. To simulate straight from a Netlist, build a
    /// Topology first (or go through api::Session).
    explicit FaultSimulator(const netlist::Topology& topo);

    /// Fan drop_detected() passes out over `pool` (must outlive the
    /// simulator; null reverts to serial), using at most `max_workers` slots
    /// (0 = all). Worker clones over the shared Topology are built lazily;
    /// run() and detects() always execute on the calling thread.
    void set_executor(exec::Pool* pool, unsigned max_workers = 0);

    /// Attach run-governance hooks for the current stage (all may be null;
    /// the owner clears them when its run ends). drop_detected() polls
    /// cancel/budget at 63-fault pass boundaries and stops early — sound,
    /// since skipping passes only leaves detectable faults undropped — and
    /// polls `failpoint` (FailSite::WorkItem) before each pass.
    void set_governance(const exec::CancelFlag* cancel, exec::Budget* budget,
                        exec::FailurePoint* failpoint) noexcept {
        cancel_ = cancel;
        budget_ = budget;
        failpoint_ = failpoint;
    }

    /// Augment simulation with learned tie facts: gate -> tied value (X =
    /// untied) with per-gate proof cycles (frames before the cycle are not
    /// seeded; null = all combinational). Ties always apply to the good
    /// machine (lane 0); a faulty lane receives a tie only when the tied
    /// gate lies outside that fault's cone — the gates of the components
    /// its component reaches in Topology's condensation DAG — where the
    /// faulty machine behaves identically. This closes the pessimism gap
    /// between the learning-aware ATPG and plain 3-valued validation (the
    /// paper's "pitfalls of necessary assignments" discussion). The tied
    /// gates, values and cycles are read here: call again after editing the
    /// vectors. Vectors must outlive the simulator (worker clones built
    /// later read them too).
    void set_good_ties(const std::vector<Val3>* values,
                       const std::vector<std::uint32_t>* cycles);

    /// Simulate `seq` with up to kFaultsPerPass `faults` injected in
    /// parallel; returns one flag per fault (true = detected).
    std::vector<bool> run(const sim::InputSequence& seq, std::span<const Fault> faults);

    /// True when `seq` detects the single fault `f`.
    bool detects(const sim::InputSequence& seq, const Fault& f);

    /// Fault-simulate `seq` against every Undetected fault of `list`,
    /// marking newly detected ones Detected. Returns how many were dropped.
    /// With an executor attached, the 63-fault passes run in parallel on
    /// per-worker clones into a shared atomic detected-bitmap, merged into
    /// `list` in fault-index order — statuses are bit-identical to the
    /// serial pass at any thread count (detection is a pure union).
    std::size_t drop_detected(const sim::InputSequence& seq, FaultList& list);

    const netlist::Topology& topology() const noexcept { return *topo_; }

    /// Approximate heap bytes of reusable scratch (force masks, tie lanes,
    /// pattern/state vectors, chunk buffers, the detected bitmap), including
    /// lazily built worker clones. Excludes the shared Topology.
    std::size_t memory_bytes() const noexcept;

private:
    void clear_forces();
    std::size_t drop_detected_parallel(const sim::InputSequence& seq, FaultList& list,
                                       std::span<const std::size_t> todo,
                                       std::size_t passes, unsigned workers);

    const netlist::Topology* topo_;

    // Per-gate force flags (bits below); flat force masks per gate (output
    // forces) and per fanin edge (pin forces, indexed topo fanin_offset + pin).
    // Only entries named in forced_gates_ / forced_edges_ are ever nonzero.
    static constexpr std::uint8_t kOutForced = 1;
    static constexpr std::uint8_t kPinForced = 2;
    std::vector<std::uint8_t> force_flags_;
    std::vector<std::uint64_t> out_force1_, out_force0_;
    std::vector<std::uint64_t> pin_force1_, pin_force0_;
    std::vector<netlist::GateId> forced_gates_;
    std::vector<std::uint32_t> forced_edges_;

    const std::vector<Val3>* tie_values_ = nullptr;
    const std::vector<std::uint32_t>* tie_cycles_ = nullptr;
    // Per tied gate (fixed by set_good_ties): the lanes its tie may be
    // asserted in, rebuilt per run.
    struct TieLanes {
        netlist::GateId gate;
        std::uint32_t cycle;
        Val3 value;
        std::uint64_t ones;
        std::uint64_t zeros;
    };
    std::vector<TieLanes> tie_lanes_;
    // gate -> index into tie_lanes_ (or -1); fixed by set_good_ties.
    std::vector<std::int32_t> tie_index_;

    // Reused run() scratch: per-gate patterns, sequential state, and (with
    // ties) per-component fault-cone lane masks.
    std::vector<logic::Pattern> pats_;
    std::vector<logic::Pattern> state_;
    std::vector<std::uint64_t> cone_lanes_;
    // Reused drop_detected() chunk buffers.
    std::vector<std::size_t> chunk_indices_;
    std::vector<Fault> chunk_;

    // Parallel drop_detected: the pool, per-worker clones (lazily built,
    // sharing *topo_), and the atomic detected-bitmap the passes merge into
    // (1 bit per todo position; grown on demand, reused across calls).
    exec::Pool* executor_ = nullptr;
    unsigned executor_max_workers_ = 0;
    const exec::CancelFlag* cancel_ = nullptr;
    exec::Budget* budget_ = nullptr;
    exec::FailurePoint* failpoint_ = nullptr;
    std::vector<std::unique_ptr<FaultSimulator>> workers_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> detected_bits_;
    std::size_t detected_words_ = 0;
};

}  // namespace seqlearn::fault
