#pragma once
// Sequential stuck-at fault simulation, 255 faults per pass.
//
// A pass simulates up to 256 three-valued machines side by side in four
// 64-lane words: lane 0 of word 0 carries the fault-free circuit, lanes
// 1..255 carry faulty circuits (one permanent fault each). All machines run
// from the all-X state. A fault is detected when a primary output is binary
// in both the good and the faulty lane and the two values differ (the
// conservative definition a tester can rely on).
//
// Hot-path design: the simulator compiles netlist::Topology once per tie set
// into a flat schedule of one instruction per non-source gate, in
// Topology::schedule() order. An instruction folds its operands under AND or
// XOR with an input and an output rail swap (OR, NOR, NAND and NOT are AND
// under De Morgan), then ORs in its entry of the tie lanes, whose extra last
// entry is all zero for untied gates. Its operands are three slots — gates
// with fewer than three inputs read two constant slots (all-1 and all-0) kept
// after the gates, and a constant is AND (1) or OR (0) over those alone — or,
// for a gate of more than three inputs, its fanin list. The kernel thus
// branches per gate only on what the instruction holds (AND or XOR, the two
// swaps, three slots or a fanin list), never on the gate's operator, and an
// untied gate ORs in zeros instead of testing for a tie. Each gate is two
// planes of std::array<std::uint64_t, W> words; the template is instantiated
// at W = 4 and at W = 1, and a pass holding at most 63 faults (detects()
// included) runs the narrow one. Faults are a per-pass table of at most 255
// forced gates sorted by slot: each forced gate is re-fixed right after its
// own slot (its instruction folded over copies of its operands that carry its
// pin forces, then its tie, then its output forces), before any later slot
// reads it. With ties attached, one Topology::propagate_lanes() sweep per word
// marks every fault cone of the pass (one lane bit per fault, one word per
// component); each tie's lane masks switch on when the frame reaches its proof
// cycle, so tied gates need no per-gate cycle test. Primary-output detection
// accumulates into one lane mask per word. Apart from run()'s returned flags,
// simulation performs no per-pass heap allocation once its scratch has grown.

#include "exec/budget.hpp"
#include "exec/cancel.hpp"
#include "exec/failpoint.hpp"
#include "exec/pool.hpp"
#include "fault/fault.hpp"
#include "fault/fault_list.hpp"
#include "netlist/topology.hpp"
#include "sim/comb_engine.hpp"

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

namespace seqlearn::fault {

/// 64-lane words per simulation pass.
inline constexpr std::size_t kPassWords = 4;

/// Maximum faults per simulation pass (every lane but the good machine's).
inline constexpr std::size_t kFaultsPerPass = kPassWords * 64 - 1;

/// Three-valued planes of W 64-lane words: (ones, zeros) bit pairs
/// (1,0) = 1, (0,1) = 0, (0,0) = X, as in logic::Pattern.
template <std::size_t W>
struct WideLanes {
    std::array<std::uint64_t, W> ones{};
    std::array<std::uint64_t, W> zeros{};
};

class FaultSimulator {
public:
    /// Share an existing CSR snapshot (must outlive the simulator) — a
    /// Session hands its simulator and its ATPG solves the same Topology so
    /// the circuit is levelized exactly once. To simulate straight from a
    /// Netlist, build a Topology first (or go through api::Session).
    explicit FaultSimulator(const netlist::Topology& topo);

    /// Run drop_detected() passes on `pool` (must outlive the simulator;
    /// null = the calling thread), one pass per worker at a time, worker w
    /// on clone(w); run() and detects() execute on the thread that calls
    /// them.
    void set_executor(exec::Pool* pool);

    /// Make clones 1..workers-1 ready for a stage that fans out over
    /// `workers` workers: built, handed this simulator's compiled schedule
    /// and, with this simulator's own, their scratch reserved, all on the
    /// calling thread. Clones persist
    /// across calls. drop_detected() prepares its own; the ATPG campaign
    /// prepares them before its pool validates tests on them.
    void prepare_clones(std::size_t workers);

    /// Worker w's simulator: this one for w = 0, else clone w (see
    /// prepare_clones). A clone simulates with this simulator's ties.
    FaultSimulator& clone(std::size_t w) { return w == 0 ? *this : *workers_[w - 1]; }

    /// Free the clones drop_detected() has never run passes on: a stage
    /// that fans out wider than the passes (an ATPG campaign) calls this
    /// when it ends, so only the clones the passes reuse stay resident.
    void release_unused_clones() { workers_.resize(pass_clones_); }

    /// Attach run-governance hooks for the current stage (all may be null;
    /// the owner clears them when its run ends). drop_detected() polls
    /// cancel/budget at pass boundaries and stops early — sound, since
    /// skipping passes only leaves detectable faults undropped — and polls
    /// `failpoint` (FailSite::WorkItem) before each pass.
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
    /// paper's "pitfalls of necessary assignments" discussion). Primary
    /// inputs are never tied. The tied gates, values and cycles are compiled
    /// into the schedule here and not read again: call again after editing
    /// the vectors.
    void set_good_ties(const std::vector<Val3>* values,
                       const std::vector<std::uint32_t>* cycles);

    /// Simulate `seq` against `faults` (any number; split internally into
    /// passes of kFaultsPerPass); returns one flag per fault (true =
    /// detected).
    std::vector<bool> run(const sim::InputSequence& seq, std::span<const Fault> faults);

    /// True when `seq` detects the single fault `f`.
    bool detects(const sim::InputSequence& seq, const Fault& f);

    /// Fault-simulate `seq` against every Undetected fault of `list`,
    /// marking newly detected ones Detected. Returns how many were dropped.
    /// The passes of kFaultsPerPass faults run on the executor's workers
    /// (inline without one), each polling the governance hooks first, into
    /// one detected-bitmap merged into `list` in fault-index order, so the
    /// statuses are the same at any worker count (detection is a pure
    /// union).
    std::size_t drop_detected(const sim::InputSequence& seq, FaultList& list);

    const netlist::Topology& topology() const noexcept { return *topo_; }

    /// Approximate heap bytes of the compiled schedule and reusable scratch
    /// (lane values, state, tie lanes, force tables, the pass buffer, the
    /// detected bitmap), including lazily built worker clones. Excludes the
    /// shared Topology.
    std::size_t memory_bytes() const noexcept;

    /// The compiled schedule (defined in fault_sim.cpp); immutable once
    /// built and shared with worker clones.
    struct Schedule;

private:
    using PassLanes = std::array<std::uint64_t, kPassWords>;

    /// Faults of one pass on one gate: output forces (stuck-at-1 lanes in
    /// `out.ones`, stuck-at-0 in `out.zeros`) and its pin forces
    /// pins[pin_begin, pin_end).
    template <std::size_t W>
    struct GateForce {
        std::uint32_t slot;
        std::uint32_t pin_begin;
        std::uint32_t pin_end;
        WideLanes<W> out;
    };
    template <std::size_t W>
    struct PinForce {
        std::uint32_t pin;
        WideLanes<W> lanes;
    };
    /// Reusable per-width simulation scratch.
    template <std::size_t W>
    struct Scratch {
        std::vector<WideLanes<W>> vals;    // per schedule slot, then all-1, all-0
        std::vector<WideLanes<W>> state;   // per sequential element
        std::vector<WideLanes<W>> tie_on;  // per tie, then all zero: lanes it is asserted in
        std::vector<GateForce<W>> gates;
        std::vector<PinForce<W>> pins;
        /// Allocate for a full pass of `sched` without touching the memory.
        void reserve(const Schedule& sched);
        std::size_t bytes() const noexcept;
    };

    const Schedule& schedule();
    /// Reserve this simulator's scratch for a full pass of its schedule.
    void reserve_scratch();
    /// Simulate one pass of at most kFaultsPerPass faults; bit j + 1 of the
    /// returned lanes (word (j + 1) / 64) is fault j's verdict.
    PassLanes simulate_pass(const sim::InputSequence& seq, std::span<const Fault> faults);
    template <std::size_t W>
    PassLanes simulate(Scratch<W>& sc, const sim::InputSequence& seq,
                       std::span<const Fault> faults);

    const netlist::Topology* topo_;
    // Built lazily (tie-free) or by set_good_ties; shared with clones.
    std::shared_ptr<const Schedule> sched_;

    Scratch<1> narrow_;
    Scratch<kPassWords> wide_;
    // Per-pass fault cones: kPassWords segments of one word per component.
    std::vector<std::uint64_t> cone_lanes_;
    // Per-pass fault order (index into the pass, sorted by slot and pin).
    std::vector<std::uint32_t> force_order_;
    // The faults of this simulator's current drop_detected() pass.
    std::vector<Fault> chunk_;

    // drop_detected: the pool (null = the calling thread), per-worker clones
    // (lazily built, sharing *topo_ and the schedule), and the atomic
    // detected-bitmap the passes write into (1 bit per todo position; grown
    // on demand, reused across calls).
    exec::Pool* executor_ = nullptr;
    const exec::CancelFlag* cancel_ = nullptr;
    exec::Budget* budget_ = nullptr;
    exec::FailurePoint* failpoint_ = nullptr;
    std::vector<std::unique_ptr<FaultSimulator>> workers_;
    std::size_t pass_clones_ = 0;  // how many of workers_ drop_detected has used
    std::unique_ptr<std::atomic<std::uint64_t>[]> detected_bits_;
    std::size_t detected_words_ = 0;
};

}  // namespace seqlearn::fault
