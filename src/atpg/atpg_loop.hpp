#pragma once
// The fault-oriented sequential ATPG campaign (paper Section 5.2 setup).
//
// For every undetected fault: optionally prove untestability (tie gates,
// then the combinational-redundancy prover), then attempt generation over an
// iteratively deepened frame window under the configured backtrack limit.
// Every generated sequence is validated by the independent fault simulator
// and then fault-simulated against the whole list so detected faults drop
// (which is why ATPG can "detect" faults it never targeted, exactly as the
// paper describes).

#include "atpg/engine.hpp"
#include "cnf/dispatch.hpp"
#include "core/seq_learn.hpp"
#include "exec/budget.hpp"
#include "exec/cancel.hpp"
#include "exec/failpoint.hpp"
#include "exec/outcome.hpp"
#include "exec/pool.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "guide/fault_order.hpp"
#include "guide/random_tpg.hpp"
#include "guide/testability.hpp"

#include <functional>
#include <vector>

namespace seqlearn::atpg {

struct AtpgConfig {
    /// The pool the campaign's target solves run on (a Session hands over
    /// its one pool); null = the calling thread. Its size is the worker
    /// count: targets are solved a window at a time on per-worker
    /// Engine/FaultSimulator clones and committed in schedule order with
    /// first-detection credit, so a campaign's result is the same at any
    /// worker count. One worker solves and commits each target in turn.
    exec::Pool* executor = nullptr;
    /// Optional cooperative stop switch, polled at target boundaries on the
    /// calling thread; request() is safe from any thread.
    exec::CancelFlag* cancel = nullptr;
    /// Run budget (deadline / item limit), polled at the same target
    /// boundaries as `cancel` and at fault-sim pass boundaries. An exhausted
    /// budget stops the campaign; generated tests and fault statuses
    /// committed so far are kept.
    exec::BudgetSpec budget;
    /// Fault-injection harness for the robustness suite (null in
    /// production); polled inside solves, commits, and fault-sim passes.
    exec::FailurePoint* failpoint = nullptr;
    /// Which engine targets faults. FrameSim is the paper's flow. Sat sends
    /// every target to the CNF timeframe-expansion backend. Auto routes per
    /// fault with the deterministic cost model (cnf::route_to_sat) and
    /// additionally re-dispatches every frame-sim abort to the CNF backend,
    /// so no fault is left merely Aborted while the budget lasts.
    cnf::Backend backend = cnf::Backend::FrameSim;
    /// CNF frame bound K (Sat/Auto backends): a fault with no detecting
    /// sequence of <= K frames is classified untestable-within-K
    /// (FaultStatus::UntestableBounded). 0 = automatic, the deepest frame
    /// window of the campaign schedule.
    std::uint32_t sat_frames = 0;
    /// How learned data is used (paper Table 5's three columns).
    LearnMode mode = LearnMode::None;
    /// Learned data; must be non-null for modes other than None, and is
    /// also consulted (ties) for untestability marking when present.
    const core::LearnResult* learned = nullptr;
    /// Backtrack limit per (fault, window) — the paper uses 30 and 1000.
    std::uint32_t backtrack_limit = 30;
    /// Frame windows tried in order; empty = automatic schedule derived
    /// from the circuit's sequential depth.
    std::vector<std::uint32_t> windows;
    /// Prove untestability (ties + redundancy prover).
    bool identify_untestable = true;
    /// Count c-cycle-redundant faults (stuck at the value of a
    /// *sequentially* tied gate, paper reference [13]) as untestable, as the
    /// paper does. Off by default: such a fault is still detectable within
    /// the first c frames after power-up, so the claim is not strictly
    /// sound under the tester model; combinational (cycle-0) ties are
    /// always counted.
    bool count_c_cycle_redundant = false;
    /// Backtrack budget of the redundancy prover.
    std::uint32_t redundancy_effort = 2000;
    /// Fault-ordering strategy applied to the canonical serial target
    /// schedule (the deterministic fault-index queue). Parallel runs commit
    /// in schedule order, so every strategy is bit-identical at any thread
    /// count; Index reproduces the historical order exactly.
    guide::OrderStrategy order = guide::OrderStrategy::Index;
    /// Seed for OrderStrategy::Random (ignored otherwise).
    std::uint64_t order_seed = 1;
    /// Engine search guidance. None is bit-identical to the historical
    /// goldens; Scoap turns on testability-guided backtrace and D-frontier
    /// selection and feeds SCOAP features to the Auto backend router.
    guide::Guidance guidance = guide::Guidance::None;
    /// Random-pattern warmup: this many deterministic random 24-frame
    /// sequences (xoshiro seeded from a digest of the result-affecting
    /// config) are fault-simulated before deterministic ATPG, bulk-dropping
    /// easy faults (0 = off). The warmup stream is a pure function of the
    /// campaign configuration, so a run is reproducible without choosing a
    /// seed. Real ATPG flows run with this on; the paper-table benches keep
    /// it off so the deterministic-engine deltas stay visible.
    std::size_t rand_warmup = 0;
    /// Static compaction: greedily merge X-compatible test sequences,
    /// re-verify every merge by fault simulation, drop tests that detect
    /// nothing first, then fill remaining X positions per `fill`.
    bool compact = false;
    guide::FillMode fill = guide::FillMode::X;
    /// Precomputed testability (api::Design caches one per circuit). May be
    /// null: the campaign computes its own when a SCOAP consumer
    /// (guidance/ordering) needs it.
    const guide::Testability* testability = nullptr;
    /// Per-fault progress observer: called for each deterministic target
    /// after its solve and before its commit, at every worker count, with
    /// (faults fully processed so far, targets when the loop entered).
    /// Return false to cancel the campaign before that commit; partial
    /// results are kept and the outcome is flagged cancelled. Null = no
    /// observation.
    std::function<bool(std::size_t done, std::size_t total)> on_fault;
};

struct AtpgOutcome {
    std::vector<sim::InputSequence> tests;
    double cpu_seconds = 0.0;
    std::uint64_t total_backtracks = 0;
    std::size_t gen_calls = 0;
    std::size_t targeted_faults = 0;
    /// Engine results rejected by the validating fault simulator (expected
    /// to stay 0; counted for honesty).
    std::size_t invalid_tests = 0;
    std::size_t untestable_by_tie = 0;
    std::size_t untestable_by_proof = 0;
    /// Faults dropped by the config-seeded random warmup (rand_warmup > 0)
    /// and the warmup sequences that earned credit.
    std::size_t detected_by_warmup = 0;
    std::size_t warmup_sequences = 0;
    /// Static compaction bookkeeping: pattern count before/after the pass
    /// (both 0 when compaction was off or never ran).
    std::size_t compaction_before = 0;
    std::size_t compaction_after = 0;
    /// Total test frames across `tests` (after compaction when enabled) —
    /// the tester-time proxy the stats/bench rows report.
    std::size_t pattern_frames = 0;
    /// CNF backend counters (Sat/Auto): faults sent to the SAT phase,
    /// untestability verdicts, and witness sequences it produced (each
    /// validated by the fault simulator before credit).
    std::size_t sat_targeted = 0;
    std::size_t untestable_by_cnf = 0;
    std::size_t sat_witnesses = 0;
    /// One record per untestability proof, in fault-index order — the
    /// provenance the CLI's `untestable` JSON section reports.
    struct UntestableRecord {
        std::size_t fault_index = 0;
        fault::UntestableProof proof = fault::UntestableProof::None;
        /// Frame bound for BoundedCnf proofs; 0 for unbounded proofs.
        std::uint32_t frames = 0;
    };
    std::vector<UntestableRecord> untestable_records;
    /// How the campaign ended. Partial results (tests + statuses committed
    /// before the stop) are valid; Failed means an exception was captured
    /// with the committed state intact. Never throws past run_atpg.
    exec::RunOutcome run;
};

/// Run a campaign over `list` (statuses updated in place) reusing the
/// caller's engine and fault simulator — the zero-rebuild path a Session
/// uses. Both must be built over the same Topology. The simulator's
/// good-machine ties are (re)configured from cfg.learned.
AtpgOutcome run_atpg(Engine& engine, fault::FaultSimulator& fsim, fault::FaultList& list,
                     const AtpgConfig& cfg);

/// Convenience: build the engine and fault simulator over `topo` and run;
/// the simulator's passes also run on cfg.executor.
AtpgOutcome run_atpg(const netlist::Topology& topo, fault::FaultList& list,
                     const AtpgConfig& cfg);

}  // namespace seqlearn::atpg
