#pragma once
// The sequential learner — the paper's top-level contribution.
//
// Pipeline (per clock class, Section 3.3.2):
//   1. identify combinational gate equivalences (parallel patterns + proof);
//   2. single-node learning over every fanout stem (inject 0/1, simulate
//      forward up to max_frames, extract same-frame relations by the
//      contrapositive law, detect ties, collect stem records);
//   3. multiple-node learning over the recorded (node, value) targets,
//      exploiting ties and equivalences learned so far.
// Results: an implication database (FF-FF relations double as invalid-state
// relations), a tie-gate set with untestable-fault derivation, equivalence
// links, and the statistics Table 3 reports.

#include "core/equivalence.hpp"
#include "core/impl_db.hpp"
#include "core/multiple_node.hpp"
#include "core/single_node.hpp"
#include "core/tie.hpp"
#include "netlist/topology.hpp"

#include <functional>
#include <memory>
#include <string>

namespace seqlearn::core {

/// Progress observer: (units done, total units). Return false to cancel the
/// running pass; partial results are kept and their outcome says Cancelled.
using ProgressFn = std::function<bool(std::size_t done, std::size_t total)>;

/// Learning runs on the calling thread: a tie learned at one stem is a
/// simulation fact for every later stem, so the schedule is serial (see
/// core/learn_pass.hpp).
struct LearnConfig {
    /// Optional cooperative stop switch, polled at stem/target boundaries;
    /// request() is safe from any thread.
    exec::CancelFlag* cancel = nullptr;
    /// Run budget (wall-clock deadline / item limit), polled at
    /// the same stem/target boundaries as `cancel`. An exceeded budget stops
    /// the pass at a stem/target boundary; the partial result is an exact
    /// prefix of the serial schedule and carries a resume cursor.
    exec::BudgetSpec budget;
    /// Fault-injection harness for the robustness test suite (null in
    /// production). Polled before each batch simulation.
    exec::FailurePoint* failpoint = nullptr;
    /// Forward-simulation depth of both passes (the paper's experiments use
    /// 50).
    std::uint32_t max_frames = 50;
    /// Run the multiple-node pass.
    bool multiple_node = true;
    /// Identify and exploit combinational gate equivalences.
    bool use_equivalences = true;
    /// SAT learn mode: after the frame-simulation passes, mine ties and
    /// implications beyond the simulated window with failed-literal probes
    /// over a K-frame CNF unrolling (K = sat_frames; 0 = off). Facts land
    /// at frame tag K-1, so pick K deeper than max_frames reaches to learn
    /// something new. Result-affecting (part of the config digest); a run
    /// stopped inside this phase keeps its facts but is not resumable.
    std::uint32_t sat_frames = 0;
    /// Per-stem progress observer for the single-node pass (stem
    /// granularity; a resumed run counts on from its cursor; cancellation
    /// supported). Null = no observation.
    ProgressFn on_stem;
};

struct LearnStats {
    std::size_t stems = 0;
    std::size_t stems_processed = 0;
    /// Sequential relations (frame >= 1), the paper's Table 3 metric.
    std::size_t ff_ff_relations = 0;
    std::size_t gate_ff_relations = 0;
    /// Relations learned at frame 0 (combinational by-products).
    std::size_t comb_relations = 0;
    std::size_t ties_combinational = 0;
    std::size_t ties_sequential = 0;
    std::size_t equiv_classes = 0;
    std::size_t multi_targets = 0;
    std::size_t multi_relations = 0;
    std::size_t multi_ties = 0;
    /// SAT learn mode (sat_frames > 0): failed-literal probes run, and the
    /// new ties / implication relations they mined.
    std::size_t sat_probes = 0;
    std::size_t sat_ties = 0;
    std::size_t sat_relations = 0;
    double cpu_seconds = 0.0;
};

/// Where an interrupted learning run stopped, in terms of the deterministic
/// serial schedule: clock class `class_index`, single-node or multiple-node
/// phase, next unprocessed stem/target index. Only meaningful when `valid`
/// (a Completed or Failed run has no cursor). `config_digest` fingerprints
/// the result-affecting LearnConfig fields and `circuit` names the netlist
/// the run learned, so a resume under a different configuration or on a
/// different circuit is rejected instead of silently diverging.
struct LearnCursor {
    bool valid = false;
    std::size_t class_index = 0;
    bool in_multi = false;
    std::size_t unit = 0;
    std::uint64_t config_digest = 0;
    std::string circuit;
};

/// The learned data of one run. A stopped run's result is also its
/// checkpoint: the cursor, the interrupted class's stem records and the
/// progress counters in `stats` (stems_processed, multi_targets,
/// multi_relations, multi_ties) are everything resume_learn needs besides
/// the DB and the ties; core::db_io serializes exactly those fields.
struct LearnResult {
    ImplicationDB db;
    TieSet ties;
    EquivResult equivalences;
    LearnStats stats;
    /// How the run ended. Partial results (non-ok, valid cursor) are exact
    /// prefixes of the serial schedule and valid ATPG input.
    exec::RunOutcome outcome;
    /// Resume cursor for interrupted runs (see resume_learn).
    LearnCursor cursor;
    /// The interrupted class's stem records, carried out so a checkpoint can
    /// resume mid-class. Empty for completed or failed runs.
    StemRecords records{0};

    LearnResult(std::size_t num_gates) : db(num_gates), ties(num_gates) {}

    /// Approximate heap bytes of the learned data (implication DB, dense tie
    /// vectors, equivalence links) — the result's share of a serving cache
    /// entry or a Session's memory accounting.
    std::size_t memory_bytes() const noexcept {
        return db.memory_bytes() + ties.memory_bytes() +
               equivalences.rep.capacity() * sizeof(netlist::GateId) +
               equivalences.inverted.capacity() / 8;
    }
};

/// Digest of the LearnConfig fields that affect learning *results* (depth,
/// passes, SAT frames). Execution-only fields — cancel, budget, failpoint,
/// callbacks — are excluded: results are bit-identical across them, so a
/// checkpoint taken under one is resumable under another.
std::uint64_t learn_config_digest(const LearnConfig& cfg);

/// Run the full learning pipeline on `nl` over a caller-provided CSR
/// snapshot — the primary entry point. A Session passes its shared Topology
/// so the circuit is levelized exactly once across learn/ATPG/fault-sim.
/// Never throws past this boundary: exceptions (including injected faults)
/// are captured into a Failed outcome with the committed prefix intact.
LearnResult learn(const netlist::Netlist& nl, const netlist::Topology& topo,
                  const LearnConfig& cfg = {});

/// Continue the stopped run `partial` (a learn() result with a valid
/// cursor, or one read back by core::load_checkpoint); its DB, ties and
/// records are moved in, not copied. The combined run (original up to the
/// cursor, then this) produces bit-identical results to a single
/// uninterrupted learn() with the same config. Throws
/// std::invalid_argument when `partial` has no cursor or does not match the
/// netlist (name or size) or the config digest.
LearnResult resume_learn(const netlist::Netlist& nl, const netlist::Topology& topo,
                         const LearnConfig& cfg, LearnResult partial);

}  // namespace seqlearn::core
