#pragma once
// The seqlearn facade: a cheap per-request object over a shared Design.
//
// The pipeline is a single arc — learn an implication database, feed it to
// ATPG, validate with fault simulation. The immutable circuit structure
// lives in an api::Design (one CSR Topology, levelized once, plus clock
// classes and collapsed faults); a Session adds only the per-run state: a
// lazily-built fault simulator (ATPG solves are free functions over the
// Topology), a thread pool, a cancel flag, cached results and its learned
// data — one shared, immutable core::LearnedSnapshot.
// Constructing a Session from a shared Design costs microseconds, so N
// Sessions over one Design can serve N concurrent requests — each produces
// results bit-identical to a serial run, because everything they share is
// const.
//
//     api::DesignPtr design = api::DesignBuilder(std::move(nl)).build();
//     api::Session session(design);
//     session.learn();                       // implication DB + ties
//     const api::AtpgReport& r = session.atpg();
//     api::FaultSimReport v = session.fault_sim();   // independent check
//     session.save_db("circuit.learned");
//
//     // hand the learned result to other Sessions over the same Design:
//     api::Session other(design);
//     other.use_learned(session.freeze_learned());   // no copy, no learning
//
// Results are cached: learn() and atpg() run once and return the stored
// result on later calls; the config-taking overloads force a re-run. A
// ProgressObserver receives stem-granular callbacks during learning,
// fault-granular callbacks during ATPG, and sequence-granular callbacks
// during fault-sim validation, and can cancel any stage by returning false.

#include "api/design.hpp"
#include "atpg/atpg_loop.hpp"
#include "core/learned_snapshot.hpp"
#include "core/seq_learn.hpp"
#include "exec/budget.hpp"
#include "exec/cancel.hpp"
#include "exec/failpoint.hpp"
#include "exec/outcome.hpp"
#include "exec/pool.hpp"
#include "fault/collapse.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/clock_class.hpp"
#include "netlist/netlist.hpp"
#include "netlist/topology.hpp"

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

namespace seqlearn::api {

/// Which pipeline stage a progress callback refers to.
enum class Stage : std::uint8_t {
    Learn,     ///< single-node learning; units are fanout stems
    Atpg,      ///< deterministic generation; units are targeted faults
    FaultSim,  ///< validation; units are test sequences
};

struct Progress {
    Stage stage = Stage::Learn;
    std::size_t done = 0;   ///< units completed so far
    std::size_t total = 0;  ///< units the stage will process
};

/// Stage observer; return false to cancel the running stage (partial
/// results are kept; the stage's outcome says Cancelled). Whatever
/// the stage's thread count, callbacks are delivered serialized on the
/// thread that called the stage method, in canonical unit order — an
/// observer needs no locking of its own. A false return raises the
/// Session's atomic cancel flag, which parallel workers observe at their
/// next chunk boundary.
using ProgressObserver = std::function<bool(const Progress&)>;

/// One configuration for the whole flow. The nested atpg config's `learned`
/// and `on_fault` fields are managed by the Session (learned data is wired
/// in automatically for modes that use it), as are its `executor` field
/// (the Session's pool) and both stage configs' `cancel` fields (the
/// Session's cancel flag); everything else passes through.
struct SessionConfig {
    core::LearnConfig learn;
    atpg::AtpgConfig atpg;
    ProgressObserver progress;
    /// Workers of the Session's one exec::Pool (0 = hardware_concurrency),
    /// which ATPG and fault simulation both run on; N-thread results are
    /// bit-identical to 1-thread results. Learning always runs on the
    /// calling thread.
    unsigned threads = 0;
    /// Session-wide default run budget, inherited by any stage whose own
    /// config leaves `budget` empty. Each stage materializes its own clock
    /// at stage entry (the deadline is per stage, not per session).
    exec::BudgetSpec budget;
    /// Session-wide fault-injection harness default (robustness tests only;
    /// null in production), inherited like `budget`.
    exec::FailurePoint* failpoint = nullptr;
};

/// Campaign result: the fault list with final statuses plus the outcome
/// counters and generated tests.
struct AtpgReport {
    fault::FaultList list;
    atpg::AtpgOutcome outcome;
    /// Whether the campaign ran with learned data (and hence validated its
    /// tests against the tie-augmented good machine). fault_sim() replays
    /// the same expected-value model.
    bool used_learned = false;
};

/// FNV-1a digest of a full campaign: every fault status in list order, then
/// every generated test vector (length-prefixed). Sensitive to any change in
/// search order, windowing, validation, or simulation — the determinism
/// goldens and the serving protocol's `campaign_digest` field both use this.
std::uint64_t campaign_digest(const AtpgReport& report);

/// Independent validation result from fault-simulating a test set.
struct FaultSimReport {
    std::size_t total = 0;     ///< collapsed faults simulated
    std::size_t detected = 0;  ///< faults the test set detects
    std::size_t sequences = 0;
    double fault_coverage = 0.0;  ///< detected / total
    /// How validation ended (cancel, budget, injected failure, or clean).
    /// On any early stop the counts above cover only the sequences fully
    /// simulated before the cut — a sound lower bound on coverage.
    exec::RunOutcome outcome;
};

/// Aggregate view over everything the Session has computed so far.
struct SessionStats {
    netlist::Netlist::Counts circuit;
    std::size_t gates = 0;  ///< all netlist nodes
    std::size_t stems = 0;
    std::size_t levels = 0;
    std::size_t clock_classes = 0;
    std::size_t collapsed_faults = 0;
    bool learned = false;
    core::LearnStats learn;  ///< zeros until learned
    std::size_t relations = 0;
    std::size_t ties = 0;
    bool atpg_run = false;
    fault::FaultList::Counts faults;  ///< zeros until atpg_run
    double test_coverage = 0.0;
    std::size_t tests = 0;
    /// Generated-pattern shape (zeros until atpg_run): pattern count equals
    /// `tests`; `pattern_frames` is the total frame count across all tests
    /// (the tester-time proxy); compaction_before/after report the static
    /// compaction pass (both 0 when it did not run).
    std::size_t pattern_frames = 0;
    std::size_t compaction_before = 0;
    std::size_t compaction_after = 0;
    /// How the cached learn / ATPG runs ended (Completed when never run —
    /// check `learned` / `atpg_run` to distinguish "clean" from "not yet").
    exec::RunOutcome learn_outcome;
    exec::RunOutcome atpg_outcome;

    /// Approximate heap footprint: the shared Design's components (charged
    /// once however many Sessions share it) plus the learned snapshot this
    /// Session holds and its own scratch — what a serving cache and its
    /// session pool account against a memory cap.
    struct Memory {
        Design::MemoryFootprint design;  ///< shared, charged per Design
        std::size_t learned_bytes = 0;   ///< the held snapshot (0 when none);
                                         ///< shared with every Session holding it
        std::size_t scratch_bytes = 0;   ///< fault simulator + cached ATPG report
        std::size_t total() const noexcept {
            return design.total() + learned_bytes + scratch_bytes;
        }
    };
    Memory memory;
};

class Session {
public:
    /// Attach to a shared immutable Design — the cheap constructor (no
    /// levelization, no analysis; the fault simulator is built on first use).
    /// Any number of Sessions may share one Design concurrently. Throws
    /// std::invalid_argument on a null design.
    explicit Session(DesignPtr design, SessionConfig cfg = {});

    /// Convenience: take ownership of `nl` and compile a private Design
    /// for this Session (levelizing once). Prefer building the Design
    /// yourself when several Sessions will share the circuit.
    explicit Session(netlist::Netlist nl, SessionConfig cfg = {});

    Session(Session&&) noexcept = default;
    Session& operator=(Session&&) noexcept = default;

    // --- shared structure (all forwarded from the immutable Design) -------
    const Design& design() const noexcept { return *design_; }
    /// The shared handle — pass it to other threads to open more Sessions.
    const DesignPtr& design_ptr() const noexcept { return design_; }
    const netlist::Netlist& netlist() const noexcept { return design_->netlist(); }
    const netlist::Topology& topology() const noexcept { return design_->topology(); }
    const std::vector<netlist::ClockClass>& clock_classes() const noexcept {
        return design_->clock_classes();
    }
    const fault::CollapsedFaults& collapsed_faults() const noexcept {
        return design_->collapsed_faults();
    }

    // --- the lazily-built fault simulator (over the shared Topology) ------
    /// ATPG validates on it and its per-worker clones.
    fault::FaultSimulator& fault_simulator();

    // --- the flow ---------------------------------------------------------
    /// The held learned data, learning with cfg.learn first when the
    /// Session holds none. Only a *complete* held result satisfies this
    /// call: when it ended early (cancelled / budget / failed), learning
    /// re-runs from scratch — a cancelled Session stays reusable. Use
    /// resume_learn() to continue a budgeted run instead of restarting, and
    /// save_db() to persist a partial result without triggering a re-run.
    /// Never throws for run-time failures: inspect LearnResult::outcome.
    const core::LearnResult& learn();
    /// Re-run learning with an explicit config. The result replaces the
    /// held snapshot in this Session only; other holders of the old
    /// snapshot keep it unchanged.
    const core::LearnResult& learn(const core::LearnConfig& lcfg);
    /// True when the Session holds learned data (from learn(),
    /// resume_learn(), load_db() or use_learned()), complete or not.
    bool has_learned() const noexcept { return learned_ != nullptr; }

    /// The held learned data as a shareable snapshot, learning first only
    /// when the Session holds none or holds an incomplete result. Returns
    /// the held pointer itself (no copy): pass it to use_learned() on other
    /// Sessions over the same Design.
    std::shared_ptr<const core::LearnedSnapshot> freeze_learned();

    /// Load a serialized checkpoint (core::db_io text format) and resume it
    /// with cfg.learn, holding the (possibly again partial) result like
    /// learn() does. cfg.learn must have the same result-affecting fields as
    /// the run that produced the checkpoint (execution fields: budget /
    /// cancel / callbacks may differ freely) and the Design's circuit must be
    /// the checkpoint's; throws std::invalid_argument otherwise. A resumed
    /// run completes to the same final db/ties the uninterrupted run would
    /// have produced. Throws std::runtime_error on malformed input or an
    /// unreadable path.
    const core::LearnResult& resume_learn(std::istream& in);
    const core::LearnResult& resume_learn(const std::string& path);

    /// Serialize the held partial result for a later resume_learn(). Throws
    /// std::logic_error when the session holds no resumable result (no
    /// learned data, a complete result, or a Failed one — after an unwind
    /// the exact stop point is unknown).
    void save_checkpoint(std::ostream& out);
    void save_checkpoint(const std::string& path);

    /// Run the ATPG campaign once (cached) with cfg.atpg. Modes that use
    /// learned data trigger learn() automatically (which serves the held
    /// snapshot — the learn-once / ATPG-many flow). Like learn(),
    /// a cached campaign that ended early does not satisfy this call — the
    /// campaign re-runs. Never throws for run-time failures: inspect
    /// AtpgOutcome::run.
    const AtpgReport& atpg();
    /// Re-run the campaign with an explicit config; replaces the cache.
    const AtpgReport& atpg(atpg::AtpgConfig acfg);

    /// Fault-simulate the last campaign's test set (running atpg() first if
    /// needed) against a fresh fault list — the independent validation step.
    /// Uses the same expected-value model the campaign validated against:
    /// tie-augmented only when that campaign used learned data.
    FaultSimReport fault_sim();
    /// Fault-simulate an explicit test set. The good machine is
    /// tie-augmented when this session has learned data (see has_learned()).
    /// With ties, a fault stuck at the value its line is tied to from cycle
    /// 0 is never detected and gets no simulation lane; the counts are those
    /// of simulating every fault.
    FaultSimReport fault_sim(std::span<const sim::InputSequence> tests);

    SessionStats stats();

    /// Ask the running stage to stop at its next work-item boundary. Safe
    /// from any thread (the one place a Session may be touched concurrently
    /// with a running stage). The flag re-arms when the next stage starts;
    /// a cancelled stage keeps its partial results, exactly as if the
    /// progress observer had returned false.
    void request_cancel() noexcept { cancel_->request(); }

    // --- learned-data persistence (core::db_io) ---------------------------
    /// Save the held learned data (learning first if there is none) in the
    /// name-keyed text format — archival, diffable, robust across mild
    /// netlist edits. A partial result from an interrupted run is saved
    /// as-is — every relation and tie in it is sound — without triggering a
    /// re-run.
    void save_db(std::ostream& out);
    void save_db(const std::string& path);
    /// Save in the gate-id-keyed binary v2 format instead: an order of
    /// magnitude faster to load, but bound to this exact netlist by digest
    /// (see core::save_learned_binary). The stream must be binary-mode.
    void save_db_binary(std::ostream& out);
    void save_db_binary(const std::string& path);
    /// Load a saved DB — either format, sniffed by magic — as this session's
    /// learned data (replacing what it held); returns the number of skipped
    /// entries naming unknown gates (always 0 for binary files, which reject
    /// mismatches wholesale). Throws std::runtime_error on malformed input
    /// or an unreadable path.
    std::size_t load_db(std::istream& in);
    std::size_t load_db(const std::string& path);

    /// Hold `snap` as this session's learned data without copying it
    /// (replacing what it held). This is how learned knowledge reaches other
    /// Sessions over the same Design — a serving cache's later requests, or
    /// N concurrent campaigns — with no Design rebuild and no O(relations)
    /// copy. Pass nullptr to drop the held data (the next learn() learns).
    void use_learned(std::shared_ptr<const core::LearnedSnapshot> snap);

private:
    const core::LearnResult* active_learned() const noexcept {
        return learned_ ? &learned_->result() : nullptr;
    }
    FaultSimReport fault_sim(std::span<const sim::InputSequence> tests, bool with_ties);
    /// cfg_'s progress observer, cancel flag, budget and failpoint wired
    /// into `lcfg`, with the cancel flag re-armed.
    core::LearnConfig governed(const core::LearnConfig& lcfg);
    const core::LearnResult& hold(core::LearnResult result);
    /// The Session's pool of cfg_.threads workers, built on first use.
    exec::Pool* pool();

    DesignPtr design_;
    SessionConfig cfg_;
    std::optional<fault::FaultSimulator> fsim_;
    // The one home of this Session's learned data: produced by learn() /
    // resume_learn() / load_db(), or adopted from elsewhere by use_learned().
    std::shared_ptr<const core::LearnedSnapshot> learned_;
    std::optional<AtpgReport> atpg_;
    // The pool ATPG and fault simulation run on (built once, on first use)
    // and the stage cancel flag; both heap-allocated so pointers handed to
    // the stages stay stable across Session moves.
    std::unique_ptr<exec::Pool> pool_;
    std::unique_ptr<exec::CancelFlag> cancel_;
};

}  // namespace seqlearn::api
