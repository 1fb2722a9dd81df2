#pragma once
// The seqlearn facade: a cheap per-request object over a shared Design.
//
// The pipeline is a single arc — learn an implication database, feed it to
// ATPG, validate with fault simulation. The immutable circuit structure
// lives in an api::Design (one CSR Topology, levelized once, plus clock
// classes, collapsed faults and optionally a frozen LearnedSnapshot); a
// Session adds only the mutable per-run state: lazily-built stage engines,
// a thread pool, a cancel flag and cached results. Constructing a Session
// from a shared Design costs microseconds, so N Sessions over one Design
// can serve N concurrent requests — each produces results bit-identical to
// a serial run, because everything they share is const.
//
//     api::DesignPtr design = api::DesignBuilder(std::move(nl)).build();
//     api::Session session(design);
//     session.learn();                       // implication DB + ties
//     const api::AtpgReport& r = session.atpg();
//     api::FaultSimReport v = session.fault_sim();   // independent check
//     session.save_db("circuit.learned");
//
//     // promote the learned result into a Design other Sessions share:
//     auto learned_design =
//         api::DesignBuilder(netlist::Netlist(session.netlist()))
//             .learned(session.freeze_learned())
//             .build();
//
// Results are cached: learn() and atpg() run once and return the stored
// result on later calls; the config-taking overloads force a re-run. A
// ProgressObserver receives stem-granular callbacks during learning,
// fault-granular callbacks during ATPG, and sequence-granular callbacks
// during fault-sim validation, and can cancel any stage by returning false.

#include "api/design.hpp"
#include "atpg/atpg_loop.hpp"
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
/// results are kept; learn/ATPG outcomes carry a cancelled flag). Whatever
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
    /// Convenience flag: true whenever validation ended early, i.e.
    /// !outcome.ok() (kept for report printers).
    bool cancelled = false;
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
    /// once however many Sessions share it) plus this Session's own learned
    /// data and engine scratch — what a serving cache and its session pool
    /// account against a memory cap.
    struct Memory {
        Design::MemoryFootprint design;  ///< shared, charged per Design
        std::size_t learned_bytes = 0;   ///< session-local learned data (0 when
                                         ///< the Design snapshot is the active one
                                         ///< — that's in design.learned_bytes)
        std::size_t scratch_bytes = 0;   ///< this Session's engine scratch
        std::size_t total() const noexcept {
            return design.total() + learned_bytes + scratch_bytes;
        }
    };
    Memory memory;
};

class Session {
public:
    /// Attach to a shared immutable Design — the cheap constructor (no
    /// levelization, no analysis; engines are built lazily on first use).
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

    // --- lazily-built stage engines (all over the shared Topology) --------
    fault::FaultSimulator& fault_simulator();
    atpg::Engine& engine();

    // --- the flow ---------------------------------------------------------
    /// Learned data, session-local results first: this session's learn() /
    /// load_db() result if any, else the Design's frozen snapshot, else
    /// run learning with cfg.learn (caching the result). Only a *complete*
    /// cached result satisfies this call: when the cached run ended early
    /// (cancelled / budget / failed), learning re-runs from scratch — a
    /// cancelled Session stays reusable. Use resume_learn() to continue a
    /// budgeted run instead of restarting, and save_db() to persist a
    /// partial result without triggering a re-run. Never throws for
    /// run-time failures: inspect LearnResult::outcome.
    const core::LearnResult& learn();
    /// Re-run learning with an explicit config; replaces the cached result
    /// (the Design snapshot, if any, is shadowed, never modified).
    const core::LearnResult& learn(const core::LearnConfig& lcfg);
    /// True when learned data is available without running learn(): a
    /// session-local result, an injected snapshot (use_learned), or the
    /// Design's snapshot.
    bool has_learned() const noexcept {
        return learned_ != nullptr || snapshot_ != nullptr ||
               design_->learned() != nullptr;
    }

    /// Freeze the active learned data (learning first if needed) into a
    /// shareable snapshot — the promotion path into DesignBuilder::learned.
    /// The session keeps its own copy and stays usable. When the active
    /// data is already the Design's snapshot, that handle is returned
    /// directly (no copy).
    std::shared_ptr<const core::LearnedSnapshot> freeze_learned();

    /// Resume a budget-interrupted learning run from a checkpoint, caching
    /// the (possibly again partial) result like learn() does. The config —
    /// cfg.learn for the first overload — must have the same result-affecting
    /// fields as the run that produced the checkpoint (execution fields:
    /// budget / cancel / callbacks may differ freely); throws
    /// std::invalid_argument otherwise. A resumed run completes to the same
    /// final db/ties the uninterrupted run would have produced.
    const core::LearnResult& resume_learn(const core::LearnCheckpoint& ckpt);
    const core::LearnResult& resume_learn(const core::LearnCheckpoint& ckpt,
                                          const core::LearnConfig& lcfg);
    /// Load a serialized checkpoint (core::db_io text format) and resume.
    /// Throws std::runtime_error on malformed input or an unreadable path.
    const core::LearnResult& resume_learn(std::istream& in);
    const core::LearnResult& resume_learn(const std::string& path);

    /// Serialize this session's partial learn() result for a later
    /// resume_learn(). Throws std::logic_error when the session holds no
    /// resumable result (no learn() run, a complete one, or a Failed one —
    /// after an unwind the exact stop point is unknown).
    void save_checkpoint(std::ostream& out);
    void save_checkpoint(const std::string& path);

    /// Run the ATPG campaign once (cached) with cfg.atpg. Modes that use
    /// learned data trigger learn() automatically (which prefers the
    /// Design's snapshot — the learn-once / ATPG-many flow). Like learn(),
    /// a cached campaign that ended early does not satisfy this call — the
    /// campaign re-runs. Never throws for run-time failures: inspect
    /// AtpgOutcome::run.
    const AtpgReport& atpg();
    /// Re-run the campaign with an explicit config; replaces the cache.
    const AtpgReport& atpg(atpg::AtpgConfig acfg);
    bool has_atpg() const noexcept { return atpg_.has_value(); }

    /// Fault-simulate the last campaign's test set (running atpg() first if
    /// needed) against a fresh fault list — the independent validation step.
    /// Uses the same expected-value model the campaign validated against:
    /// tie-augmented only when that campaign used learned data.
    FaultSimReport fault_sim();
    /// Fault-simulate an explicit test set. The good machine is
    /// tie-augmented when this session has learned data (see has_learned()).
    FaultSimReport fault_sim(std::span<const sim::InputSequence> tests);

    SessionStats stats();

    /// Ask the running stage to stop at its next work-item boundary. Safe
    /// from any thread (the one place a Session may be touched concurrently
    /// with a running stage). The flag re-arms when the next stage starts;
    /// a cancelled stage keeps its partial results, exactly as if the
    /// progress observer had returned false.
    void request_cancel() noexcept { cancel_->request(); }

    // --- learned-data persistence (core::db_io) ---------------------------
    /// Save the active learned data (learning first if needed) in the
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
    /// learned data (replacing any learn() result and shadowing the Design
    /// snapshot); returns the number of skipped entries naming unknown gates
    /// (always 0 for binary files, which reject mismatches wholesale).
    /// Throws std::runtime_error on malformed input or an unreadable path.
    std::size_t load_db(std::istream& in);
    std::size_t load_db(const std::string& path);

    /// Adopt a frozen snapshot as this session's active learned data without
    /// copying it (shadowing any learn() result and the Design's own
    /// snapshot). This is how a serving cache attaches knowledge learned by
    /// one request to later Sessions over the same cached Design — no Design
    /// rebuild, no O(relations) copy. Pass nullptr to drop back to the
    /// Design snapshot / fresh-learn behaviour.
    void use_learned(std::shared_ptr<const core::LearnedSnapshot> snap);

private:
    /// Session-local learned result, else the injected snapshot, else the
    /// Design snapshot, else null.
    const core::LearnResult* active_learned() const noexcept {
        if (learned_) return learned_.get();
        if (snapshot_) return &snapshot_->result();
        if (const core::LearnedSnapshot* s = design_->learned()) return &s->result();
        return nullptr;
    }
    FaultSimReport fault_sim(std::span<const sim::InputSequence> tests, bool with_ties);
    const core::LearnResult& run_learn(const core::LearnConfig& lcfg,
                                       const core::LearnCheckpoint* ckpt);
    void replace_learned(std::unique_ptr<core::LearnResult> next);
    /// The Session's pool of cfg_.threads workers, built on first use.
    exec::Pool* pool();

    DesignPtr design_;
    SessionConfig cfg_;
    std::optional<fault::FaultSimulator> fsim_;
    std::optional<atpg::Engine> engine_;
    // Heap-allocated so the tie vectors the fault simulator may point at
    // keep a stable address across Session moves.
    std::unique_ptr<core::LearnResult> learned_;
    // Injected via use_learned(): shared learned data adopted without a copy
    // (shadowed by learned_, shadows the Design snapshot).
    std::shared_ptr<const core::LearnedSnapshot> snapshot_;
    std::optional<AtpgReport> atpg_;
    // The pool ATPG and fault simulation run on (built once, on first use)
    // and the stage cancel flag; both heap-allocated so pointers handed to
    // stage engines stay stable across Session moves.
    std::unique_ptr<exec::Pool> pool_;
    std::unique_ptr<exec::CancelFlag> cancel_;
};

}  // namespace seqlearn::api
