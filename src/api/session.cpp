#include "api/session.hpp"

#include "core/db_io.hpp"
#include "util/atomic_file.hpp"
#include "util/bytes.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace seqlearn::api {

Session::Session(DesignPtr design, SessionConfig cfg)
    : design_(std::move(design)),
      cfg_(std::move(cfg)),
      cancel_(std::make_unique<exec::CancelFlag>()) {
    if (!design_) throw std::invalid_argument("Session: null design");
}

Session::Session(netlist::Netlist nl, SessionConfig cfg)
    : Session(DesignBuilder(std::move(nl)).build(), std::move(cfg)) {}

exec::Pool* Session::pool() {
    if (!pool_) pool_ = std::make_unique<exec::Pool>(cfg_.threads);
    return pool_.get();
}

fault::FaultSimulator& Session::fault_simulator() {
    if (!fsim_) {
        fsim_.emplace(design_->topology());
        fsim_->set_executor(pool());
    }
    return *fsim_;
}

const core::LearnResult& Session::learn() {
    // Only a complete held result satisfies the no-arg call: returning a
    // partial (cancelled / budget-stopped / failed) result as if it were
    // final would silently starve every downstream stage of relations. A
    // caller who wants the partial data reads it through the learn(cfg)
    // return value, save_db(), or resume_learn().
    if (learned_ && learned_->result().outcome.ok()) return learned_->result();
    return learn(cfg_.learn);
}

const core::LearnResult& Session::learn(const core::LearnConfig& lcfg) {
    const core::LearnConfig cfg = governed(lcfg);
    return hold(core::learn(design_->netlist(), design_->topology(), cfg));
}

const core::LearnResult& Session::resume_learn(std::istream& in) {
    core::LearnResult partial = core::load_checkpoint(in, netlist());
    const core::LearnConfig cfg = governed(cfg_.learn);
    return hold(core::resume_learn(design_->netlist(), design_->topology(), cfg,
                                   std::move(partial)));
}

const core::LearnResult& Session::resume_learn(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("Session::resume_learn: cannot read " + path);
    return resume_learn(in);
}

void Session::save_checkpoint(std::ostream& out) {
    if (!learned_ || !learned_->result().cursor.valid)
        throw std::logic_error("Session::save_checkpoint: no resumable learn result");
    core::save_checkpoint(out, netlist(), learned_->result());
}

void Session::save_checkpoint(const std::string& path) {
    // Serialize first, then replace the file atomically: a crash (or a full
    // disk) mid-save must never truncate an existing checkpoint in place.
    std::ostringstream out;
    save_checkpoint(out);
    std::string error;
    if (!util::atomic_write_file(path, out.view(), &error, cfg_.failpoint))
        throw std::runtime_error("Session::save_checkpoint: " + error);
}

core::LearnConfig Session::governed(const core::LearnConfig& lcfg) {
    core::LearnConfig cfg = lcfg;
    if (cfg_.progress && !cfg.on_stem) {
        cfg.on_stem = [this](std::size_t done, std::size_t total) {
            const bool keep_going = cfg_.progress({Stage::Learn, done, total});
            if (!keep_going) cancel_->request();
            return keep_going;
        };
    }
    cancel_->reset();
    cfg.cancel = cancel_.get();
    if (!cfg.budget.any()) cfg.budget = cfg_.budget;
    if (cfg.failpoint == nullptr) cfg.failpoint = cfg_.failpoint;
    return cfg;
}

const core::LearnResult& Session::hold(core::LearnResult result) {
    use_learned(core::freeze_learned(std::move(result)));
    return learned_->result();
}

std::shared_ptr<const core::LearnedSnapshot> Session::freeze_learned() {
    learn();
    return learned_;
}

void Session::use_learned(std::shared_ptr<const core::LearnedSnapshot> snap) {
    // The fault simulator may still carry the previous data's ties: drop
    // them so nothing simulates against stale facts. Facade paths re-set
    // ties on use.
    if (fsim_) fsim_->set_good_ties(nullptr, nullptr);
    learned_ = std::move(snap);
}

const AtpgReport& Session::atpg() {
    // Same staleness rule as learn(): a campaign that ended early does not
    // satisfy the no-arg call — re-run rather than hand back partial
    // coverage as if it were final.
    if (atpg_ && atpg_->outcome.run.ok()) return *atpg_;
    return atpg(cfg_.atpg);
}

const AtpgReport& Session::atpg(atpg::AtpgConfig acfg) {
    // Modes that consume learned data get this session's held learned data
    // wired in (learning on demand when it holds none); an explicit
    // cfg.learned — e.g. data brought in through load_db on another session
    // — is respected as-is. Mode None stays a true no-learning baseline.
    if (acfg.mode != atpg::LearnMode::None && acfg.learned == nullptr) {
        acfg.learned = &learn();
    }
    if (cfg_.progress && !acfg.on_fault) {
        acfg.on_fault = [this](std::size_t done, std::size_t total) {
            const bool keep_going = cfg_.progress({Stage::Atpg, done, total});
            if (!keep_going) cancel_->request();
            return keep_going;
        };
    }
    cancel_->reset();
    acfg.cancel = cancel_.get();
    if (!acfg.budget.any()) acfg.budget = cfg_.budget;
    if (acfg.failpoint == nullptr) acfg.failpoint = cfg_.failpoint;
    // The Design computed SCOAP once at build time; never recompute per run.
    if (acfg.testability == nullptr) acfg.testability = &design_->testability();
    acfg.executor = pool();
    fault::FaultList list(design_->collapsed_faults().representatives());
    atpg::AtpgOutcome outcome = run_atpg(fault_simulator(), list, acfg);
    atpg_.emplace(
        AtpgReport{std::move(list), std::move(outcome), acfg.learned != nullptr});
    return *atpg_;
}

std::uint64_t campaign_digest(const AtpgReport& report) {
    util::Fnv1a h;
    for (std::size_t i = 0; i < report.list.size(); ++i)
        h.mix(static_cast<std::uint64_t>(report.list.status(i)));
    for (const sim::InputSequence& t : report.outcome.tests) {
        h.mix(t.size());
        for (const sim::InputFrame& fr : t)
            for (const logic::Val3 v : fr) h.mix(static_cast<std::uint64_t>(v));
    }
    return h.value;
}

FaultSimReport Session::fault_sim() {
    const AtpgReport& report = atpg();
    // Replay exactly the expected-value model the campaign validated its
    // tests with: tie-augmented only when that campaign used learned data
    // (a LearnMode::None baseline must not gain tie knowledge here).
    return fault_sim(report.outcome.tests, report.used_learned);
}

FaultSimReport Session::fault_sim(std::span<const sim::InputSequence> tests) {
    return fault_sim(tests, has_learned());
}

FaultSimReport Session::fault_sim(std::span<const sim::InputSequence> tests,
                                  bool with_ties) {
    fault::FaultSimulator& fsim = fault_simulator();
    // The tie-augmented good machine closes the 3-valued pessimism gap for
    // learning-aware campaigns (Section 4).
    const core::LearnResult* active = active_learned();
    if (with_ties && active) {
        fsim.set_good_ties(&active->ties.dense(), &active->ties.dense_cycles());
    } else {
        fsim.set_good_ties(nullptr, nullptr);
    }
    fault::FaultList list(design_->collapsed_faults().representatives());
    cancel_->reset();
    // Validation runs under the session-wide budget (it has no per-call
    // config of its own); the simulator additionally polls the same hooks
    // at its internal pass boundaries.
    exec::Budget budget(cfg_.budget);
    exec::Budget* budget_ptr = cfg_.budget.any() ? &budget : nullptr;
    fsim.set_governance(cancel_.get(), budget_ptr, cfg_.failpoint);
    FaultSimReport report;
    try {
        for (const sim::InputSequence& t : tests) {
            const exec::RunStatus st = exec::poll_point(cancel_.get(), budget_ptr);
            if (st != exec::RunStatus::Completed) {
                report.outcome = exec::outcome_from(st, budget_ptr);
                break;
            }
            if (cfg_.progress &&
                !cfg_.progress({Stage::FaultSim, report.sequences, tests.size()})) {
                cancel_->request();
                report.outcome.status = exec::RunStatus::Cancelled;
                break;
            }
            fsim.drop_detected(t, list);
            if (budget_ptr != nullptr) budget_ptr->note_item();
            ++report.sequences;
        }
    } catch (const std::exception& e) {
        report.outcome = exec::RunOutcome::failed(e.what());
    }
    // The Budget above is stack-local: the simulator must not keep pointing
    // at it past this call.
    fsim.set_governance(nullptr, nullptr, nullptr);
    const fault::FaultList::Counts c = list.counts();
    report.total = c.total;
    report.detected = c.detected;
    report.fault_coverage = list.fault_coverage();
    return report;
}

SessionStats Session::stats() {
    SessionStats s;
    s.circuit = netlist().counts();
    s.gates = netlist().size();
    s.stems = design_->stems().size();
    s.levels = topology().max_level();
    s.clock_classes = clock_classes().size();
    s.collapsed_faults = collapsed_faults().size();
    if (const core::LearnResult* active = active_learned()) {
        s.learned = true;
        s.learn = active->stats;
        s.relations = active->db.size();
        s.ties = active->ties.count();
        s.learn_outcome = active->outcome;
    }
    if (atpg_) {
        s.atpg_run = true;
        s.faults = atpg_->list.counts();
        s.test_coverage = atpg_->list.test_coverage();
        s.tests = atpg_->outcome.tests.size();
        s.pattern_frames = atpg_->outcome.pattern_frames;
        s.compaction_before = atpg_->outcome.compaction_before;
        s.compaction_after = atpg_->outcome.compaction_after;
        s.atpg_outcome = atpg_->outcome.run;
    }
    s.memory.design = design_->memory_footprint();
    if (learned_) s.memory.learned_bytes = learned_->memory_bytes();
    if (fsim_) s.memory.scratch_bytes += fsim_->memory_bytes();
    if (atpg_) {
        s.memory.scratch_bytes += atpg_->list.size() * (sizeof(fault::Fault) + 1) +
                                  atpg_->outcome.tests.capacity() * sizeof(sim::InputSequence);
        for (const sim::InputSequence& t : atpg_->outcome.tests) {
            s.memory.scratch_bytes += t.capacity() * sizeof(sim::InputFrame);
            for (const sim::InputFrame& f : t) s.memory.scratch_bytes += f.capacity();
        }
    }
    return s;
}

void Session::save_db(std::ostream& out) {
    // Use the held result even when partial — every relation and tie a
    // stopped run committed is sound, and forcing a re-run here would throw
    // away exactly the work the caller is trying to persist.
    const core::LearnResult* active = active_learned();
    const core::LearnResult& r = active != nullptr ? *active : learn();
    core::save_learned(out, netlist(), r.db, r.ties);
}

void Session::save_db(const std::string& path) {
    // Atomic temp+rename: a crash mid-save leaves the previous snapshot
    // intact instead of a torn file.
    std::ostringstream out;
    save_db(out);
    std::string error;
    if (!util::atomic_write_file(path, out.view(), &error, cfg_.failpoint))
        throw std::runtime_error("Session::save_db: " + error);
}

void Session::save_db_binary(std::ostream& out) {
    const core::LearnResult* active = active_learned();
    const core::LearnResult& r = active != nullptr ? *active : learn();
    core::save_learned_binary(out, netlist(), r.db, r.ties);
}

void Session::save_db_binary(const std::string& path) {
    std::ostringstream out(std::ios::binary);
    save_db_binary(out);
    std::string error;
    if (!util::atomic_write_file(path, out.view(), &error, cfg_.failpoint))
        throw std::runtime_error("Session::save_db_binary: " + error);
}

std::size_t Session::load_db(std::istream& in) {
    core::LoadedLearned loaded = core::load_learned_any(in, netlist());
    core::LearnResult result(netlist().size());
    result.db = std::move(loaded.db);
    result.ties = std::move(loaded.ties);
    hold(std::move(result));
    return loaded.skipped_lines;
}

std::size_t Session::load_db(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("Session::load_db: cannot read " + path);
    return load_db(in);
}

}  // namespace seqlearn::api
