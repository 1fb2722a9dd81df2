// The four batch workloads: each parses and compiles its circuits (set-up),
// then repeats its stage calls through api::Session until the run's time is
// spent, checking the outputs of every repeat.
//
//   flow_table5         learn -> ATPG (frame-sim, mode known) -> fault_sim,
//                       on the paper's seven Table 5 circuits
//   faultgrade_gen5378  Session::fault_sim(tests) of seeded random sequences
//   prove_retimed       learn -> ATPG (auto backend, mode known) -> fault_sim
//   learn_gen38417      learn -> binary snapshot save -> load
//
// The traced run adds per-layer spans from the progress callbacks and a
// thread sweep of every stage the workload runs.

#include "workloads.hpp"

#include "api/design.hpp"
#include "api/session.hpp"
#include "core/db_io.hpp"
#include "core/impl_db.hpp"
#include "netlist/bench_io.hpp"
#include "server/json.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

namespace perfbench {

namespace {

namespace sl = seqlearn;
using sl::api::Stage;

struct BatchSpec {
    std::vector<std::string> circuits;
    bool learn = true;        ///< Session::learn in the timed stages
    bool atpg = false;        ///< Session::atpg + Session::fault_sim validation
    bool grade = false;       ///< Session::fault_sim(tests) of seeded sequences
    bool snapshot = false;    ///< binary snapshot save + load in the timed stages
    sl::atpg::AtpgConfig atpg_cfg;
    std::size_t sequences = 0;  ///< graded sequences (grade only)
    std::size_t frames = 24;    ///< frames per graded sequence
    /// Learn-prefix (in stems) for the 1-thread determinism check when a
    /// full 1-thread learn is too slow to run in every repeat; 0 = full.
    std::size_t check_prefix_stems = 0;
    std::size_t min_repeats = 1;  ///< per untraced run
    /// Traced run only: also put the spec's retimed circuits through the
    /// auto backend for the cnf.* metrics.
    bool sat_probe = false;
};

BatchSpec spec_for(const std::string& workload) {
    BatchSpec s;
    sl::atpg::AtpgConfig known;
    known.mode = sl::atpg::LearnMode::KnownValue;
    known.count_c_cycle_redundant = true;
    if (workload == "flow_table5") {
        s.circuits = {"gen953", "gen1269", "gen1423", "rt510a", "rt510b", "rt832", "rtscf"};
        s.atpg = true;
        s.atpg_cfg = known;
        s.min_repeats = 3;
        s.sat_probe = true;
    } else if (workload == "faultgrade_gen5378") {
        s.circuits = {"gen5378"};
        s.learn = false;  // learned once before timing; the repeats grade only
        s.grade = true;
        s.sequences = 32;
    } else if (workload == "prove_retimed") {
        s.circuits = {"rt510a", "rt510b", "rt832"};
        s.atpg = true;
        s.atpg_cfg = known;
        s.atpg_cfg.backend = sl::cnf::Backend::Auto;
        s.min_repeats = 3;
    } else if (workload == "learn_gen38417") {
        s.circuits = {"gen38417"};
        s.snapshot = true;
        s.check_prefix_stems = 1000;
    }
    return s;
}

/// A compiled circuit plus what the repeats check against.
struct Prepared {
    Circuit circuit;
    sl::api::DesignPtr design;
    std::size_t ref_relations = 0;  ///< 1-thread learn (or learn prefix)
    std::uint64_t ref_hash = 0;
    std::shared_ptr<const sl::core::LearnedSnapshot> learned;  ///< grade only
    std::vector<sl::sim::InputSequence> tests;                 ///< grade only
    std::optional<std::uint64_t> ref_digest;  ///< first repeat's campaign digest
};

struct SetupTimes {
    double parse_s = 0.0;
    double build_s = 0.0;
};

SetupTimes compile_all(std::vector<Prepared>& cs) {
    SetupTimes t;
    for (Prepared& c : cs) {
        const Clock::time_point t0 = Clock::now();
        sl::netlist::Netlist nl = sl::netlist::read_bench_string(c.circuit.bench, c.circuit.name);
        const Clock::time_point t1 = Clock::now();
        c.design = sl::api::DesignBuilder(std::move(nl)).build();
        const Clock::time_point t2 = Clock::now();
        t.parse_s += seconds_between(t0, t1);
        t.build_s += seconds_between(t1, t2);
    }
    return t;
}

/// Timestamps of the public progress callbacks, in delivery order.
struct Tracer {
    struct Event {
        Stage stage;
        Clock::time_point t;
    };
    std::vector<Event> events;

    sl::api::ProgressObserver observer() {
        return [this](const sl::api::Progress& p) {
            events.push_back({p.stage, Clock::now()});
            return true;
        };
    }
    /// Events of `stage` delivered in [from, events.size()).
    std::vector<Clock::time_point> since(std::size_t from, Stage stage) const {
        std::vector<Clock::time_point> out;
        for (std::size_t i = from; i < events.size(); ++i)
            if (events[i].stage == stage) out.push_back(events[i].t);
        return out;
    }
};

/// One stage call: its span and the callback timestamps it delivered.
struct Span {
    Clock::time_point begin{}, end{};
    std::vector<Clock::time_point> marks;
    double seconds() const { return seconds_between(begin, end); }
};

/// Stage spans and outputs of one circuit in one repeat.
struct CircuitRun {
    Span learn, atpg, fsim, save, load;
    std::size_t relations = 0, ties = 0, stems = 0;
    std::uint64_t rel_hash = 0;
    bool learn_ok = true;
    /// Results held by the repeat's Session (valid while it lives).
    const sl::core::LearnResult* learned = nullptr;
    const sl::api::AtpgReport* report = nullptr;
    // ATPG + validation
    std::uint64_t digest = 0;
    bool atpg_ok = true, fsim_ok = true;
    std::size_t targets = 0, gen_calls = 0, invalid = 0, tests = 0, frames = 0;
    std::uint64_t backtracks = 0;
    sl::fault::FaultList::Counts counts;
    std::size_t sat_targeted = 0, sat_witnesses = 0, cnf_untestable = 0;
    std::size_t validated = 0, fault_total = 0, sequences = 0;
    double coverage = 0.0;
    // snapshot
    std::size_t snapshot_bytes = 0;
    std::shared_ptr<const sl::core::LoadedLearned> reloaded;
    bool snapshot_ok = true;

    double total_s() const {
        return learn.seconds() + atpg.seconds() + fsim.seconds() + save.seconds() +
               load.seconds();
    }
};

template <typename F>
Span timed(Tracer* tracer, Stage stage, F&& f) {
    Span s;
    const std::size_t first = tracer != nullptr ? tracer->events.size() : 0;
    s.begin = Clock::now();
    f();
    s.end = Clock::now();
    if (tracer != nullptr) s.marks = tracer->since(first, stage);
    return s;
}

/// Runs the timed stage calls of one circuit. The Session stays alive in
/// `session` so the caller can check outputs after the clock stops.
CircuitRun run_circuit(const Prepared& p, const BatchSpec& spec, unsigned threads,
                       Tracer* tracer, std::optional<sl::api::Session>& session) {
    sl::api::SessionConfig cfg;
    cfg.threads = threads;
    cfg.atpg = spec.atpg_cfg;
    if (tracer != nullptr) cfg.progress = tracer->observer();
    session.emplace(p.design, std::move(cfg));
    sl::api::Session& s = *session;
    CircuitRun r;
    if (spec.learn) {
        const sl::core::LearnResult* res = nullptr;
        r.learn = timed(tracer, Stage::Learn, [&] { res = &s.learn(); });
        r.learned = res;
        r.relations = res->db.size();
        r.ties = res->ties.count();
        r.stems = res->stats.stems_processed;
        r.learn_ok = res->outcome.ok();
        if (spec.snapshot) {
            std::string blob;
            r.save = timed(nullptr, Stage::Learn, [&] {
                std::ostringstream out(std::ios::binary);
                sl::core::save_learned_binary(out, s.netlist(), res->db, res->ties);
                blob = std::move(out).str();
            });
            r.load = timed(nullptr, Stage::Learn, [&] {
                std::istringstream in(blob, std::ios::binary);
                r.reloaded = std::make_shared<const sl::core::LoadedLearned>(
                    sl::core::load_learned_any(in, s.netlist()));
            });
            r.snapshot_bytes = blob.size();
        }
    }
    if (spec.atpg) {
        const sl::api::AtpgReport* rep = nullptr;
        r.atpg = timed(tracer, Stage::Atpg, [&] { rep = &s.atpg(); });
        sl::api::FaultSimReport v;
        r.fsim = timed(tracer, Stage::FaultSim, [&] { v = s.fault_sim(); });
        r.report = rep;
        const sl::atpg::AtpgOutcome& o = rep->outcome;
        r.atpg_ok = o.run.ok();
        r.fsim_ok = v.outcome.ok();
        r.targets = o.targeted_faults;
        r.gen_calls = o.gen_calls;
        r.backtracks = o.total_backtracks;
        r.invalid = o.invalid_tests;
        r.tests = o.tests.size();
        r.frames = o.pattern_frames;
        r.sat_targeted = o.sat_targeted;
        r.sat_witnesses = o.sat_witnesses;
        r.cnf_untestable = o.untestable_by_cnf;
        r.counts = rep->list.counts();
        r.validated = v.detected;
        r.fault_total = v.total;
        r.sequences = v.sequences;
        r.coverage = v.fault_coverage;
    }
    if (spec.grade) {
        s.use_learned(p.learned);
        sl::api::FaultSimReport v;
        r.fsim = timed(tracer, Stage::FaultSim, [&] { v = s.fault_sim(p.tests); });
        r.fsim_ok = v.outcome.ok();
        r.validated = v.detected;
        r.fault_total = v.total;
        r.sequences = v.sequences;
        r.coverage = v.fault_coverage;
    }
    return r;
}

/// Output checks of one circuit's repeat (outside the timed region).
void check_circuit(Report& rep, Prepared& p, const BatchSpec& spec, const CircuitRun& r,
                   sl::api::Session& s, bool full_check) {
    const bool full_learn_ref = spec.check_prefix_stems == 0;
    const std::string& n = p.circuit.name;
    if (spec.learn) {
        rep.check(r.learn_ok, n + ": learn did not complete");
        if (full_learn_ref) {
            rep.check(r.relations == p.ref_relations && r.rel_hash == p.ref_hash,
                      n + ": learned relations differ from the 1-thread run");
        }
    }
    if (spec.snapshot) rep.check(r.snapshot_ok, n + ": snapshot round trip differs");
    if (spec.atpg) {
        rep.check(r.atpg_ok && r.fsim_ok, n + ": campaign or validation ended early");
        rep.check(r.invalid == 0, n + ": campaign produced invalid tests");
        if (spec.atpg_cfg.backend == sl::cnf::Backend::Auto)
            rep.check(r.counts.aborted == 0, n + ": auto backend left faults aborted");
        if (!p.ref_digest) p.ref_digest = r.digest;
        rep.check(*p.ref_digest == r.digest, n + ": campaign digest changed across repeats");
        if (full_check) {
            // Every fault the campaign credits must also be detected by an
            // independent replay of its tests on a fresh fault list (the
            // simulator still carries the validation's tie model).
            const sl::api::AtpgReport& report = *r.report;
            sl::fault::FaultList fresh(p.design->collapsed_faults().representatives());
            sl::fault::FaultSimulator& fsim = s.fault_simulator();
            for (const sl::sim::InputSequence& t : report.outcome.tests)
                fsim.drop_detected(t, fresh);
            std::size_t missing = 0;
            for (std::size_t i = 0; i < report.list.size(); ++i) {
                if (report.list.status(i) == sl::fault::FaultStatus::Detected &&
                    fresh.status(i) != sl::fault::FaultStatus::Detected)
                    ++missing;
            }
            rep.check(missing == 0, n + ": " + std::to_string(missing) +
                                        " credited faults not detected by validation");
        }
    }
    if (spec.grade) {
        rep.check(r.fsim_ok, n + ": grading ended early");
        rep.check(r.sequences == p.tests.size(), n + ": not every sequence was graded");
    }
}

/// The 1-thread reference learn the repeats compare against: the full run,
/// or (for circuits where that costs more than a repeat) a budgeted prefix
/// whose N-thread counterpart is checked right away.
void reference_learn(Report& rep, Prepared& p, const BatchSpec& spec, unsigned threads) {
    sl::core::LearnConfig lcfg;
    lcfg.budget.max_items = spec.check_prefix_stems;
    sl::core::LearnResult one = [&] {
        sl::api::SessionConfig c1;
        c1.threads = 1;
        return sl::api::Session(p.design, c1).learn(lcfg);
    }();
    p.ref_relations = one.db.size();
    p.ref_hash = sl::core::relation_hash(one.db);
    if (spec.check_prefix_stems > 0) {
        sl::api::SessionConfig cn;
        cn.threads = threads;
        const sl::core::LearnResult many = sl::api::Session(p.design, cn).learn(lcfg);
        rep.check(many.db.size() == p.ref_relations &&
                      sl::core::relation_hash(many.db) == p.ref_hash,
                  p.circuit.name + ": learn prefix differs from the 1-thread run");
    }
}

/// One repeat over every circuit of the workload.
struct Repeat {
    std::vector<CircuitRun> runs;
    double wall_s = 0.0;
};

Repeat run_repeat(Report& rep, std::vector<Prepared>& cs, const BatchSpec& spec,
                  unsigned threads, Tracer* tracer, bool full_check) {
    Repeat out;
    std::vector<std::optional<sl::api::Session>> sessions(cs.size());
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < cs.size(); ++i)
        out.runs.push_back(run_circuit(cs[i], spec, threads, tracer, sessions[i]));
    out.wall_s = seconds_since(t0);
    for (std::size_t i = 0; i < cs.size(); ++i) {
        CircuitRun& r = out.runs[i];
        if (r.report != nullptr) r.digest = sl::api::campaign_digest(*r.report);
        if (r.learned != nullptr) r.rel_hash = sl::core::relation_hash(r.learned->db);
        if (r.reloaded) {
            r.snapshot_ok = r.reloaded->db.size() == r.relations &&
                            r.reloaded->ties.count() == r.ties &&
                            sl::core::relation_hash(r.reloaded->db) == r.rel_hash;
        }
        check_circuit(rep, cs[i], spec, r, *sessions[i], full_check);
        // The Session (and what these point into) ends with this repeat.
        r.learned = nullptr;
        r.report = nullptr;
        r.reloaded.reset();
    }
    return out;
}

// --- per-layer metrics from one traced repeat ---------------------------------

/// core.* learn metrics: the learn span split at the first and last
/// per-stem callback (equivalence analysis / single-node / multiple-node).
void learn_metrics(Report& rep, const std::vector<CircuitRun>& runs) {
    double learn_s = 0, equiv_s = 0, single_s = 0, multi_s = 0;
    std::size_t relations = 0, ties = 0, stems = 0;
    for (const CircuitRun& r : runs) {
        learn_s += r.learn.seconds();
        if (!r.learn.marks.empty()) {
            equiv_s += seconds_between(r.learn.begin, r.learn.marks.front());
            single_s += seconds_between(r.learn.marks.front(), r.learn.marks.back());
            multi_s += seconds_between(r.learn.marks.back(), r.learn.end);
        }
        relations += r.relations;
        ties += r.ties;
        stems += r.stems;
    }
    rep.metric("core.learn_s", learn_s, "s");
    rep.metric("core.equiv_s", equiv_s, "s");
    rep.metric("core.single_node_s", single_s, "s");
    rep.metric("core.multi_node_s", multi_s, "s");
    rep.metric("core.stems_per_s", single_s > 0 ? static_cast<double>(stems) / single_s : 0.0,
               "1/s");
    rep.metric("core.relations", static_cast<double>(relations), "count");
    rep.metric("core.ties", static_cast<double>(ties), "count");
}

/// The part of a campaign span after the last per-fault callback (last
/// target, SAT phase, compaction) — the whole span when no target reached
/// the frame-sim loop (every fault routed to SAT).
double posttarget_s(const Span& atpg) {
    return atpg.marks.empty() ? atpg.seconds() : seconds_between(atpg.marks.back(), atpg.end);
}

/// cnf.* metrics. The CNF phase runs after the last per-fault callback
/// (auto backend, no compaction), so its proofs are timed against the
/// post-target span.
void cnf_metrics(Report& rep, const std::vector<CircuitRun>& runs) {
    std::size_t sat = 0, witnesses = 0, untestable = 0;
    double post_s = 0.0;
    for (const CircuitRun& r : runs) {
        sat += r.sat_targeted;
        witnesses += r.sat_witnesses;
        untestable += r.cnf_untestable;
        post_s += posttarget_s(r.atpg);
    }
    rep.metric("cnf.sat_targeted", static_cast<double>(sat), "count");
    rep.metric("cnf.witnesses", static_cast<double>(witnesses), "count");
    rep.metric("cnf.untestable", static_cast<double>(untestable), "count");
    rep.metric("cnf.proofs_per_s", sat > 0 ? static_cast<double>(sat) / post_s : 0.0, "1/s");
}

void layer_metrics(Report& rep, const Repeat& traced, const BatchSpec& spec) {
    if (spec.learn) learn_metrics(rep, traced.runs);
    double atpg_s = 0, pre_s = 0, target_s = 0, post_s = 0;
    double fsim_s = 0, save_s = 0, load_s = 0;
    std::size_t snap_bytes = 0;
    std::size_t targets = 0, gen_calls = 0, detected = 0, untestable = 0, aborted = 0;
    std::size_t tests = 0, frames = 0, invalid = 0;
    std::size_t validated = 0, fault_total = 0, sequences = 0;
    std::uint64_t backtracks = 0;
    std::vector<double> target_gaps, seq_gaps;
    for (const CircuitRun& r : traced.runs) {
        save_s += r.save.seconds();
        load_s += r.load.seconds();
        snap_bytes += r.snapshot_bytes;
        if (spec.atpg) {
            atpg_s += r.atpg.seconds();
            const std::vector<Clock::time_point>& m = r.atpg.marks;
            post_s += posttarget_s(r.atpg);
            if (!m.empty()) {
                pre_s += seconds_between(r.atpg.begin, m.front());
                target_s += seconds_between(m.front(), m.back());
            }
            for (std::size_t i = 1; i < m.size(); ++i)
                target_gaps.push_back(1e3 * seconds_between(m[i - 1], m[i]));
        }
        const std::vector<Clock::time_point>& fm = r.fsim.marks;
        for (std::size_t i = 0; i < fm.size(); ++i)
            seq_gaps.push_back(
                1e3 * seconds_between(fm[i], i + 1 < fm.size() ? fm[i + 1] : r.fsim.end));
        fsim_s += r.fsim.seconds();
        targets += r.targets;
        gen_calls += r.gen_calls;
        backtracks += r.backtracks;
        detected += r.counts.detected;
        untestable += r.counts.untestable;
        aborted += r.counts.aborted;
        tests += r.tests;
        frames += r.frames;
        invalid += r.invalid;
        validated += r.validated;
        fault_total += r.fault_total;
        sequences += r.sequences;
    }
    if (spec.snapshot) {
        rep.metric("core.snapshot_save_s", save_s, "s");
        rep.metric("core.snapshot_load_s", load_s, "s");
        rep.metric("core.snapshot_mb", static_cast<double>(snap_bytes) / 1e6, "MB");
    }
    rep.metric("atpg.campaign_s", atpg_s, "s");
    rep.metric("atpg.pretarget_s", pre_s, "s");
    rep.metric("atpg.target_s", target_s, "s");
    rep.metric("atpg.posttarget_s", post_s, "s");
    rep.metric("atpg.target_ms_p50", percentile(target_gaps, 0.5), "ms");
    rep.metric("atpg.target_ms_p99", percentile(target_gaps, 0.99), "ms");
    rep.metric("atpg.targets", static_cast<double>(targets), "count");
    rep.metric("atpg.gen_calls", static_cast<double>(gen_calls), "count");
    rep.metric("atpg.backtracks", static_cast<double>(backtracks), "count");
    rep.metric("atpg.detected", static_cast<double>(detected), "count");
    rep.metric("atpg.untestable", static_cast<double>(untestable), "count");
    rep.metric("atpg.aborted", static_cast<double>(aborted), "count");
    rep.metric("atpg.tests", static_cast<double>(tests), "count");
    rep.metric("atpg.pattern_frames", static_cast<double>(frames), "count");
    rep.metric("atpg.invalid_tests", static_cast<double>(invalid), "count");
    rep.metric("atpg.gen_yield",
               gen_calls > 0 ? static_cast<double>(detected) / gen_calls : 0.0, "ratio");
    if (spec.atpg) {
        rep.metric("atpg.credit_gap",
                   static_cast<double>(validated) - static_cast<double>(detected), "count");
        rep.metric("atpg.fault_coverage",
                   fault_total > 0 ? static_cast<double>(validated) / fault_total : 0.0,
                   "ratio");
    }
    if (spec.atpg) cnf_metrics(rep, traced.runs);
    rep.metric("fault.sim_s", fsim_s, "s");
    rep.metric("fault.sequences", static_cast<double>(sequences), "count");
    rep.metric("fault.seq_ms_p50", percentile(seq_gaps, 0.5), "ms");
    rep.metric("fault.seq_ms_p99", percentile(seq_gaps, 0.99), "ms");
    rep.metric("fault.detected", static_cast<double>(validated), "count");
    rep.metric("fault.coverage",
               fault_total > 0 ? static_cast<double>(validated) / fault_total : 0.0, "ratio");

    double spans = 0.0;
    for (const CircuitRun& r : traced.runs) spans += r.total_s();
    rep.metric("trace.span_gap_pct",
               traced.wall_s > 0 ? 100.0 * (traced.wall_s - spans) / traced.wall_s : 0.0, "%");
}

/// Snapshot save/load timing of the learned data of every circuit, for the
/// workloads whose timed stages do not include it.
void snapshot_metrics(Report& rep, std::vector<Prepared>& cs) {
    double save_s = 0, load_s = 0;
    std::size_t bytes = 0;
    sl::api::SessionConfig cfg;
    cfg.threads = nproc();
    for (Prepared& p : cs) {
        sl::api::Session s(p.design, cfg);
        if (p.learned) s.use_learned(p.learned);
        const sl::core::LearnResult& res = s.learn();
        Clock::time_point t0 = Clock::now();
        std::ostringstream out(std::ios::binary);
        sl::core::save_learned_binary(out, s.netlist(), res.db, res.ties);
        const std::string blob = std::move(out).str();
        save_s += seconds_since(t0);
        t0 = Clock::now();
        std::istringstream in(blob, std::ios::binary);
        const sl::core::LoadedLearned loaded = sl::core::load_learned_any(in, s.netlist());
        load_s += seconds_since(t0);
        bytes += blob.size();
        rep.check(loaded.db.size() == res.db.size(),
                  p.circuit.name + ": snapshot round trip lost relations");
    }
    rep.metric("core.snapshot_save_s", save_s, "s");
    rep.metric("core.snapshot_load_s", load_s, "s");
    rep.metric("core.snapshot_mb", static_cast<double>(bytes) / 1e6, "MB");
}

/// cnf.* metrics from the retimed circuits among `cs` put through the auto
/// backend (the campaign prove_retimed times end to end).
void sat_probe(Report& rep, const std::vector<Prepared>& cs, unsigned threads) {
    const BatchSpec sat = spec_for("prove_retimed");
    std::vector<Prepared> retimed;
    for (const Prepared& p : cs) {
        if (std::find(sat.circuits.begin(), sat.circuits.end(), p.circuit.name) ==
            sat.circuits.end())
            continue;
        retimed.push_back(p);
        retimed.back().ref_digest.reset();
    }
    Tracer tracer;
    cnf_metrics(rep, run_repeat(rep, retimed, sat, threads, &tracer, true).runs);
}

/// Learns every circuit once with the per-stem callback traced.
void traced_learn(Report& rep, std::vector<Prepared>& cs, unsigned threads) {
    Tracer tracer;
    sl::api::SessionConfig cfg;
    cfg.threads = threads;
    cfg.progress = tracer.observer();
    std::vector<CircuitRun> learns;
    for (Prepared& p : cs) {
        sl::api::Session s(p.design, cfg);
        CircuitRun r;
        const sl::core::LearnResult* res = nullptr;
        r.learn = timed(&tracer, Stage::Learn, [&] { res = &s.learn(); });
        r.relations = res->db.size();
        r.ties = res->ties.count();
        r.stems = res->stats.stems_processed;
        learns.push_back(std::move(r));
    }
    learn_metrics(rep, learns);
}

/// netlist.* and api.* metrics from the set-up repeats.
void setup_metrics(Report& rep, const std::vector<Prepared>& cs,
                   const std::vector<double>& parse, const std::vector<double>& build) {
    double bytes = 0, design_bytes = 0;
    for (const Prepared& p : cs) {
        bytes += static_cast<double>(p.circuit.bench.size());
        design_bytes += static_cast<double>(p.design->memory_bytes());
    }
    rep.metric("netlist.parse_s", median(parse), "s");
    rep.metric("netlist.parse_mb_per_s", bytes / 1e6 / median(parse), "MB/s");
    rep.metric("api.design_build_s", median(build), "s");
    rep.metric("api.design_mb", design_bytes / 1e6, "MB");
}

/// Parses and compiles `circuits` for one set-up window (see SetupWindow).
std::vector<Prepared> compile_reps(const std::vector<Circuit>& circuits,
                                   std::vector<double>& parse, std::vector<double>& build) {
    std::vector<Prepared> cs;
    for (const Circuit& c : circuits) {
        Prepared p;
        p.circuit = c;
        cs.push_back(std::move(p));
    }
    for (SetupWindow w; w.more(); w.add(parse.back() + build.back())) {
        const SetupTimes t = compile_all(cs);
        parse.push_back(t.parse_s);
        build.push_back(t.build_s);
    }
    return cs;
}

// --- thread sweep ----------------------------------------------------------------

struct SweepPoint {
    double learn_s = 0, atpg_s = 0, fault_s = 0;
};

/// Times each stage the workload runs, alone, at `threads` workers, and
/// checks its result equals the reference repeat's.
SweepPoint sweep_at(Report& rep, std::vector<Prepared>& cs, const BatchSpec& spec,
                    const Repeat& ref, unsigned threads) {
    SweepPoint pt;
    const std::string tag = " at " + std::to_string(threads) + " threads";
    for (std::size_t i = 0; i < cs.size(); ++i) {
        Prepared& p = cs[i];
        const CircuitRun& r = ref.runs[i];
        sl::api::SessionConfig cfg;
        cfg.threads = threads;
        cfg.atpg = spec.atpg_cfg;
        std::shared_ptr<const sl::core::LearnedSnapshot> snap = p.learned;
        if (spec.learn || spec.grade) {
            sl::api::Session s(p.design, cfg);
            const Clock::time_point t0 = Clock::now();
            const sl::core::LearnResult& res = s.learn();
            pt.learn_s += seconds_since(t0);
            // A prefix-checked workload compares the full learn against
            // the reference repeat; the others against the 1-thread run.
            const bool prefix = spec.check_prefix_stems > 0;
            const bool same =
                res.db.size() == (prefix ? r.relations : p.ref_relations) &&
                sl::core::relation_hash(res.db) == (prefix ? r.rel_hash : p.ref_hash);
            rep.check(same, p.circuit.name + ": learn differs" + tag);
            if (spec.atpg) snap = s.freeze_learned();
        }
        std::vector<sl::sim::InputSequence> tests = p.tests;
        if (spec.atpg) {
            sl::api::Session s(p.design, cfg);
            s.use_learned(snap);
            const Clock::time_point t0 = Clock::now();
            const sl::api::AtpgReport& report = s.atpg();
            pt.atpg_s += seconds_since(t0);
            rep.check(sl::api::campaign_digest(report) == r.digest,
                      p.circuit.name + ": campaign digest differs" + tag);
            tests = report.outcome.tests;
        }
        if (spec.atpg || spec.grade) {
            sl::api::Session s(p.design, cfg);
            s.use_learned(snap);
            const Clock::time_point t0 = Clock::now();
            const sl::api::FaultSimReport v = s.fault_sim(tests);
            pt.fault_s += seconds_since(t0);
            rep.check(v.detected == r.validated,
                      p.circuit.name + ": fault-sim detections differ" + tag);
        }
    }
    return pt;
}

double ratio(double a, double b) { return a > 0 && b > 0 ? a / b : 0.0; }

}  // namespace

void run_batch(const Args& args, Report& rep) {
    const BatchSpec spec = spec_for(args.workload);
    const unsigned threads = nproc();

    // Inputs: generated .bench text (and sequences), never netlists.
    std::vector<Circuit> circuits;
    for (const std::string& name : spec.circuits)
        circuits.push_back(make_circuit(name, args.seed));

    // Set-up: parse + compile, first window (the second follows the loop).
    std::vector<double> parse, build;
    std::vector<Prepared> cs = compile_reps(circuits, parse, build);

    // Untimed preparation: the 1-thread learn reference, and for grading the
    // learned ties and the seeded sequences.
    for (Prepared& p : cs) {
        if (spec.learn) reference_learn(rep, p, spec, threads);
        if (spec.grade) {
            sl::api::SessionConfig cfg;
            cfg.threads = 1;
            sl::api::Session s(p.design, cfg);
            const sl::core::LearnResult& one = s.learn();
            p.ref_relations = one.db.size();
            p.ref_hash = sl::core::relation_hash(one.db);
            p.learned = s.freeze_learned();
            p.tests = make_sequences(p.design->netlist().inputs().size(), spec.sequences,
                                     spec.frames, mix64(args.seed) ^ 0x6a5dULL);
        }
    }

    std::string shape = "{";
    for (std::size_t i = 0; i < cs.size(); ++i) {
        const sl::api::Design& d = *cs[i].design;
        shape += (i > 0 ? ", " : "") + json_string(cs[i].circuit.name) +
                    ": {\"gates\": " + std::to_string(d.netlist().size()) +
                    ", \"collapsed_faults\": " + std::to_string(d.collapsed_faults().size()) +
                    ", \"bench_bytes\": " + std::to_string(cs[i].circuit.bench.size()) + "}";
    }
    rep.detail("circuits", shape + "}");

    std::vector<double> walls;
    double measured = 0.0;
    std::optional<Repeat> last;
    if (!args.trace) {
        // Repeat until the run's time is spent, and at least min_repeats
        // times: a fixed count where a repeat takes about the whole run, so
        // that a slow first repeat does not also mean a one-sample run.
        while (measured < args.seconds || walls.size() < spec.min_repeats) {
            Repeat r = run_repeat(rep, cs, spec, threads, nullptr, walls.empty());
            walls.push_back(r.wall_s);
            measured += r.wall_s;
            for (const CircuitRun& c : r.runs) {
                rep.check(c.learn_ok && c.atpg_ok && c.fsim_ok && c.snapshot_ok,
                          "stage call ended early");
            }
            last = std::move(r);
        }
    } else {
        // Reference (untraced) repeat, then the traced one.
        Repeat plain = run_repeat(rep, cs, spec, threads, nullptr, true);
        Tracer tracer;
        Repeat traced = run_repeat(rep, cs, spec, threads, &tracer, false);
        layer_metrics(rep, traced, spec);
        if (spec.sat_probe) sat_probe(rep, cs, threads);
        // Grading learned once before the repeats; trace a learn instead.
        if (spec.grade) traced_learn(rep, cs, threads);
        if (!spec.snapshot) snapshot_metrics(rep, cs);
        rep.metric("trace.overhead_pct", 100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s,
                   "%");

        // Thread sweep: 1, 2 and nproc workers (nproc = the reference repeat).
        SweepPoint at_n;
        for (const CircuitRun& c : plain.runs) {
            at_n.learn_s += c.learn.seconds();
            at_n.atpg_s += c.atpg.seconds();
            at_n.fault_s += c.fsim.seconds();
        }
        if (spec.grade) {
            BatchSpec learn_only;
            learn_only.learn = true;
            at_n.learn_s = sweep_at(rep, cs, learn_only, plain, threads).learn_s;
        }
        const SweepPoint at_1 = sweep_at(rep, cs, spec, plain, 1);
        const SweepPoint at_2 =
            threads >= 2 ? sweep_at(rep, cs, spec, plain, 2) : at_1;
        rep.metric("exec.learn_speedup_2t", ratio(at_1.learn_s, at_2.learn_s), "x");
        rep.metric("exec.learn_speedup_nproc", ratio(at_1.learn_s, at_n.learn_s), "x");
        rep.metric("exec.atpg_speedup_2t", ratio(at_1.atpg_s, at_2.atpg_s), "x");
        rep.metric("exec.atpg_speedup_nproc", ratio(at_1.atpg_s, at_n.atpg_s), "x");
        rep.metric("exec.fault_speedup_2t", ratio(at_1.fault_s, at_2.fault_s), "x");
        rep.metric("exec.fault_speedup_nproc", ratio(at_1.fault_s, at_n.fault_s), "x");
        walls = {plain.wall_s};
        last = std::move(plain);
    }

    // Per-circuit outcome of the last repeat: coverage, aborts, and the
    // credit gap (faults the validation detects beyond the campaign's own
    // credit — recorded, not asserted).
    std::string outcome = "{";
    for (std::size_t i = 0; i < cs.size(); ++i) {
        const CircuitRun& r = last->runs[i];
        // Grading learns once before the repeats: report that learn.
        const std::size_t relations = spec.grade ? cs[i].ref_relations : r.relations;
        const std::uint64_t hash = spec.grade ? cs[i].ref_hash : r.rel_hash;
        outcome += (i > 0 ? ", " : "") + json_string(cs[i].circuit.name) + ": {" +
                   "\"relations\": " + std::to_string(relations) +
                   ", \"relation_hash\": \"" + sl::server::hex_u64(hash) + "\"";
        if (spec.atpg) {
            outcome += ", \"detected\": " + std::to_string(r.counts.detected) +
                       ", \"aborted\": " + std::to_string(r.counts.aborted) +
                       ", \"validated\": " + std::to_string(r.validated) +
                       ", \"credit_gap\": " +
                       std::to_string(static_cast<long long>(r.validated) -
                                      static_cast<long long>(r.counts.detected)) +
                       ", \"fault_coverage\": " + json_number(r.coverage) +
                       ", \"campaign_digest\": \"" + sl::server::hex_u64(r.digest) + "\"";
        }
        if (spec.grade) {
            outcome += ", \"detected\": " + std::to_string(r.validated) +
                       ", \"fault_coverage\": " + json_number(r.coverage);
        }
        outcome += "}";
    }
    rep.detail("outcome", outcome + "}");
    std::string wall_list = "[";
    for (std::size_t i = 0; i < walls.size(); ++i)
        wall_list += (i > 0 ? ", " : "") + json_number(walls[i]);
    rep.detail("repeat_wall_s", wall_list + "]");

    if (args.trace) {
        setup_metrics(rep, cs, parse, build);
        return;
    }
    // Second set-up window.
    compile_reps(circuits, parse, build);
    std::vector<double> setup;
    for (std::size_t i = 0; i < parse.size(); ++i) setup.push_back(parse[i] + build[i]);
    rep.metric("setup_s", median(setup), "s");
    // A batch operation is one repeat of the timed stages.
    std::vector<double> walls_ms;
    for (const double w : walls) walls_ms.push_back(1e3 * w);
    rep.metric("wall_s", median(walls), "s");
    rep.metric("req_per_s", static_cast<double>(walls.size()) / measured, "1/s");
    rep.metric("latency_p50_ms", median(walls_ms), "ms");
    rep.metric("latency_p99_ms", tail_latency(walls_ms), "ms");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void design_layers(Report& rep, const std::vector<Circuit>& circuits) {
    std::vector<double> parse, build;
    std::vector<Prepared> cs = compile_reps(circuits, parse, build);
    setup_metrics(rep, cs, parse, build);
    // The stages the daemon runs for these designs, in process and traced:
    // flow_table5's learn -> ATPG -> fault_sim, then the CNF probe.
    const BatchSpec flow = spec_for("flow_table5");
    const unsigned threads = nproc();
    for (Prepared& p : cs) reference_learn(rep, p, flow, threads);
    Tracer tracer;
    layer_metrics(rep, run_repeat(rep, cs, flow, threads, &tracer, true), flow);
    sat_probe(rep, cs, threads);
    snapshot_metrics(rep, cs);
}

}  // namespace perfbench
