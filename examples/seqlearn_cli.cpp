// seqlearn_cli — drive the library from the command line on .bench files.
//
//   seqlearn_cli stats  <circuit.bench | suite:NAME> [--threads N] [--json]
//   seqlearn_cli learn  <circuit.bench | suite:NAME> [--frames N] [--threads N]
//                       [--limit-stems N] [--deadline-ms N] [--sat-frames K]
//                       [--checkpoint FILE] [--resume FILE] [--save-db FILE]
//                       [--db-format text|binary] [--progress] [--json]
//   seqlearn_cli atpg   <circuit.bench | suite:NAME> [--mode none|forbidden|known]
//                       [--backend framesim|sat|auto] [--sat-frames K]
//                       [--backtracks N] [--limit-faults N] [--deadline-ms N]
//                       [--load-db FILE] [--save-db FILE] [--db-format text|binary]
//                       [--order index|level|scoap_hard_first|random]
//                       [--order-seed N] [--guidance none|scoap]
//                       [--rand-warmup N] [--fill x|zero|one|random]
//                       [--progress] [--threads N] [--json]
//   seqlearn_cli gen    <out.bench | -> [--gates N] [--ffs N] [--inputs N]
//                       [--outputs N] [--seed N] [--name NAME]
//   seqlearn_cli serve  [--port N] [--max-sessions N] [--cache-mb N]
//                       [--threads N] [--drain-ms N] [--max-frame-mb N]
//                       [--max-conns N] [--idle-timeout-ms N]
//                       [--write-timeout-ms N] [--store DIR] [--store-mb N]
//                       [--chaos SITE:NTH]
//
// learn and atpg take exactly the daemon's learn and atpg request keys as
// flags — the key rand_warmup is --rand-warmup — through the one mapping in
// src/api/request.hpp, and every command checks its flags the way the daemon
// checks a request, before the circuit loads: a count must be a whole number
// in its field's range (--frames 0 keeps the default depth; --threads 0 is
// one worker per hardware thread, and more than the hardware threads is
// refused), a name must be one of those listed, and an unknown flag is
// refused. A refused flag is a usage error (exit 2) naming it. --threads
// sizes ATPG and fault simulation; learning runs on one thread whatever it
// says.
//
// serve runs the ATPG-as-a-service daemon: newline-framed JSON requests
// (load / learn / atpg / fault_sim / stats / cancel / shutdown) over a
// loopback TCP socket, fronting a content-addressed Design cache with
// attached learned snapshots — see README "Serving". It prints one JSON
// line {"serving": {"port": N}} on stdout once listening (scripts wait on
// it), then serves until SIGINT/SIGTERM or a protocol shutdown request;
// either way it drains in-flight requests under --drain-ms (they complete
// with Cancelled outcomes, not dropped connections) and exits 0.
//
// "suite:NAME" loads a built-in experiment circuit (e.g. suite:rt510a);
// anything else is parsed as an ISCAS-89 .bench file by the streaming reader,
// with every parse warning reported on stderr. --db-format picks the
// --save-db encoding: "text" (default, archival, name-keyed) or "binary"
// (fast-loading, id-keyed, digest-bound to this netlist); --load-db sniffs
// either by magic.
//
// Exit codes, one per failure class (scripts branch on them; the daemon's
// protocol codes are the same numbers):
//   0  success (stage ran to completion)
//   2  usage error (bad command line)
//   3  input parse errors (all reported, line-numbered, before exiting)
//   4  budget exhausted (deadline / item limit; partial results were
//      produced and saved where requested)
//   5  stage cancelled
//   6  internal failure (captured exception; state was not corrupted)
//
// --json emits one machine-readable JSON object on stdout — Session::stats()
// plus the parse diagnostics and per-stage "outcome" objects — instead of
// the human-readable report; failures emit an "error" object. --limit-stems
// N and --limit-faults N stop learning or ATPG deterministically after N
// work items (how the CI large-circuit smoke bounds a 100k-gate learn);
// --deadline-ms N bounds each stage's wall clock. --checkpoint FILE saves a
// budget-stopped learn that --resume FILE continues to the one-shot result.
// ATPG and fault-simulation results are bit-identical at any --threads.
// gen writes a synthetic ISCAS-like circuit (workload::circuit_gen) for
// scaling experiments.
//
// What --mode, --backend, --sat-frames and the guidance flags (--order,
// --order-seed, --guidance, --rand-warmup, --fill) do is in README
// "Backends" and "Guidance & scenarios"; --sat-frames K on learn turns on
// SAT learn mode. With --json an atpg run's section carries its strategy
// provenance and a "patterns" object, and off the framesim backend one
// "untestable" entry (proof kind, frame bound) per proved fault.

#include "api/request.hpp"
#include "api/session.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/structure.hpp"
#include "server/json.hpp"
#include "server/server.hpp"
#include "workload/circuit_gen.hpp"
#include "workload/suite.hpp"

#include <array>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

namespace {

using namespace seqlearn;

/// Report a failure on stderr, and with --json as an "error" object on
/// stdout; returns its exit code.
int fail(bool json, int code, const char* cls, const std::string& message) {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    if (json) {
        server::JsonWriter w;
        w.begin_object().key("error").begin_object();
        w.field("class", cls).field("message", message);
        std::puts(w.end_object().end_object().str().c_str());
    }
    return code;
}

/// Refuse any flag the command did not ask about; call after reading them.
void refuse_unread(const api::ArgvFields& fields) {
    if (const std::string flag = fields.unread(); !flag.empty())
        throw api::FieldError("unknown flag " + flag);
}

/// A size flag given in MiB, as bytes (`fallback` when absent).
std::size_t mib_from(const api::Fields& f, std::string_view key, std::size_t fallback) {
    if (!f.number(key)) return fallback;
    return api::count_from<std::size_t>(f, key, 0, SIZE_MAX >> 20) << 20;
}

const char* proof_name(fault::UntestableProof p) {
    switch (p) {
        case fault::UntestableProof::None: return "none";
        case fault::UntestableProof::TieGate: return "tie";
        case fault::UntestableProof::Combinational: return "combinational";
        case fault::UntestableProof::Structural: return "structural";
        case fault::UntestableProof::BoundedCnf: return "bounded_cnf";
    }
    return "?";
}

/// One JSON document: stats() for everything computed so far plus the parse
/// diagnostics — the machine-readable twin of the human reports below. An
/// atpg run passes its config and report: its section then carries the
/// strategy provenance and warmup counters and, off the framesim backend,
/// one "untestable" entry per proved fault.
void print_json(api::Session& session, const netlist::Diagnostics& diags,
                const atpg::AtpgConfig* cfg = nullptr,
                const api::AtpgReport* report = nullptr) {
    const api::SessionStats s = session.stats();
    server::JsonWriter w(1);
    w.begin_object().field("circuit", session.netlist().name());
    server::write_diagnostics(w.key("diagnostics"), diags);
    w.field("inputs", s.circuit.inputs).field("outputs", s.circuit.outputs);
    w.field("flip_flops", s.circuit.flip_flops).field("latches", s.circuit.latches);
    w.field("gates", s.circuit.combinational).field("stems", s.stems);
    w.field("levels", s.levels).field("clock_classes", s.clock_classes);
    w.field("collapsed_faults", s.collapsed_faults).field("learned", s.learned);
    if (s.learned) {
        w.key("learn").begin_object();
        w.field("relations", s.relations).field("ties", s.ties);
        w.field("ff_ff_relations", s.learn.ff_ff_relations);
        w.field("gate_ff_relations", s.learn.gate_ff_relations);
        w.field("comb_relations", s.learn.comb_relations);
        w.field("equiv_classes", s.learn.equiv_classes);
        w.field("multi_relations", s.learn.multi_relations);
        w.field("stems_processed", s.learn.stems_processed);
        w.field("sat_probes", s.learn.sat_probes).field("sat_ties", s.learn.sat_ties);
        w.field("sat_relations", s.learn.sat_relations).field("cancelled", s.learn.cancelled);
        w.field("cpu_seconds", s.learn.cpu_seconds, 3);
        server::write_outcome(w.key("outcome"), s.learn_outcome);
        w.end_object();
    }
    if (s.atpg_run) {
        w.key("atpg").begin_object();
        w.field("total", s.faults.total).field("detected", s.faults.detected);
        w.field("untestable", s.faults.untestable);
        if (s.faults.untestable_bounded > 0)
            w.field("untestable_bounded", s.faults.untestable_bounded);
        w.field("aborted", s.faults.aborted);
        w.field("undetected", s.faults.undetected);
        w.field("test_coverage", s.test_coverage, 4).field("tests", s.tests);
        // Pattern shape: count mirrors "tests"; compaction_ratio is
        // patterns-out / patterns-in (1.0 when compaction never ran).
        const double ratio =
            s.compaction_before > 0 ? static_cast<double>(s.compaction_after) /
                                          static_cast<double>(s.compaction_before)
                                    : 1.0;
        w.key("patterns").begin_object();
        w.field("count", s.tests).field("total_frames", s.pattern_frames);
        w.field("compaction_before", s.compaction_before);
        w.field("compaction_after", s.compaction_after).field("compaction_ratio", ratio, 4);
        w.end_object();
        if (cfg != nullptr && report != nullptr) {
            const atpg::AtpgOutcome& o = report->outcome;
            w.field("order", guide::order_name(cfg->order));
            w.field("guidance", guide::guidance_name(cfg->guidance));
            w.field("fill", guide::fill_name(cfg->fill)).field("compact", cfg->compact);
            w.field("rand_warmup", cfg->rand_warmup);
            w.field("warmup_detected", o.detected_by_warmup);
            w.field("warmup_sequences", o.warmup_sequences);
            if (cfg->backend != cnf::Backend::FrameSim) {
                w.field("sat_targeted", o.sat_targeted).field("sat_witnesses", o.sat_witnesses);
                w.field("untestable_by_cnf", o.untestable_by_cnf);
                w.key("untestable_proofs").begin_array();
                for (const atpg::AtpgOutcome::UntestableRecord& rec : o.untestable_records) {
                    w.begin_object();
                    w.field("fault", fault::to_string(session.netlist(),
                                                      report->list.fault(rec.fault_index)));
                    w.field("proof", proof_name(rec.proof)).field("frames", rec.frames);
                    w.end_object();
                }
                w.end_array();
            }
        }
        server::write_outcome(w.key("outcome"), s.atpg_outcome);
        w.end_object();
    }
    w.key("memory").begin_object();
    w.field("netlist_bytes", s.memory.design.netlist_bytes);
    w.field("topology_bytes", s.memory.design.topology_bytes);
    w.field("faults_bytes", s.memory.design.faults_bytes);
    w.field("design_learned_bytes", s.memory.design.learned_bytes);
    w.field("learned_bytes", s.memory.learned_bytes);
    w.field("scratch_bytes", s.memory.scratch_bytes).field("total_bytes", s.memory.total());
    w.end_object().end_object();
    std::puts(w.str().c_str());
}

// --- circuit loading ------------------------------------------------------

api::DesignLoad load_circuit(const std::string& spec) {
    if (spec.rfind("suite:", 0) == 0)
        return {api::DesignBuilder(workload::suite_circuit(spec.substr(6))).build(), {}};
    return api::load_design(spec);
}

// --- commands -------------------------------------------------------------

// --save-db honours --db-format {text|binary}: text (default) is the
// archival name-keyed format, binary the fast-loading id-keyed one (bound to
// this exact netlist by digest). Loading sniffs the format automatically.
constexpr std::array<std::string_view, 2> kDbFormats = {"text", "binary"};

struct SaveDb {
    std::optional<std::string> path;
    bool binary = false;
};

SaveDb save_db_from(const api::Fields& f) {
    return {f.text("save_db"), api::choice_from(f, "db_format", kDbFormats, 0) == 1};
}

void save_db(api::Session& session, const SaveDb& db, bool json) {
    if (!db.path) return;
    if (db.binary) session.save_db_binary(*db.path);
    else session.save_db(*db.path);
    if (!json)
        std::printf("saved learned data to %s (%s)\n", db.path->c_str(),
                    db.binary ? "binary" : "text");
}

/// learn's flags beyond the shared learn keys.
struct LearnArgs {
    core::LearnConfig cfg;
    std::optional<std::string> resume;
    std::optional<std::string> checkpoint;
    SaveDb save;
};

/// atpg's flags beyond the shared atpg keys.
struct AtpgArgs {
    atpg::AtpgConfig cfg;
    std::optional<std::string> load_db;
    SaveDb save;
};

int cmd_stats(api::Session& session, const netlist::Diagnostics& diags, bool json) {
    if (json) {
        print_json(session, diags);
        return 0;
    }
    const api::SessionStats s = session.stats();
    std::printf("circuit:      %s\n", session.netlist().name().c_str());
    std::printf("inputs:       %zu\n", s.circuit.inputs);
    std::printf("outputs:      %zu\n", s.circuit.outputs);
    std::printf("flip-flops:   %zu\n", s.circuit.flip_flops);
    std::printf("latches:      %zu\n", s.circuit.latches);
    std::printf("gates:        %zu\n", s.circuit.combinational);
    std::printf("fanout stems: %zu\n", s.stems);
    std::printf("levels:       %zu\n", s.levels);
    std::printf("clock classes:%zu\n", s.clock_classes);
    std::printf("seq depth:    %zu (capped at 16)\n",
                netlist::sequential_depth(session.topology(), 16));
    std::printf("faults:       %zu collapsed / %zu total\n", s.collapsed_faults,
                session.collapsed_faults().universe_size());
    return 0;
}

int cmd_learn(api::Session& session, const netlist::Diagnostics& diags, const LearnArgs& a,
              bool json) {
    // --limit-stems budgets the pass to its first N work items (LimitReached;
    // partial results are kept and stats.cancelled is set) — bounds learn
    // time on huge circuits without a special-cased fast path.
    const core::LearnResult& r =
        a.resume ? session.resume_learn(*a.resume) : session.learn(a.cfg);
    if (json) {
        print_json(session, diags);
    } else {
        std::printf("learned in %.3f s over %zu stems%s:\n", r.stats.cpu_seconds,
                    r.stats.stems_processed,
                    r.outcome.ok() ? ""
                                   : (" (stopped: " + std::string(r.outcome.name()) +
                                      (r.outcome.diagnostic.empty()
                                           ? ""
                                           : ", " + r.outcome.diagnostic) +
                                      ")")
                                         .c_str());
        std::printf("  FF-FF relations:   %zu\n", r.stats.ff_ff_relations);
        std::printf("  Gate-FF relations: %zu\n", r.stats.gate_ff_relations);
        std::printf("  combinational:     %zu\n", r.stats.comb_relations);
        std::printf("  tie gates:         %zu (%zu comb, %zu seq)\n", r.ties.count(),
                    r.stats.ties_combinational, r.stats.ties_sequential);
        std::printf("  equivalence classes: %zu\n", r.stats.equiv_classes);
        if (r.stats.sat_probes > 0)
            std::printf("  SAT learn:         %zu probes, %zu ties, %zu relations\n",
                        r.stats.sat_probes, r.stats.sat_ties, r.stats.sat_relations);
    }
    if (a.checkpoint) {
        if (r.cursor.valid) {
            session.save_checkpoint(*a.checkpoint);
            if (!json) std::printf("saved resume checkpoint to %s\n", a.checkpoint->c_str());
        } else if (!r.outcome.ok() && !json) {
            std::printf("no checkpoint saved: stop point not resumable (%s)\n",
                        r.outcome.name());
        }
    }
    save_db(session, a.save, json);
    return static_cast<int>(server::code_for(r.outcome));
}

int cmd_atpg(api::Session& session, const netlist::Diagnostics& diags, const AtpgArgs& a,
             bool json) {
    const atpg::AtpgConfig& cfg = a.cfg;
    if (cfg.mode != atpg::LearnMode::None) {
        if (a.load_db) {
            const std::size_t skipped = session.load_db(*a.load_db);
            if (!json)
                std::printf("loaded learned data (%zu relations, %zu ties, %zu skipped)\n",
                            session.learn().db.size(), session.learn().ties.count(),
                            skipped);
        } else if (!json) {
            const core::LearnResult& learned = session.learn();
            std::printf("learned on the fly: %zu relations, %zu ties\n",
                        learned.db.size(), learned.ties.count());
        }
    }

    const api::AtpgReport& report = session.atpg(cfg);
    save_db(session, a.save, json);
    const int rc = static_cast<int>(server::code_for(report.outcome.run));
    if (json) {
        print_json(session, diags, &cfg, &report);
        return rc;
    }
    const auto c = report.list.counts();
    const std::string_view mode = atpg::mode_name(cfg.mode);
    std::printf("mode=%.*s backend=%s backtracks=%u\n", static_cast<int>(mode.size()),
                mode.data(), cnf::backend_name(cfg.backend), cfg.backtrack_limit);
    std::printf("  detected:   %zu (of %zu)\n", c.detected, c.total);
    std::printf("  untestable: %zu\n", c.untestable);
    if (c.untestable_bounded > 0)
        std::printf("  bounded:    %zu untestable within the frame bound\n",
                    c.untestable_bounded);
    std::printf("  aborted:    %zu\n", c.aborted);
    std::printf("  coverage:   %.2f%% fault, %.2f%% test\n",
                100.0 * report.list.fault_coverage(),
                100.0 * report.list.test_coverage());
    std::printf("  patterns:   %zu (%zu frames)\n", report.outcome.tests.size(),
                report.outcome.pattern_frames);
    if (cfg.rand_warmup > 0)
        std::printf("  warmup:     %zu sequences kept, %zu faults dropped\n",
                    report.outcome.warmup_sequences, report.outcome.detected_by_warmup);
    if (report.outcome.compaction_before > 0)
        std::printf("  compaction: %zu -> %zu patterns (fill=%.*s)\n",
                    report.outcome.compaction_before, report.outcome.compaction_after,
                    static_cast<int>(guide::fill_name(cfg.fill).size()),
                    guide::fill_name(cfg.fill).data());
    if (cfg.order != guide::OrderStrategy::Index ||
        cfg.guidance != guide::Guidance::None)
        std::printf("  strategy:   order=%.*s guidance=%.*s\n",
                    static_cast<int>(guide::order_name(cfg.order).size()),
                    guide::order_name(cfg.order).data(),
                    static_cast<int>(guide::guidance_name(cfg.guidance).size()),
                    guide::guidance_name(cfg.guidance).data());
    if (report.outcome.sat_targeted > 0)
        std::printf("  sat:        %zu targeted, %zu witnesses, %zu untestable\n",
                    report.outcome.sat_targeted, report.outcome.sat_witnesses,
                    report.outcome.untestable_by_cnf);
    std::printf("  cpu:        %.2f s\n", report.outcome.cpu_seconds);
    if (!report.outcome.run.ok())
        std::printf("  stopped:    %s%s%s\n", report.outcome.run.name(),
                    report.outcome.run.diagnostic.empty() ? "" : " — ",
                    report.outcome.run.diagnostic.c_str());
    return rc;
}

/// stats, learn and atpg: read every flag, then load the circuit and run.
int cmd_circuit(const std::string& cmd, const std::string& spec, const api::ArgvFields& f,
                bool json) {
    api::SessionConfig scfg;
    scfg.threads = api::threads_from(f, scfg.threads);
    const bool progress = f.has("progress");
    std::optional<LearnArgs> learn;
    std::optional<AtpgArgs> atpg;
    if (cmd == "learn")
        learn = LearnArgs{api::learn_config_from(f), f.text("resume"), f.text("checkpoint"),
                          save_db_from(f)};
    if (cmd == "atpg")
        atpg = AtpgArgs{api::atpg_config_from(f), f.text("load_db"), save_db_from(f)};
    refuse_unread(f);

    const api::DesignLoad loaded = load_circuit(spec);
    // Report every parse diagnostic on stderr (warnings included); --json
    // carries them in the output object too.
    if (!loaded.diagnostics.empty())
        std::fputs(loaded.diagnostics.to_string(spec).c_str(), stderr);
    if (!loaded.ok())
        return fail(json, 3, "parse",
                    spec + " failed to parse (" +
                        std::to_string(loaded.diagnostics.error_count()) + " errors)");

    if (progress) {
        // One \r-rewritten line per stage; the line is terminated on a
        // stage change and once more when the command finishes (no
        // stage knows up front how many of its units will be skipped).
        scfg.progress = [last = std::optional<api::Stage>()](
                            const api::Progress& p) mutable {
            const char* stage = p.stage == api::Stage::Learn     ? "learn"
                                : p.stage == api::Stage::Atpg    ? "atpg"
                                                                 : "fault-sim";
            if (last && *last != p.stage) std::fprintf(stderr, "\n");
            last = p.stage;
            std::fprintf(stderr, "\r%-9s %zu/%zu", stage, p.done, p.total);
            return true;  // observation only; never cancels
        };
    }
    api::Session session(loaded.design, std::move(scfg));
    const int rc = learn  ? cmd_learn(session, loaded.diagnostics, *learn, json)
                   : atpg ? cmd_atpg(session, loaded.diagnostics, *atpg, json)
                          : cmd_stats(session, loaded.diagnostics, json);
    if (progress) std::fprintf(stderr, "\n");
    return rc;
}

int cmd_gen(const std::string& out_path, const api::ArgvFields& f) {
    workload::GenParams p;
    p.name = f.text("name").value_or(p.name);
    p.n_gates = api::count_from(f, "gates", p.n_gates);
    p.n_ffs = api::count_from(f, "ffs", p.n_ffs);
    p.n_inputs = api::count_from(f, "inputs", p.n_inputs);
    p.n_outputs = api::count_from(f, "outputs", p.n_outputs);
    p.seed = api::count_from(f, "seed", p.seed);
    refuse_unread(f);
    const netlist::Netlist nl = workload::generate(p);
    if (out_path == "-") {
        netlist::write_bench(std::cout, nl);
    } else {
        std::ofstream out(out_path);
        if (!out) throw std::runtime_error("cannot write " + out_path);
        netlist::write_bench(out, nl);
    }
    std::fprintf(stderr, "generated %s: %zu gates (%zu comb, %zu FFs, %zu inputs)\n",
                 nl.name().c_str(), nl.size(), nl.counts().combinational,
                 nl.counts().flip_flops, nl.counts().inputs);
    return 0;
}

// --- serve ----------------------------------------------------------------

// Signal flag for graceful shutdown; sig_atomic_t is the only type a
// handler may touch portably.
volatile std::sig_atomic_t g_stop_signal = 0;

extern "C" void handle_stop_signal(int) { g_stop_signal = 1; }

int cmd_serve(const api::ArgvFields& f) {
    server::ServerConfig cfg;
    cfg.port = api::count_from(f, "port", cfg.port);
    cfg.service.max_sessions = api::count_from(f, "max_sessions", cfg.service.max_sessions);
    cfg.service.cache.max_bytes = mib_from(f, "cache_mb", cfg.service.cache.max_bytes);
    cfg.service.threads = api::threads_from(f, cfg.service.threads);
    cfg.drain_deadline = api::millis_from(f, "drain_ms", cfg.drain_deadline);
    cfg.max_frame_bytes = mib_from(f, "max_frame_mb", cfg.max_frame_bytes);
    cfg.max_conns = api::count_from(f, "max_conns", cfg.max_conns);
    cfg.idle_timeout = api::millis_from(f, "idle_timeout_ms", cfg.idle_timeout);
    cfg.write_timeout = api::millis_from(f, "write_timeout_ms", cfg.write_timeout);
    const std::optional<std::string> chaos_spec = f.text("chaos");
    const std::optional<std::string> store_dir = f.text("store");
    server::SnapshotStoreConfig store_cfg;
    store_cfg.max_bytes = mib_from(f, "store_mb", store_cfg.max_bytes);
    refuse_unread(f);

    // Deterministic chaos: arm one failure site for the whole process
    // (CI's crash-recovery smoke runs `--chaos fs_rename:1` and kills the
    // daemon mid-save).
    exec::FailurePoint chaos;
    if (chaos_spec) {
        if (!exec::arm_from_spec(chaos, *chaos_spec))
            throw api::FieldError("bad --chaos spec \"" + *chaos_spec +
                                  "\" (want site:nth, e.g. fs_rename:1)");
        cfg.failpoint = &chaos;
    }

    // Durable snapshot store: open (recovery scan + quarantine) before the
    // listener, so a request arriving first thing sees the warm index.
    if (store_dir) {
        store_cfg.dir = *store_dir;
        store_cfg.failpoint = cfg.failpoint;
        std::string store_error;
        cfg.service.store =
            server::SnapshotStore::open(std::move(store_cfg), &store_error);
        if (!cfg.service.store) return fail(false, 6, "internal", store_error);
        const server::SnapshotStoreStats ss = cfg.service.store->stats();
        std::fprintf(stderr,
                     "snapshot store %s: %zu entries (%zu bytes), %zu quarantined\n",
                     store_dir->c_str(), ss.entries, ss.bytes, ss.quarantined);
    }

    server::Server srv(cfg);
    std::string error;
    if (!srv.start(&error)) return fail(false, 6, "internal", error);
    // Machine-readable startup line on stdout (scripts poll for it to learn
    // the ephemeral port); human log on stderr.
    server::JsonWriter w;
    w.begin_object().key("serving").begin_object();
    w.field("port", srv.port()).field("max_sessions", cfg.service.max_sessions);
    w.field("cache_max_bytes", cfg.service.cache.max_bytes);
    std::puts(w.end_object().end_object().str().c_str());
    std::fflush(stdout);
    std::fprintf(stderr, "seqlearn serving on 127.0.0.1:%u (SIGINT/SIGTERM to stop)\n",
                 static_cast<unsigned>(srv.port()));

    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    while (g_stop_signal == 0 && !srv.service().shutdown_requested())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::fprintf(stderr, "seqlearn server draining (%s)\n",
                 g_stop_signal != 0 ? "signal" : "shutdown request");
    srv.stop();  // drain under the deadline; in-flight requests get
                 // Cancelled outcomes and their responses are written
    std::fprintf(stderr, "seqlearn server stopped\n");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string cmd = argc >= 2 ? argv[1] : "";
    const bool circuit_cmd = cmd == "stats" || cmd == "learn" || cmd == "atpg";
    // serve takes no positional argument; the others take one.
    const int first_flag = cmd == "serve" ? 2 : 3;
    if ((!circuit_cmd && cmd != "gen" && cmd != "serve") || argc < first_flag) {
        std::fprintf(stderr,
                     "usage: %s stats|learn|atpg|gen <circuit.bench|suite:NAME|out.bench>"
                     " [options]\n       %s serve [--port N] [options]\n",
                     argv[0], argv[0]);
        return 2;
    }
    const api::ArgvFields fields(argc - first_flag, argv + first_flag);
    const bool json = circuit_cmd && fields.has("json");
    try {
        if (cmd == "serve") return cmd_serve(fields);
        if (cmd == "gen") return cmd_gen(argv[2], fields);
        return cmd_circuit(cmd, argv[2], fields, json);
    } catch (const api::FieldError& e) {
        return fail(json, 2, "usage", e.what());
    } catch (const std::exception& e) {
        return fail(json, 6, "internal", e.what());
    }
}
