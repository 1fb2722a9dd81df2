// seqlearn_cli — drive the library from the command line on .bench files.
//
//   seqlearn_cli stats  <circuit.bench | suite:NAME> [--json]
//   seqlearn_cli learn  <circuit.bench | suite:NAME> [--frames N] [--threads N]
//                       [--limit-stems N] [--deadline-ms N] [--sat-frames K]
//                       [--checkpoint FILE] [--resume FILE] [--save-db FILE]
//                       [--db-format text|binary] [--out FILE] [--json]
//   seqlearn_cli atpg   <circuit.bench | suite:NAME> [--mode none|forbidden|known]
//                       [--backend framesim|sat|auto] [--sat-frames K]
//                       [--backtracks N] [--load-db FILE] [--save-db FILE]
//                       [--db-format text|binary] [--deadline-ms N]
//                       [--order index|level|scoap_hard_first|random]
//                       [--order-seed N] [--guidance none|scoap]
//                       [--rand-warmup N] [--fill x|zero|one|random]
//                       [--progress] [--threads N] [--json]
//   seqlearn_cli gen    <out.bench | -> [--gates N] [--ffs N] [--inputs N]
//                       [--outputs N] [--seed N] [--name NAME]
//   seqlearn_cli serve  [--port N] [--max-sessions N] [--cache-mb N]
//                       [--threads N] [--drain-ms N] [--max-frame-mb N]
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
// "suite:NAME" loads one of the built-in experiment circuits (e.g.
// suite:rt510a); anything else is parsed as an ISCAS-89 .bench file through
// the streaming reader. Parse warnings (duplicate definitions, pragmas for
// unknown elements, ...) are reported on stderr instead of being silently
// dropped. All commands run through an api::Session over an api::Design, so
// the circuit is levelized once and learned data moves through
// Session::save_db / load_db. (--out and --learned are deprecated aliases
// of --save-db and --load-db.) --db-format picks the --save-db encoding:
// "text" (default) is the archival name-keyed format, "binary" the
// fast-loading id-keyed one, digest-bound to this exact netlist; --load-db
// accepts either, sniffed by magic.
//
// Exit codes, one per failure class (scripts branch on them):
//   0  success (stage ran to completion)
//   2  usage error (bad command line)
//   3  input parse errors (all reported, line-numbered, before exiting)
//   4  budget exhausted (deadline / item limit / memory cap; partial
//      results were produced and saved where requested)
//   5  stage cancelled
//   6  internal failure (captured exception; state was not corrupted)
//
// --json emits one machine-readable JSON object on stdout — Session::stats()
// plus the parse diagnostics and per-stage "outcome" objects — and silences
// the human-readable report; failures emit an "error" object. --limit-stems
// N budgets the learning pass to its first N work items (deterministic
// LimitReached outcome), which is how the CI large-circuit smoke keeps a
// 100k-gate learn bounded; --deadline-ms N puts a wall-clock budget on each
// stage. --checkpoint FILE saves a budget-stopped learn for a later
// --resume FILE, which continues it to the same final result an unbudgeted
// run produces. --threads N runs every stage on N workers (default: one per
// hardware thread; results are bit-identical at any thread count). gen
// writes a synthetic ISCAS-like circuit via workload::circuit_gen for
// scaling experiments.
//
// --backend picks the ATPG engine per README "Backends": framesim (default,
// the paper's flow), sat (every fault through the CNF timeframe-expansion
// backend) or auto (deterministic per-fault routing; frame-sim aborts are
// re-dispatched to SAT). --sat-frames K bounds the CNF unrolling (0 = the
// deepest frame window); on learn it enables SAT learn mode, mining
// implications at frame K-1 with failed-literal probes. With --json, a
// SAT-enabled atpg run adds an "untestable" section listing every proved
// fault with its proof kind and the frame bound used.
//
// Guidance knobs (README "Guidance & scenarios"): --order permutes the
// deterministic target schedule (index = historical order, level = shallow
// lines first, scoap_hard_first = descending SCOAP hardness, random =
// shuffle from --order-seed); --guidance scoap turns on SCOAP-guided
// backtrace + D-frontier selection (none is bit-identical to the goldens);
// --rand-warmup N fault-simulates N config-seeded random sequences before
// deterministic ATPG; --fill enables static compaction of the generated
// patterns (merges re-verified by fault simulation) and fills leftover don't
// cares with x, zero, one or random. Every combination stays bit-identical
// across --threads settings. With --json the atpg section gains a
// "patterns" object (count, total frames, compaction ratio) plus the
// order/guidance/warmup/fill provenance.

#include "api/session.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/structure.hpp"
#include "server/server.hpp"
#include "workload/circuit_gen.hpp"
#include "workload/suite.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

namespace {

using namespace seqlearn;

const char* flag_value(int argc, char** argv, const char* name) {
    for (int i = 0; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
    }
    return nullptr;
}

bool flag_present(int argc, char** argv, const char* name) {
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0) return true;
    }
    return false;
}

// One exit code per failure class (see the header comment).
int exit_code_for(const exec::RunOutcome& o) {
    switch (o.status) {
        case exec::RunStatus::Completed: return 0;
        case exec::RunStatus::DeadlineExceeded:
        case exec::RunStatus::LimitReached: return 4;
        case exec::RunStatus::Cancelled: return 5;
        case exec::RunStatus::Failed: return 6;
    }
    return 6;
}

// --- JSON helpers (small and dependency-free, like the bench emitter) ----

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string outcome_json(const exec::RunOutcome& o) {
    std::string out = "{\"status\": \"";
    out += o.name();
    out += "\"";
    if (!o.diagnostic.empty())
        out += ", \"diagnostic\": \"" + json_escape(o.diagnostic) + "\"";
    out += "}";
    return out;
}

std::string diagnostics_json(const netlist::Diagnostics& diags) {
    std::string out = "[";
    bool first = true;
    for (const netlist::Diagnostic& d : diags.records()) {
        if (!first) out += ", ";
        first = false;
        out += "{\"severity\": \"";
        out += d.severity == netlist::Severity::Error ? "error" : "warning";
        out += "\", \"line\": " + std::to_string(d.line);
        out += ", \"message\": \"" + json_escape(d.message) + "\"}";
    }
    out += "]";
    return out;
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

/// Per-run strategy provenance for the atpg JSON section: which ordering /
/// guidance / warmup / fill configuration produced the patterns, plus the
/// warmup counters from the outcome.
struct AtpgProvenance {
    const atpg::AtpgConfig* cfg = nullptr;
    const atpg::AtpgOutcome* outcome = nullptr;
};

/// One JSON document: stats() for everything computed so far plus the parse
/// diagnostics — the machine-readable twin of the human reports below.
/// `report` (when non-null and the campaign used the CNF backend) feeds the
/// "untestable" provenance section: one entry per proved fault. `prov`
/// (when non-null) adds the strategy provenance and warmup counters.
void print_json(api::Session& session, const netlist::Diagnostics& diags,
                const api::AtpgReport* report = nullptr,
                const AtpgProvenance* prov = nullptr) {
    const api::SessionStats s = session.stats();
    std::string out = "{\n";
    out += "  \"circuit\": \"" + json_escape(session.netlist().name()) + "\",\n";
    out += "  \"diagnostics\": " + diagnostics_json(diags) + ",\n";
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  \"inputs\": %zu, \"outputs\": %zu, \"flip_flops\": %zu, "
                  "\"latches\": %zu, \"gates\": %zu,\n"
                  "  \"stems\": %zu, \"levels\": %zu, \"clock_classes\": %zu, "
                  "\"collapsed_faults\": %zu,\n",
                  s.circuit.inputs, s.circuit.outputs, s.circuit.flip_flops,
                  s.circuit.latches, s.circuit.combinational, s.stems, s.levels,
                  s.clock_classes, s.collapsed_faults);
    out += buf;
    out += std::string("  \"learned\": ") + (s.learned ? "true" : "false");
    if (s.learned) {
        std::snprintf(buf, sizeof buf,
                      ",\n  \"learn\": {\"relations\": %zu, \"ties\": %zu, "
                      "\"ff_ff_relations\": %zu, \"gate_ff_relations\": %zu, "
                      "\"comb_relations\": %zu, \"equiv_classes\": %zu, "
                      "\"multi_relations\": %zu, \"stems_processed\": %zu, "
                      "\"sat_probes\": %zu, \"sat_ties\": %zu, \"sat_relations\": %zu, "
                      "\"cancelled\": %s, \"cpu_seconds\": %.3f}",
                      s.relations, s.ties, s.learn.ff_ff_relations,
                      s.learn.gate_ff_relations, s.learn.comb_relations,
                      s.learn.equiv_classes, s.learn.multi_relations,
                      s.learn.stems_processed, s.learn.sat_probes, s.learn.sat_ties,
                      s.learn.sat_relations, s.learn.cancelled ? "true" : "false",
                      s.learn.cpu_seconds);
        out += buf;
        // Trim the closing brace and append the structured outcome.
        out.pop_back();
        out += ", \"outcome\": " + outcome_json(s.learn_outcome) + "}";
    }
    if (s.atpg_run) {
        std::snprintf(buf, sizeof buf,
                      ",\n  \"atpg\": {\"total\": %zu, \"detected\": %zu, "
                      "\"untestable\": %zu, \"aborted\": %zu, \"undetected\": %zu, "
                      "\"test_coverage\": %.4f, \"tests\": %zu}",
                      s.faults.total, s.faults.detected, s.faults.untestable,
                      s.faults.aborted, s.faults.undetected, s.test_coverage, s.tests);
        out += buf;
        out.pop_back();
        {
            // Pattern shape: count mirrors "tests"; compaction_ratio is
            // patterns-out / patterns-in (1.0 when compaction never ran).
            const double ratio =
                s.compaction_before > 0 ? static_cast<double>(s.compaction_after) /
                                              static_cast<double>(s.compaction_before)
                                        : 1.0;
            std::snprintf(buf, sizeof buf,
                          ", \"patterns\": {\"count\": %zu, \"total_frames\": %zu, "
                          "\"compaction_before\": %zu, \"compaction_after\": %zu, "
                          "\"compaction_ratio\": %.4f}",
                          s.tests, s.pattern_frames, s.compaction_before,
                          s.compaction_after, ratio);
            out += buf;
        }
        if (prov != nullptr && prov->cfg != nullptr) {
            std::snprintf(buf, sizeof buf,
                          ", \"order\": \"%s\", \"guidance\": \"%s\", \"fill\": \"%s\", "
                          "\"compact\": %s, \"rand_warmup\": %zu",
                          std::string(guide::order_name(prov->cfg->order)).c_str(),
                          std::string(guide::guidance_name(prov->cfg->guidance)).c_str(),
                          std::string(guide::fill_name(prov->cfg->fill)).c_str(),
                          prov->cfg->compact ? "true" : "false", prov->cfg->rand_warmup);
            out += buf;
        }
        if (prov != nullptr && prov->outcome != nullptr) {
            std::snprintf(buf, sizeof buf,
                          ", \"warmup_detected\": %zu, \"warmup_sequences\": %zu",
                          prov->outcome->detected_by_warmup,
                          prov->outcome->warmup_sequences);
            out += buf;
        }
        if (report != nullptr) {
            const atpg::AtpgOutcome& o = report->outcome;
            std::snprintf(buf, sizeof buf,
                          ", \"sat_targeted\": %zu, \"sat_witnesses\": %zu, "
                          "\"untestable_by_cnf\": %zu",
                          o.sat_targeted, o.sat_witnesses, o.untestable_by_cnf);
            out += buf;
            out += ", \"untestable\": [";
            bool first = true;
            for (const atpg::AtpgOutcome::UntestableRecord& rec : o.untestable_records) {
                if (!first) out += ", ";
                first = false;
                out += "{\"fault\": \"" +
                       json_escape(fault::to_string(session.netlist(),
                                                    report->list.fault(rec.fault_index))) +
                       "\", \"proof\": \"";
                out += proof_name(rec.proof);
                out += "\", \"frames\": " + std::to_string(rec.frames) + "}";
            }
            out += "]";
        }
        out += ", \"outcome\": " + outcome_json(s.atpg_outcome) + "}";
    }
    std::snprintf(buf, sizeof buf,
                  ",\n  \"memory\": {\"netlist_bytes\": %zu, \"topology_bytes\": %zu, "
                  "\"faults_bytes\": %zu, \"design_learned_bytes\": %zu, "
                  "\"learned_bytes\": %zu, \"scratch_bytes\": %zu, \"total_bytes\": %zu}",
                  s.memory.design.netlist_bytes, s.memory.design.topology_bytes,
                  s.memory.design.faults_bytes, s.memory.design.learned_bytes,
                  s.memory.learned_bytes, s.memory.scratch_bytes, s.memory.total());
    out += buf;
    out += "\n}\n";
    std::fputs(out.c_str(), stdout);
}

// --- circuit loading ------------------------------------------------------

struct LoadedCircuit {
    api::DesignPtr design;  ///< null when parsing failed
    netlist::Diagnostics diagnostics;
    std::string source;  ///< what to prefix diagnostics with
};

LoadedCircuit load_circuit(const std::string& spec) {
    LoadedCircuit out;
    out.source = spec;
    if (spec.rfind("suite:", 0) == 0) {
        out.design = api::DesignBuilder(workload::suite_circuit(spec.substr(6))).build();
        return out;
    }
    api::DesignLoad load = api::load_design(spec);
    out.diagnostics = std::move(load.diagnostics);
    out.design = std::move(load.design);
    return out;
}

// --- commands -------------------------------------------------------------

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

// --save-db honours --db-format {text|binary}: text (default) is the
// archival name-keyed format, binary the fast-loading id-keyed one (bound to
// this exact netlist by digest). Loading sniffs the format automatically.
int save_db_flagged(api::Session& session, const char* path, int argc, char** argv,
                    bool json) {
    const char* fmt = flag_value(argc, argv, "--db-format");
    const std::string fmt_s = fmt ? fmt : "text";
    if (fmt_s == "binary") {
        session.save_db_binary(path);
    } else if (fmt_s == "text") {
        session.save_db(path);
    } else {
        std::fprintf(stderr, "unknown --db-format '%s' (want text or binary)\n",
                     fmt_s.c_str());
        return 2;
    }
    if (!json) std::printf("saved learned data to %s (%s)\n", path, fmt_s.c_str());
    return 0;
}

int cmd_learn(api::Session& session, const netlist::Diagnostics& diags, int argc,
              char** argv, bool json) {
    core::LearnConfig cfg;
    if (const char* f = flag_value(argc, argv, "--frames"))
        cfg.max_frames = static_cast<std::uint32_t>(std::atoi(f));
    if (const char* l = flag_value(argc, argv, "--limit-stems")) {
        // Budgeted pass: stop deterministically after N work items
        // (LimitReached; partial results are kept and stats.cancelled is
        // set) — bounds learn time on huge circuits without a special-cased
        // fast path.
        cfg.budget.max_items = static_cast<std::size_t>(std::atoll(l));
    }
    if (const char* d = flag_value(argc, argv, "--deadline-ms"))
        cfg.budget.deadline = std::chrono::milliseconds(std::atoll(d));
    if (const char* k = flag_value(argc, argv, "--sat-frames"))
        cfg.sat_frames = static_cast<std::uint32_t>(std::atoi(k));

    const core::LearnResult& r = [&]() -> const core::LearnResult& {
        if (const char* resume = flag_value(argc, argv, "--resume"))
            return session.resume_learn(std::string(resume));
        return session.learn(cfg);
    }();
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
    if (const char* ckpt = flag_value(argc, argv, "--checkpoint")) {
        if (r.cursor.valid) {
            session.save_checkpoint(std::string(ckpt));
            if (!json) std::printf("saved resume checkpoint to %s\n", ckpt);
        } else if (!r.outcome.ok() && !json) {
            std::printf("no checkpoint saved: stop point not resumable (%s)\n",
                        r.outcome.name());
        }
    }
    const char* path = flag_value(argc, argv, "--save-db");
    if (path == nullptr) path = flag_value(argc, argv, "--out");
    if (path != nullptr) {
        const int rc = save_db_flagged(session, path, argc, argv, json);
        if (rc != 0) return rc;
    }
    return exit_code_for(r.outcome);
}

int cmd_atpg(api::Session& session, const netlist::Diagnostics& diags, int argc,
             char** argv, bool json) {
    atpg::AtpgConfig cfg;
    cfg.backtrack_limit = 30;
    if (const char* bt = flag_value(argc, argv, "--backtracks"))
        cfg.backtrack_limit = static_cast<std::uint32_t>(std::atoi(bt));
    if (const char* d = flag_value(argc, argv, "--deadline-ms"))
        cfg.budget.deadline = std::chrono::milliseconds(std::atoll(d));
    if (const char* b = flag_value(argc, argv, "--backend")) {
        if (!cnf::parse_backend(b, cfg.backend)) {
            std::fprintf(stderr, "unknown --backend '%s' (want framesim, sat or auto)\n",
                         b);
            return 2;
        }
    }
    if (const char* k = flag_value(argc, argv, "--sat-frames"))
        cfg.sat_frames = static_cast<std::uint32_t>(std::atoi(k));
    if (const char* o = flag_value(argc, argv, "--order")) {
        const auto parsed = guide::parse_order(o);
        if (!parsed) {
            std::fprintf(stderr,
                         "unknown --order '%s' (want index, level, scoap_hard_first or "
                         "random)\n",
                         o);
            return 2;
        }
        cfg.order = *parsed;
    }
    if (const char* s = flag_value(argc, argv, "--order-seed"))
        cfg.order_seed = static_cast<std::uint64_t>(std::atoll(s));
    if (const char* g = flag_value(argc, argv, "--guidance")) {
        const auto parsed = guide::parse_guidance(g);
        if (!parsed) {
            std::fprintf(stderr, "unknown --guidance '%s' (want none or scoap)\n", g);
            return 2;
        }
        cfg.guidance = *parsed;
    }
    if (const char* w = flag_value(argc, argv, "--rand-warmup"))
        cfg.rand_warmup = static_cast<std::size_t>(std::atoll(w));
    if (const char* f = flag_value(argc, argv, "--fill")) {
        // --fill turns on the static-compaction pass; the mode says how the
        // surviving don't-care positions are filled afterwards.
        const auto parsed = guide::parse_fill(f);
        if (!parsed) {
            std::fprintf(stderr, "unknown --fill '%s' (want x, zero, one or random)\n", f);
            return 2;
        }
        cfg.compact = true;
        cfg.fill = *parsed;
    }

    const char* mode = flag_value(argc, argv, "--mode");
    const std::string mode_s = mode ? mode : "forbidden";
    if (mode_s != "none") {
        cfg.mode = mode_s == "known" ? atpg::LearnMode::KnownValue
                                     : atpg::LearnMode::ForbiddenValue;
        const char* db_path = flag_value(argc, argv, "--load-db");
        if (db_path == nullptr) db_path = flag_value(argc, argv, "--learned");
        if (const char* path = db_path) {
            const std::size_t skipped = session.load_db(path);
            if (!json)
                std::printf("loaded learned data (%zu relations, %zu ties, %zu skipped)\n",
                            session.learn().db.size(), session.learn().ties.count(),
                            skipped);
        } else if (!json) {
            const core::LearnResult& learned = session.learn();
            std::printf("learned on the fly: %zu relations, %zu ties\n",
                        learned.db.size(), learned.ties.count());
        }
        cfg.count_c_cycle_redundant = true;
    }

    const api::AtpgReport& report = session.atpg(cfg);
    if (const char* path = flag_value(argc, argv, "--save-db")) {
        const int rc = save_db_flagged(session, path, argc, argv, json);
        if (rc != 0) return rc;
    }
    if (json) {
        const AtpgProvenance prov{&cfg, &report.outcome};
        print_json(session, diags,
                   cfg.backend != cnf::Backend::FrameSim ? &report : nullptr, &prov);
        return exit_code_for(report.outcome.run);
    }
    const auto c = report.list.counts();
    std::printf("mode=%s backend=%s backtracks=%u\n", mode_s.c_str(),
                cnf::backend_name(cfg.backend), cfg.backtrack_limit);
    std::printf("  detected:   %zu (of %zu)\n", c.detected, c.total);
    std::printf("  untestable: %zu\n", c.untestable);
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
    return exit_code_for(report.outcome.run);
}

int cmd_gen(int argc, char** argv) {
    const std::string out_path = argv[2];
    workload::GenParams p;
    p.name = "gen";
    if (const char* v = flag_value(argc, argv, "--name")) p.name = v;
    if (const char* v = flag_value(argc, argv, "--gates"))
        p.n_gates = static_cast<std::size_t>(std::atoll(v));
    if (const char* v = flag_value(argc, argv, "--ffs"))
        p.n_ffs = static_cast<std::size_t>(std::atoll(v));
    if (const char* v = flag_value(argc, argv, "--inputs"))
        p.n_inputs = static_cast<std::size_t>(std::atoll(v));
    if (const char* v = flag_value(argc, argv, "--outputs"))
        p.n_outputs = static_cast<std::size_t>(std::atoll(v));
    if (const char* v = flag_value(argc, argv, "--seed"))
        p.seed = static_cast<std::uint64_t>(std::atoll(v));
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

int cmd_serve(int argc, char** argv) {
    server::ServerConfig cfg;
    if (const char* v = flag_value(argc, argv, "--port"))
        cfg.port = static_cast<std::uint16_t>(std::atoi(v));
    if (const char* v = flag_value(argc, argv, "--max-sessions"))
        cfg.service.max_sessions = static_cast<std::size_t>(std::atoll(v));
    if (const char* v = flag_value(argc, argv, "--cache-mb"))
        cfg.service.cache.max_bytes = static_cast<std::size_t>(std::atoll(v)) << 20;
    if (const char* v = flag_value(argc, argv, "--threads"))
        cfg.service.threads = static_cast<unsigned>(std::atoi(v));
    if (const char* v = flag_value(argc, argv, "--drain-ms"))
        cfg.drain_deadline = std::chrono::milliseconds(std::atoll(v));
    if (const char* v = flag_value(argc, argv, "--max-frame-mb"))
        cfg.max_frame_bytes = static_cast<std::size_t>(std::atoll(v)) << 20;
    if (const char* v = flag_value(argc, argv, "--max-conns"))
        cfg.max_conns = static_cast<std::size_t>(std::atoll(v));
    if (const char* v = flag_value(argc, argv, "--idle-timeout-ms"))
        cfg.idle_timeout = std::chrono::milliseconds(std::atoll(v));
    if (const char* v = flag_value(argc, argv, "--write-timeout-ms"))
        cfg.write_timeout = std::chrono::milliseconds(std::atoll(v));

    // Deterministic chaos: arm one failure site for the whole process
    // (CI's crash-recovery smoke runs `--chaos fs_rename:1` and kills the
    // daemon mid-save).
    exec::FailurePoint chaos;
    if (const char* v = flag_value(argc, argv, "--chaos")) {
        if (!exec::arm_from_spec(chaos, v)) {
            std::fprintf(stderr, "error: bad --chaos spec \"%s\" (want site:nth, "
                                 "e.g. fs_rename:1)\n", v);
            return 2;
        }
        cfg.failpoint = &chaos;
    }

    // Durable snapshot store: open (recovery scan + quarantine) before the
    // listener, so a request arriving first thing sees the warm index.
    if (const char* v = flag_value(argc, argv, "--store")) {
        server::SnapshotStoreConfig store_cfg;
        store_cfg.dir = v;
        if (const char* mb = flag_value(argc, argv, "--store-mb"))
            store_cfg.max_bytes = static_cast<std::size_t>(std::atoll(mb)) << 20;
        store_cfg.failpoint = cfg.failpoint;
        std::string store_error;
        cfg.service.store =
            server::SnapshotStore::open(std::move(store_cfg), &store_error);
        if (!cfg.service.store) {
            std::fprintf(stderr, "error: %s\n", store_error.c_str());
            return 6;
        }
        const server::SnapshotStoreStats ss = cfg.service.store->stats();
        std::fprintf(stderr,
                     "snapshot store %s: %zu entries (%zu bytes), %zu quarantined\n",
                     v, ss.entries, ss.bytes, ss.quarantined);
    }

    server::Server srv(cfg);
    std::string error;
    if (!srv.start(&error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 6;
    }
    // Machine-readable startup line on stdout (scripts poll for it to learn
    // the ephemeral port); human log on stderr.
    std::printf("{\"serving\": {\"port\": %u, \"max_sessions\": %zu, "
                "\"cache_max_bytes\": %zu}}\n",
                static_cast<unsigned>(srv.port()), cfg.service.max_sessions,
                cfg.service.cache.max_bytes);
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
    if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
        try {
            return cmd_serve(argc, argv);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 6;
        }
    }
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: %s stats|learn|atpg|gen <circuit.bench|suite:NAME|out.bench>"
                     " [options]\n       %s serve [--port N] [options]\n",
                     argv[0], argv[0]);
        return 2;
    }
    try {
        const std::string cmd = argv[1];
        if (cmd == "gen") return cmd_gen(argc, argv);

        const bool json = flag_present(argc, argv, "--json");
        LoadedCircuit loaded = load_circuit(argv[2]);
        // Report every parse diagnostic on stderr (warnings included — they
        // used to be dropped); --json carries them in the output object too.
        if (!loaded.diagnostics.empty())
            std::fputs(loaded.diagnostics.to_string(loaded.source).c_str(), stderr);
        if (!loaded.design) {
            std::fprintf(stderr, "error: %s failed to parse (%zu errors)\n",
                         loaded.source.c_str(), loaded.diagnostics.error_count());
            if (json)
                std::printf("{\"error\": {\"class\": \"parse\", \"errors\": %zu}}\n",
                            loaded.diagnostics.error_count());
            return 3;
        }

        api::SessionConfig scfg;
        if (const char* t = flag_value(argc, argv, "--threads"))
            scfg.threads = static_cast<unsigned>(std::atoi(t));
        const bool progress = flag_present(argc, argv, "--progress");
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
        int rc = 2;
        if (cmd == "stats") rc = cmd_stats(session, loaded.diagnostics, json);
        else if (cmd == "learn")
            rc = cmd_learn(session, loaded.diagnostics, argc, argv, json);
        else if (cmd == "atpg")
            rc = cmd_atpg(session, loaded.diagnostics, argc, argv, json);
        else std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
        if (progress) std::fprintf(stderr, "\n");
        return rc;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        if (flag_present(argc, argv, "--json"))
            std::printf("{\"error\": {\"class\": \"internal\", \"message\": \"%s\"}}\n",
                        json_escape(e.what()).c_str());
        return 6;
    }
}
