// Machine-readable perf baseline: emits BENCH_sim.json with the throughput
// of the learning- and validation-relevant hot paths on the gen5378 suite
// circuit, plus deterministic row families. Every perf PR diffs against the
// numbers this driver produced at its base commit, so the schema is
// deliberately small and stable:
//
//   { "circuit": "gen5378",
//     "benchmarks": [ {"name": ..., "items_per_sec": ..., "seconds": ...,
//                      "items": ..., "threads": ...}, ... ] }
//
// A row may add members of its own after these. The throughput rows repeat
// their work for the time budget. The deterministic families run their work
// once per invocation, whatever the budget, and record its counts:
// scenarios/* (the ATPG guidance matrix) and the paper's tables,
// paper/table3/* (learning statistics), paper/table4/* (tie-gate against
// FIRE untestable faults), paper/table5/* (ATPG with and without learned
// data) and paper/depth/* (the frame-depth ablation).
//
// The *_mt rows run the same work as their serial twins on one worker per
// hardware thread through the exec subsystem ("threads" records the pool's
// size — on a 1-core machine they measure the pool's overhead, not a
// speedup); results are bit-identical to the serial rows by design.
// fault_sim_drop_detected_2t and _4t run the tie-free pass on pools of 2
// and 4 workers whatever the machine, so the 1/2/4-worker scaling is on
// record. fault_sim_drop_detected_ties_mt differs from
// fault_sim_drop_detected_mt only in carrying one learn's ties on the good
// machine.
// The learn_full_pass_batch row runs learn(), whose passes run on the
// calling thread and always simulate through the 64-lane bit-parallel
// BatchFrameSimulator; learning has no _mt twin.
//
// Usage: bench_bench_json [--min-seconds S] [output.json]
// (default: 2.0-second budget per row, BENCH_sim.json in cwd; "-" writes
// the JSON to stdout only; CI uses a small --min-seconds as a smoke check
// that every row still runs and emits well-formed JSON).

#include "api/session.hpp"
#include "atpg/atpg_loop.hpp"
#include "cnf/dispatch.hpp"
#include "core/db_io.hpp"
#include "netlist/bench_io.hpp"
#include "server/json.hpp"
#include "server/server.hpp"
#include "core/seq_learn.hpp"
#include "exec/pool.hpp"
#include "fault/collapse.hpp"
#include "fault/fault_sim.hpp"
#include "logic/pattern.hpp"
#include "netlist/topology.hpp"
#include "sim/batch_frame_sim.hpp"
#include "sim/frame_sim.hpp"
#include "sim/parallel_sim.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "workload/fires.hpp"
#include "workload/suite.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace seqlearn;
using logic::Val3;
using netlist::Netlist;

struct Row {
    std::string name;
    double items_per_sec = 0;
    double seconds = 0;
    std::size_t items = 0;
    unsigned threads = 1;
    /// Writes extra members after the standard ones, e.g. overhead_pct —
    /// rows with row-specific metrics use this instead of widening the
    /// stable schema for everyone.
    std::function<void(server::JsonWriter&)> extra;
};

/// A row whose work ran once and took `seconds`.
Row once(std::string name, std::size_t items, double seconds) {
    Row row;
    row.name = std::move(name);
    row.items = items;
    row.seconds = seconds;
    row.items_per_sec = static_cast<double>(items) / seconds;
    return row;
}

// Repeat `body(items_per_rep)` until `min_seconds` of wall time accumulates.
template <typename Body>
Row measure(std::string name, std::size_t items_per_rep, double min_seconds, Body&& body) {
    Row row;
    row.name = std::move(name);
    const util::Timer timer;
    while (timer.seconds() < min_seconds) {
        body();
        row.items += items_per_rep;
    }
    row.seconds = timer.seconds();
    row.items_per_sec = static_cast<double>(row.items) / row.seconds;
    return row;
}

double g_min_seconds = 2.0;

/// {"cmd": cmd, "design": digest}: a request on a loaded design.
std::string design_frame(std::string_view cmd, const std::string& digest) {
    server::JsonWriter w;
    return w.begin_object().field("cmd", cmd).field("design", digest).end_object().take();
}

Row bench_frame_sim(const Netlist& nl) {
    sim::FrameSimulator fsim(nl, sim::SeqGating::all_open(nl));
    const auto stems = nl.stems();
    sim::FrameSimOptions opt;
    opt.max_frames = 50;
    sim::FrameSimResult res;  // reused across runs
    std::size_t i = 0;
    return measure("frame_sim_stem_injection", 1, g_min_seconds, [&] {
        const sim::Injection inj{0, stems[i++ % stems.size()], Val3::One};
        fsim.run_into({&inj, 1}, opt, res);
    });
}

Row bench_frame_sim_batch(const Netlist& nl, const netlist::Topology& topo) {
    // The same stem-injection workload as frame_sim_stem_injection, 64
    // scenarios per event sweep against a background of the constants: one
    // batched run plus the per-lane extraction the learning passes use
    // (background values on constant gates left out); items = scenarios,
    // so the row is directly comparable.
    sim::FrameSimOptions opt;
    opt.max_frames = 50;
    const sim::TieClosure closure(topo, sim::SeqGating::all_open(nl), nullptr, opt.max_frames);
    sim::BatchFrameSimulator bsim(closure);
    const auto stems = nl.stems();
    std::vector<sim::Injection> inj(64);
    std::vector<sim::BatchLane> lanes(64);
    std::vector<sim::FrameSimResult> outs(64);
    sim::BatchFrameResult res;
    std::size_t i = 0;
    return measure("frame_sim_batch_injection", 64, g_min_seconds, [&] {
        for (int l = 0; l < 64; ++l) {
            inj[l] = {0, stems[i++ % stems.size()], Val3::One};
            lanes[l] = {{&inj[l], 1}, 0};
        }
        bsim.run_batch(lanes, opt, res);
        res.extract_all(outs);
    });
}

Row bench_parallel_patterns(const Netlist& nl) {
    const netlist::Topology topo(nl);
    util::Rng rng(1);
    std::vector<logic::Pattern> pats(nl.size());
    // 64 patterns per evaluation.
    return measure("parallel_pattern_eval", 64, g_min_seconds,
                   [&] { sim::eval_random(topo, pats, rng); });
}

Row bench_learn(const Netlist& nl, const netlist::Topology& topo) {
    // One full learn() pass per rep over the shared CSR snapshot (the
    // Session pattern); items = stems processed per pass.
    const std::size_t stems = nl.stems().size();
    return measure("learn_full_pass_batch", stems, g_min_seconds, [&] {
        const core::LearnResult r = core::learn(nl, topo);
        if (r.stats.stems_processed == 0) std::fprintf(stderr, "learn: empty pass?\n");
    });
}

Row bench_fault_sim(const Netlist& nl, const netlist::Topology& topo, exec::Pool* pool,
                    const char* name, const core::TieSet* ties = nullptr) {
    // drop_detected over the full collapsed list with 24-frame random
    // sequences — the validation hot path of every ATPG campaign; items =
    // faults simulated per repeat, `passes` = simulation passes per repeat
    // (kFaultsPerPass faults each). The simulator shares one CSR snapshot,
    // the Session pattern, and runs its passes on `pool` (null = the
    // calling thread); `threads` records the pool's size.
    // With `ties` the good machine carries learned ties, so every pass also
    // builds its tie lanes from the fault cones (the learning-aware
    // validation path); the sequences are the same as without.
    fault::FaultSimulator fsim(topo);
    fsim.set_executor(pool);
    if (ties != nullptr) fsim.set_good_ties(&ties->dense(), &ties->dense_cycles());
    const fault::CollapsedFaults collapsed = fault::collapse(nl);
    util::Rng rng(1);
    sim::InputSequence seq(24, sim::InputFrame(nl.inputs().size(), logic::Val3::X));
    Row row = measure(
        name, collapsed.size(), g_min_seconds, [&] {
            for (auto& frame : seq)
                for (auto& v : frame)
                    v = rng.chance(0.5) ? logic::Val3::One : logic::Val3::Zero;
            fault::FaultList list(collapsed.representatives());
            fsim.drop_detected(seq, list);
        });
    row.threads = pool != nullptr ? pool->size() : 1;
    const std::size_t passes =
        (collapsed.size() + fault::kFaultsPerPass - 1) / fault::kFaultsPerPass;
    row.extra = [passes](server::JsonWriter& w) { w.field("passes", passes); };
    return row;
}

Row bench_budget_overhead(const Netlist& nl, const netlist::Topology& topo) {
    // Cost of the governance layer on the learning hot path: full serial
    // passes with an active (but never-tripping) Budget — deadline polling
    // at every stem boundary — paired with identical ungoverned passes. The
    // row reports governed throughput; overhead_pct is the median of the
    // per-pair governed/plain wall-time ratios (CI pins it under 2%; polling
    // is one steady_clock read per stem). A pair's two passes run back to
    // back in alternating order, so drift and warm-up favour neither side
    // and a slow moment of the machine mostly cancels within its pair: a
    // 1-thread gen5378 pass takes ~30 ms, short enough for best-of-N per
    // side to pick up scheduler noise on a shared 4-CPU VM.
    core::LearnConfig governed;
    governed.budget.deadline = std::chrono::hours(24);
    governed.budget.max_items = static_cast<std::size_t>(-1) / 2;
    core::LearnConfig plain = governed;
    plain.budget = {};

    Row row;
    row.name = "budget_overhead";
    double governed_s = 0;
    std::vector<double> ratios;
    const util::Timer total;
    while (ratios.size() < 41 || total.seconds() < 2 * g_min_seconds) {
        const bool governed_first = ratios.size() % 2 == 0;
        double pass_s[2] = {0, 0};  // governed, plain
        for (const bool governed_side : {governed_first, !governed_first}) {
            // The result outlives the timer read, so no side pays for
            // freeing the learned data inside its timed window.
            const util::Timer t;
            const core::LearnResult r = core::learn(nl, topo, governed_side ? governed : plain);
            pass_s[governed_side ? 0 : 1] = t.seconds();
            if (governed_side && !r.outcome.ok())
                std::fprintf(stderr, "budget_overhead: tripped?\n");
        }
        governed_s += pass_s[0];
        row.items += nl.stems().size();
        ratios.push_back(pass_s[0] / pass_s[1]);
    }
    row.seconds = governed_s;
    row.items_per_sec = static_cast<double>(row.items) / governed_s;
    std::sort(ratios.begin(), ratios.end());
    const std::size_t mid = ratios.size() / 2;
    const double median =
        ratios.size() % 2 == 1 ? ratios[mid] : (ratios[mid - 1] + ratios[mid]) / 2;
    const double overhead_pct = (median - 1.0) * 100.0;
    row.extra = [=](server::JsonWriter& w) {
        w.field("overhead_pct", overhead_pct, 2).field("pairs", ratios.size());
    };
    return row;
}

Row bench_learn_resume(const Netlist& nl, const netlist::Topology& topo) {
    // The checkpoint/resume path end to end: a budgeted pass stopped halfway
    // through the stems, a full text-format checkpoint round trip, and a
    // resumed pass to completion — interleaved with uninterrupted one-shot
    // passes. overhead_pct is the price of splitting a run in two, fixed
    // costs included. The fixed costs are reported apart: checkpoint_ms is
    // the save + load, and passes_overhead_pct compares the stopped and the
    // resumed pass alone with the one-shot pass (the resumed pass repeats
    // the equivalence phase). Each figure is a best-of over the reps.
    core::LearnConfig base;
    core::LearnConfig budgeted = base;
    budgeted.budget.max_items = nl.stems().size() / 2;

    Row row;
    row.name = "learn_resume";
    double split_s = 0;
    double split_min = 1e300;
    double passes_min = 1e300;
    double checkpoint_min = 1e300;
    double one_shot_min = 1e300;
    unsigned pairs = 0;
    const util::Timer total;
    while (pairs < 3 || total.seconds() < 2 * g_min_seconds) {
        {
            const util::Timer t;
            const core::LearnResult partial = core::learn(nl, topo, budgeted);
            const double stopped_s = t.seconds();
            std::stringstream ss;
            core::save_checkpoint(ss, nl, partial);
            core::LearnResult ckpt = core::load_checkpoint(ss, nl);
            const double checkpoint_s = t.seconds() - stopped_s;
            const core::LearnResult resumed =
                core::resume_learn(nl, topo, base, std::move(ckpt));
            const double s = t.seconds();
            split_s += s;
            split_min = std::min(split_min, s);
            passes_min = std::min(passes_min, s - checkpoint_s);
            checkpoint_min = std::min(checkpoint_min, checkpoint_s);
            row.items += nl.stems().size();
            if (!resumed.outcome.ok()) std::fprintf(stderr, "learn_resume: not ok?\n");
        }
        {
            const util::Timer t;
            const core::LearnResult r = core::learn(nl, topo, base);
            one_shot_min = std::min(one_shot_min, t.seconds());
        }
        ++pairs;
    }
    row.seconds = split_s;
    row.items_per_sec = static_cast<double>(row.items) / split_s;
    const double overhead_pct = (split_min / one_shot_min - 1.0) * 100.0;
    const double passes_overhead_pct = (passes_min / one_shot_min - 1.0) * 100.0;
    row.extra = [=](server::JsonWriter& w) {
        w.field("overhead_pct", overhead_pct, 2).field("checkpoint_ms", checkpoint_min * 1e3, 2);
        w.field("passes_overhead_pct", passes_overhead_pct, 2);
    };
    return row;
}

Row bench_multi_session_atpg(const Netlist& nl) {
    // The serving pattern of the Design/Session split: K concurrent
    // Sessions over ONE shared immutable Design, each adopting ONE frozen
    // LearnedSnapshot and running an independent ATPG campaign on its own
    // thread (campaigns capped at kCap targeted faults via the progress
    // observer so a rep stays bounded). Items = faults targeted across all
    // sessions; on a 1-core box the threads serialize and the row measures
    // the sharing overhead, on real hardware it fans out.
    constexpr unsigned kSessions = 4;
    constexpr std::size_t kCap = 32;
    const api::DesignPtr design = api::DesignBuilder(Netlist(nl)).build();
    api::Session learner(design);
    const std::shared_ptr<const core::LearnedSnapshot> snap = learner.freeze_learned();
    Row row = measure("multi_session_atpg", kSessions * kCap, g_min_seconds, [&] {
        std::vector<std::thread> threads;
        threads.reserve(kSessions);
        for (unsigned t = 0; t < kSessions; ++t) {
            threads.emplace_back([&design, &snap] {
                api::SessionConfig cfg;
                cfg.threads = 1;
                cfg.progress = [](const api::Progress& p) {
                    return !(p.stage == api::Stage::Atpg && p.done >= kCap);
                };
                api::Session session(design, std::move(cfg));
                session.use_learned(snap);
                atpg::AtpgConfig acfg;
                acfg.mode = atpg::LearnMode::ForbiddenValue;
                acfg.backtrack_limit = 30;
                // Generation throughput only: the untestability provers are
                // a separate (and much slower) per-fault cost that would
                // drown the sharing signal this row exists to track.
                acfg.identify_untestable = false;
                session.atpg(acfg);
            });
        }
        for (std::thread& t : threads) t.join();
    });
    row.threads = kSessions;
    return row;
}

Row bench_server_throughput() {
    // The serving subsystem end to end: a real loopback Server, 8 client
    // threads each on its own connection, warm cache (the circuit is loaded
    // and learned once up front), mixed stats / learn / atpg traffic — the
    // steady state of a long-lived daemon. Runs on fig1x so request overhead
    // (framing, JSON, digest lookup, session setup) dominates over engine
    // time; items = requests served; p95_ms is across every request.
    constexpr unsigned kClients = 8;
    server::ServerConfig scfg;
    scfg.service.max_sessions = kClients;
    scfg.service.threads = 1;
    server::Server srv(scfg);
    std::string err;
    if (!srv.start(&err)) {
        std::fprintf(stderr, "server_throughput: %s\n", err.c_str());
        Row row;
        row.name = "server_throughput";
        return row;
    }

    const auto connect_client = [&srv]() -> int {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(srv.port());
        if (fd >= 0 &&
            ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    };
    const auto rpc = [](int fd, std::string frame, std::string* out) -> bool {
        frame += '\n';
        std::size_t sent = 0;
        while (sent < frame.size()) {
            const ssize_t n =
                ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) return false;
            sent += static_cast<std::size_t>(n);
        }
        out->clear();
        char ch;
        while (::recv(fd, &ch, 1, 0) == 1) {
            if (ch == '\n') return true;
            out->push_back(ch);
        }
        return false;
    };

    // Warm the cache: load + learn once; every benched request rides the
    // attached snapshot.
    const std::string bench =
        netlist::write_bench_string(workload::suite_circuit("fig1x"));
    const int warm_fd = connect_client();
    std::string response;
    std::string digest;
    if (warm_fd >= 0 &&
        rpc(warm_fd,
            server::JsonWriter().begin_object().field("cmd", "load").field("bench", bench)
                .end_object().take(),
            &response)) {
        if (const auto doc = server::JsonValue::parse(response, nullptr))
            digest = doc->get_string("design");
        rpc(warm_fd, design_frame("learn", digest), &response);
        ::close(warm_fd);
    }

    const std::array<std::string, 3> frames = {
        design_frame("stats", digest),
        design_frame("learn", digest),
        design_frame("atpg", digest),
    };

    std::vector<std::vector<double>> latencies(kClients);
    std::vector<std::size_t> counts(kClients, 0);
    {
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (unsigned t = 0; t < kClients; ++t) {
            clients.emplace_back([&, t] {
                const int fd = connect_client();
                if (fd < 0) return;
                std::string resp;
                const util::Timer timer;
                std::size_t i = t;  // stagger the mix across clients
                while (timer.seconds() < g_min_seconds) {
                    const util::Timer one;
                    if (!rpc(fd, frames[i++ % frames.size()], &resp)) break;
                    latencies[t].push_back(one.seconds() * 1000.0);
                    ++counts[t];
                }
                ::close(fd);
            });
        }
        for (std::thread& c : clients) c.join();
    }
    srv.stop();

    Row row;
    row.name = "server_throughput";
    row.threads = kClients;
    std::vector<double> all;
    double span = 0;
    for (unsigned t = 0; t < kClients; ++t) {
        row.items += counts[t];
        all.insert(all.end(), latencies[t].begin(), latencies[t].end());
        for (const double ms : latencies[t]) span += ms / 1000.0;
    }
    // Wall time ≈ per-client time; requests/s counts all clients together.
    row.seconds = span / kClients;
    row.items_per_sec = row.seconds > 0 ? static_cast<double>(row.items) / row.seconds : 0;
    double p95 = 0;
    if (!all.empty()) {
        std::sort(all.begin(), all.end());
        p95 = all[std::min(all.size() - 1,
                           static_cast<std::size_t>(all.size() * 0.95))];
    }
    row.extra = [=](server::JsonWriter& w) { w.field("p95_ms", p95, 3); };
    return row;
}

Row bench_scenario(const std::string& circuit, const Netlist& nl,
                   const netlist::Topology& topo, guide::OrderStrategy order,
                   guide::Guidance guidance, cnf::Backend backend) {
    // One full ATPG campaign per row over the collapsed fault list — the
    // (circuit x ordering x guidance x backend) matrix the guidance work is
    // judged by. Unlike the throughput rows these run exactly once (coverage
    // and abort counts are deterministic, repeating them buys nothing), with
    // a deliberately shallow window schedule and backtrack limit so the full
    // matrix stays a bounded slice of the real campaign: every row covers
    // the whole fault list, so scoap-vs-none deltas are apples to apples.
    atpg::AtpgConfig cfg;
    cfg.mode = atpg::LearnMode::None;
    cfg.identify_untestable = false;
    cfg.backtrack_limit = 12;
    cfg.windows = {1, 2};
    cfg.backend = backend;
    cfg.sat_frames = 3;
    cfg.order = order;
    cfg.guidance = guidance;
    if (guidance == guide::Guidance::Scoap) {
        // The guided configuration is the full recipe the paper-style flow
        // would ship: random warmup bulk-drops the easy faults, compaction
        // with random fill shrinks the pattern set.
        cfg.rand_warmup = 128;
        cfg.compact = true;
        cfg.fill = guide::FillMode::Random;
    }
    fault::FaultList list(fault::collapse(nl).representatives());

    const char* backend_name = backend == cnf::Backend::FrameSim ? "frame"
                               : backend == cnf::Backend::Sat    ? "sat"
                                                                 : "auto";
    const std::string name = "scenarios/" + circuit + "/" +
                             std::string(guide::order_name(order)) + "/" +
                             std::string(guide::guidance_name(guidance)) + "/" + backend_name;
    const util::Timer t;
    const atpg::AtpgOutcome out = atpg::run_atpg(topo, list, cfg);
    Row row = once(name, list.size(), t.seconds());
    const fault::FaultList::Counts c = list.counts();
    row.extra = [=](server::JsonWriter& w) {
        w.field("fault_coverage", list.fault_coverage(), 4);
        w.field("test_coverage", list.test_coverage(), 4).field("detected", c.detected);
        w.field("aborts", c.aborted).field("untestable", c.untestable);
        w.field("untestable_bounded", c.untestable_bounded);
        w.field("patterns", out.tests.size()).field("pattern_frames", out.pattern_frames);
        w.field("gen_calls", out.gen_calls).field("warmup_dropped", out.detected_by_warmup);
        w.field("compaction_before", out.compaction_before);
    };
    if (!out.run.ok()) std::fprintf(stderr, "%s: campaign stopped early\n", row.name.c_str());
    return row;
}

Row bench_sat_untestable(const Netlist& nl, const netlist::Topology& topo) {
    // CNF backend classification throughput: prove_fault (fresh miter +
    // solver per fault, the campaign's SAT-phase pattern) over the collapsed
    // universe at K = 4 frames, one fault per rep, round-robin. Every rep
    // ends in a definitive verdict — witness or untestable-within-K — and
    // the split lands in extra so coverage shifts are visible in the diff.
    const fault::CollapsedFaults collapsed = fault::collapse(nl);
    const auto& reps = collapsed.representatives();
    std::size_t i = 0, untestable = 0, witnesses = 0;
    Row row = measure("sat_untestable", 1, g_min_seconds, [&] {
        const cnf::CnfVerdict v = cnf::prove_fault(topo, reps[i++ % reps.size()], 4,
                                                   nullptr, nullptr, nullptr);
        if (v.kind == cnf::CnfVerdict::Kind::Untestable) ++untestable;
        else if (v.kind == cnf::CnfVerdict::Kind::Test) ++witnesses;
    });
    row.extra = [=](server::JsonWriter& w) {
        w.field("untestable", untestable).field("witnesses", witnesses);
    };
    return row;
}

Row bench_learn_sat_mode(const Netlist& nl, const netlist::Topology& topo) {
    // learn() with the SAT probe phase on: the full frame-sim pipeline plus
    // K-frame failed-literal mining over every stem. items = stems per pass,
    // directly comparable to learn_full_pass_batch — the delta is the SAT
    // phase.
    core::LearnConfig cfg;
    cfg.sat_frames = 4;
    const std::size_t stems = nl.stems().size();
    std::size_t sat_ties = 0, sat_relations = 0;
    Row row = measure("learn_sat_mode", stems, g_min_seconds, [&] {
        const core::LearnResult r = core::learn(nl, topo, cfg);
        sat_ties = r.stats.sat_ties;
        sat_relations = r.stats.sat_relations;
        if (r.stats.sat_probes == 0) std::fprintf(stderr, "learn_sat_mode: no probes?\n");
    });
    row.extra = [=](server::JsonWriter& w) {
        w.field("sat_ties", sat_ties).field("sat_relations", sat_relations);
    };
    return row;
}

Row bench_server_warm_restart(const Netlist& nl, const netlist::Topology& topo) {
    // The durable store's warm-restart path, end to end through
    // Service::handle: each rep is a daemon restart — a fresh Service over
    // a populated --store directory (recovery scan included) answering one
    // stats request on the previously learned gen5378, which recompiles the
    // stored bench bytes and re-attaches the binary snapshot. The extra
    // members compare that against the cold alternative: re-running the
    // learn. items = restarts served.
    const std::string bench = netlist::write_bench_string(nl);
    const std::uint64_t digest = server::content_digest(bench);

    const util::Timer cold_timer;
    const core::LearnResult learned = core::learn(nl, topo);
    const double cold_learn_s = cold_timer.seconds();

    Row row;
    row.name = "server_warm_restart";
    char dir_tmpl[] = "/tmp/seqlearn_bench_store_XXXXXX";
    const char* dir = ::mkdtemp(dir_tmpl);
    if (dir == nullptr) {
        std::fprintf(stderr, "server_warm_restart: mkdtemp failed\n");
        return row;
    }
    {
        server::SnapshotStoreConfig scfg;
        scfg.dir = dir;
        std::string err;
        const std::shared_ptr<server::SnapshotStore> store =
            server::SnapshotStore::open(std::move(scfg), &err);
        std::ostringstream bin;
        core::save_learned_binary(bin, nl, learned.db, learned.ties);
        if (!store || !store->put(digest, bench, std::move(bin).str(), &err)) {
            std::fprintf(stderr, "server_warm_restart: %s\n", err.c_str());
            return row;
        }
    }

    const std::string stats_frame = design_frame("stats", server::hex_u64(digest));
    row = measure("server_warm_restart", 1, g_min_seconds, [&] {
        server::ServiceConfig cfg;
        server::SnapshotStoreConfig scfg;
        scfg.dir = dir;
        std::string err;
        cfg.store = server::SnapshotStore::open(std::move(scfg), &err);
        server::Service svc(cfg);
        const std::string resp = svc.handle(stats_frame);
        if (resp.find("relation_hash") == std::string::npos)
            std::fprintf(stderr, "server_warm_restart: learned data not served\n");
    });

    const std::string entry = std::string(dir) + "/" + server::hex_u64(digest) + ".snap";
    ::unlink(entry.c_str());
    ::rmdir(dir);

    const double warm_s =
        row.items > 0 ? row.seconds / static_cast<double>(row.items) : 0;
    const double speedup = warm_s > 0 ? cold_learn_s / warm_s : 0.0;
    row.extra = [=](server::JsonWriter& w) {
        w.field("cold_learn_s", cold_learn_s, 3).field("speedup_vs_cold", speedup, 1);
    };
    return row;
}

Row bench_snapshot_load(const Netlist& nl, const netlist::Topology& topo) {
    // Snapshot deserialization on a learned gen5378 database: the binary v2
    // format against the text format, same data. This is the daemon's
    // restart path (and --load-db's); speedup_vs_text is what the binary
    // format buys. items = relations+ties decoded per load.
    const core::LearnResult learned = core::learn(nl, topo);

    std::ostringstream text_out, bin_out;
    core::save_learned(text_out, nl, learned.db, learned.ties);
    core::save_learned_binary(bin_out, nl, learned.db, learned.ties);
    const std::string text = text_out.str();
    const std::string bin = bin_out.str();
    const std::size_t items = learned.db.size() + learned.ties.count();

    double text_min = 1e300;
    {
        const util::Timer total;
        while (total.seconds() < g_min_seconds / 2) {
            std::istringstream in(text);
            const util::Timer t;
            (void)core::load_learned(in, nl);
            text_min = std::min(text_min, t.seconds());
        }
    }
    // Same statistic on both sides: best-of per-load. The loads are
    // deterministic, so min is the right noise-robust estimate; comparing a
    // text minimum against a binary average would skew the ratio.
    double bin_min = 1e300;
    Row row = measure("snapshot_load_binary", items, g_min_seconds / 2, [&] {
        std::istringstream in(bin);
        const util::Timer t;
        (void)core::load_learned_any(in, nl);  // sniffs magic, binary path
        bin_min = std::min(bin_min, t.seconds());
    });
    row.extra = [speedup = text_min / bin_min, text_bytes = text.size(),
                 binary_bytes = bin.size()](server::JsonWriter& w) {
        w.field("speedup_vs_text", speedup, 1).field("text_bytes", text_bytes);
        w.field("binary_bytes", binary_bytes);
    };
    return row;
}

// The paper's tables. Each row runs at the paper's settings (50 learning
// frames, backtrack limits 30 and 1000) and times one run; learning runs at
// one worker. Every circuit's Topology is built before a clock starts, so no
// row times circuit compilation.

Row bench_table3(const std::string& circuit) {
    // Table 3, learning statistics: sequential (frame >= 1) relation counts
    // and ties from one learn; items = stems.
    const Netlist nl = workload::suite_circuit(circuit);
    const netlist::Topology topo(nl);
    const util::Timer t;
    const core::LearnResult r = core::learn(nl, topo);
    Row row = once("paper/table3/" + circuit, nl.stems().size(), t.seconds());
    const Netlist::Counts c = nl.counts();
    row.extra = [ffs = c.flip_flops + c.latches, gates = c.combinational, stats = r.stats,
                 ties = r.ties.count()](server::JsonWriter& w) {
        w.field("ffs", ffs).field("gates", gates);
        w.field("ff_ff_relations", stats.ff_ff_relations);
        w.field("gate_ff_relations", stats.gate_ff_relations).field("ties", ties);
    };
    return row;
}

Row bench_table4(const std::string& circuit) {
    // Table 4, untestable faults over the uncollapsed universe (items): the
    // ones a learned tie proves, c-cycle-redundant faults included, against
    // the FIRE-style baseline. tie_s is the learn plus the tie marking,
    // fire_s the baseline; seconds is both.
    const Netlist nl = workload::suite_circuit(circuit);
    const netlist::Topology topo(nl);
    const std::vector<fault::Fault> universe = fault::fault_universe(nl);
    const util::Timer tie_timer;
    const core::LearnResult r = core::learn(nl, topo);
    const std::size_t tie_untestable = r.ties.untestable_faults(nl, universe).size();
    const double tie_s = tie_timer.seconds();
    const util::Timer fire_timer;
    const std::size_t fire_untestable =
        workload::fires_untestable(nl, universe).untestable.size();
    const double fire_s = fire_timer.seconds();
    Row row = once("paper/table4/" + circuit, universe.size(), tie_s + fire_s);
    row.extra = [=](server::JsonWriter& w) {
        w.field("tie_untestable", tie_untestable).field("fire_untestable", fire_untestable);
        w.field("tie_s", tie_s, 3).field("fire_s", fire_s, 3);
    };
    return row;
}

void bench_table5(const std::string& circuit, exec::Pool& pool, std::vector<Row>& rows) {
    // Table 5, ATPG with and without learned data: one learn, then a
    // campaign over the collapsed list per (mode, backtrack limit). As in
    // the paper, the learned columns count c-cycle-redundant tie faults as
    // untestable. items = collapsed faults.
    const Netlist nl = workload::suite_circuit(circuit);
    const netlist::Topology topo(nl);
    const core::LearnResult learned = core::learn(nl, topo);
    const fault::CollapsedFaults collapsed = fault::collapse(nl);
    constexpr std::array<std::pair<atpg::LearnMode, const char*>, 3> modes = {{
        {atpg::LearnMode::None, "none"},
        {atpg::LearnMode::ForbiddenValue, "forbidden"},
        {atpg::LearnMode::KnownValue, "known"},
    }};
    for (const auto& [mode, mode_name] : modes) {
        for (const std::uint32_t backtracks : {30u, 1000u}) {
            atpg::AtpgConfig cfg;
            cfg.executor = &pool;
            cfg.mode = mode;
            cfg.learned = mode == atpg::LearnMode::None ? nullptr : &learned;
            cfg.count_c_cycle_redundant = cfg.learned != nullptr;
            cfg.backtrack_limit = backtracks;
            cfg.redundancy_effort = 500;
            cfg.windows = {1, 2, 3, 4, 6, 8};
            fault::FaultList list(collapsed.representatives());
            const std::string name = "paper/table5/" + circuit + "/" + mode_name + "/bt" +
                                     std::to_string(backtracks);
            const util::Timer t;
            const atpg::AtpgOutcome out = atpg::run_atpg(topo, list, cfg);
            Row row = once(name, list.size(), t.seconds());
            row.threads = pool.size();
            row.extra = [c = list.counts(), by_tie = out.untestable_by_tie,
                         by_proof = out.untestable_by_proof](server::JsonWriter& w) {
                w.field("detected", c.detected).field("untestable", c.untestable);
                w.field("untestable_by_tie", by_tie).field("untestable_by_proof", by_proof);
                w.field("aborted", c.aborted);
            };
            if (!out.run.ok()) std::fprintf(stderr, "%s: campaign stopped early\n", name.c_str());
            rows.push_back(std::move(row));
        }
    }
}

void bench_depth(const std::string& circuit, std::vector<Row>& rows) {
    // Frame-depth ablation: what each learning depth buys, from one frame to
    // the paper's 50. items = stems.
    const Netlist nl = workload::suite_circuit(circuit);
    const netlist::Topology topo(nl);
    for (const std::uint32_t frames : {1u, 2u, 5u, 10u, 20u, 50u}) {
        core::LearnConfig cfg;
        cfg.max_frames = frames;
        const util::Timer t;
        const core::LearnResult r = core::learn(nl, topo, cfg);
        Row row = once("paper/depth/" + circuit + "/f" + std::to_string(frames),
                       nl.stems().size(), t.seconds());
        row.extra = [stats = r.stats, ties = r.ties.count()](server::JsonWriter& w) {
            w.field("ff_ff_relations", stats.ff_ff_relations);
            w.field("gate_ff_relations", stats.gate_ff_relations).field("ties", ties);
            w.field("multi_relations", stats.multi_relations);
        };
        rows.push_back(std::move(row));
    }
}

}  // namespace

// The checkout's commit, for the provenance header: "-dirty" when the
// working tree differs from it, "unknown" outside git.
std::string git_rev() {
    std::string rev;
    if (std::FILE* p = popen("git describe --always --dirty --abbrev=12 2>/dev/null", "r")) {
        char buf[64];
        while (std::fgets(buf, sizeof buf, p) != nullptr) rev += buf;
        if (pclose(p) != 0) rev.clear();
    }
    while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) rev.pop_back();
    return rev.empty() ? "unknown" : rev;
}

int main(int argc, char** argv) {
    std::string out_path = "BENCH_sim.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--min-seconds") == 0) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "usage: %s [--min-seconds S] [output.json]\n", argv[0]);
                return 2;
            }
            g_min_seconds = std::atof(argv[++i]);
            if (g_min_seconds <= 0) {
                std::fprintf(stderr, "--min-seconds wants a positive number, got \"%s\"\n",
                             argv[i]);
                return 2;
            }
        } else if (argv[i][0] == '-' && argv[i][1] == '-') {
            // "-" (stdout only) is a valid path; unknown --flags are not.
            std::fprintf(stderr, "unknown flag %s\nusage: %s [--min-seconds S] [output.json]\n",
                         argv[i], argv[0]);
            return 2;
        } else {
            out_path = argv[i];
        }
    }
    const Netlist nl = workload::suite_circuit("gen5378");
    const netlist::Topology topo(nl);
    const unsigned hw = exec::Pool::hardware_threads();
    exec::Pool pool(hw);

    std::vector<Row> rows;
    rows.push_back(bench_frame_sim(nl));
    rows.push_back(bench_frame_sim_batch(nl, topo));
    rows.push_back(bench_parallel_patterns(nl));
    rows.push_back(bench_learn(nl, topo));
    rows.push_back(bench_fault_sim(nl, topo, nullptr, "fault_sim_drop_detected"));
    for (const unsigned workers : {2u, 4u}) {
        exec::Pool sized(workers);
        const std::string name = "fault_sim_drop_detected_" + std::to_string(workers) + "t";
        rows.push_back(bench_fault_sim(nl, topo, &sized, name.c_str()));
    }
    rows.push_back(bench_fault_sim(nl, topo, &pool, "fault_sim_drop_detected_mt"));
    {
        const core::LearnResult learned = core::learn(nl, topo);
        rows.push_back(
            bench_fault_sim(nl, topo, &pool, "fault_sim_drop_detected_ties_mt", &learned.ties));
    }
    rows.push_back(bench_multi_session_atpg(nl));
    rows.push_back(bench_budget_overhead(nl, topo));
    rows.push_back(bench_learn_resume(nl, topo));
    rows.push_back(bench_server_throughput());
    rows.push_back(bench_server_warm_restart(nl, topo));
    rows.push_back(bench_snapshot_load(nl, topo));
    rows.push_back(bench_sat_untestable(nl, topo));
    rows.push_back(bench_learn_sat_mode(nl, topo));

    // Guidance scenario matrix: every ordering x guidance combination on a
    // small and a large suite circuit through the frame-sim backend, plus
    // the SCOAP-aware auto router on the small one (auto re-dispatches every
    // abort to the CNF backend, which would dwarf the matrix on gen5378).
    {
        const Netlist small = workload::suite_circuit("rt510a");
        const netlist::Topology small_topo(small);
        constexpr std::array<guide::OrderStrategy, 3> orders = {
            guide::OrderStrategy::Index, guide::OrderStrategy::ScoapHardFirst,
            guide::OrderStrategy::Random};
        constexpr std::array<guide::Guidance, 2> modes = {guide::Guidance::None,
                                                          guide::Guidance::Scoap};
        for (const guide::OrderStrategy order : orders)
            for (const guide::Guidance g : modes) {
                rows.push_back(
                    bench_scenario("rt510a", small, small_topo, order, g,
                                   cnf::Backend::FrameSim));
                rows.push_back(
                    bench_scenario("gen5378", nl, topo, order, g, cnf::Backend::FrameSim));
            }
        rows.push_back(bench_scenario("rt510a", small, small_topo,
                                      guide::OrderStrategy::Index,
                                      guide::Guidance::None, cnf::Backend::Auto));
        rows.push_back(bench_scenario("rt510a", small, small_topo,
                                      guide::OrderStrategy::Index,
                                      guide::Guidance::Scoap, cnf::Backend::Auto));
    }

    // The paper's tables. Table 3 leaves out its five largest circuits,
    // which take from half a second to minutes each to learn; perfbench's
    // learn_gen38417 covers learning at that scale.
    constexpr std::array<std::string_view, 5> largest = {"gen38417", "gen38584", "ind20k",
                                                         "ind60k", "ind250k"};
    for (const std::string& circuit : workload::table3_names())
        if (std::ranges::find(largest, circuit) == largest.end())
            rows.push_back(bench_table3(circuit));
    for (const std::string& circuit : workload::table4_names())
        rows.push_back(bench_table4(circuit));
    for (const std::string& circuit : workload::table5_names()) bench_table5(circuit, pool, rows);
    for (const char* circuit : {"gen5378", "rt510a"}) bench_depth(circuit, rows);

    // One row per line: the committed BENCH_sim.json diffs row by row.
    server::JsonWriter w(2);
    w.begin_object().field("circuit", "gen5378");
    w.key("provenance").begin_object().field("nproc", hw);
    w.field("build_type", SEQLEARN_BUILD_TYPE).field("compiler", SEQLEARN_COMPILER);
    w.field("git_rev", git_rev()).end_object();
    w.key("benchmarks").begin_array();
    for (const Row& row : rows) {
        w.begin_object().field("name", row.name).field("items_per_sec", row.items_per_sec, 1);
        w.field("seconds", row.seconds, 3).field("items", row.items);
        w.field("threads", row.threads);
        if (row.extra) row.extra(w);
        w.end_object();
    }
    const std::string json = w.end_array().end_object().str() + "\n";

    std::fputs(json.c_str(), stdout);
    if (out_path != "-") {
        if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
            std::fputs(json.c_str(), f);
            std::fclose(f);
        } else {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 1;
        }
    }
    return 0;
}
