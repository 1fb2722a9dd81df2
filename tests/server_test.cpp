// ATPG-as-a-service: protocol, cache, concurrency, and snapshot contracts.
//
// What is pinned here:
//   * K ∈ {2, 8} concurrent socket clients on ONE cached Design produce
//     learn relation-hashes and ATPG campaign digests bit-identical to a
//     serial api::Session run with the same configuration — the serving
//     layer adds scheduling, never different results. (TSan CI runs this.)
//   * LRU eviction under a tight byte cap keeps the service serving:
//     evicted digests get the structured unknown_design error and a
//     re-load repopulates the entry.
//   * Hostile input — malformed JSON, non-object frames, oversized lines,
//     unknown commands, bad digests — yields structured protocol errors on
//     a connection that stays usable; nothing crashes, nothing hangs.
//   * The binary snapshot format round-trips byte-identically
//     (save → load → re-save) and refuses a wrong netlist digest.
//   * Graceful drain: a request in flight when the server stops still gets
//     a response (a Cancelled outcome), not a dropped connection.
//   * The warm path is fast: a previously-seen 100k-gate circuit answers a
//     cached load + stats in milliseconds (wall-clock bound is asserted in
//     optimized, unsanitized builds only).

#include "server/server.hpp"

#include "api/session.hpp"
#include "atpg/atpg_loop.hpp"
#include "core/db_io.hpp"
#include "core/impl_db.hpp"
#include "netlist/bench_io.hpp"
#include "server/json.hpp"
#include "workload/circuit_gen.hpp"
#include "workload/suite.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace seqlearn {
namespace {

using server::JsonValue;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Minimal blocking protocol client: one connection, line-framed rpc.
class Client {
public:
    explicit Client(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
                  0);
    }
    ~Client() {
        if (fd_ >= 0) ::close(fd_);
    }
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    void send_raw(std::string_view text) {
        std::size_t sent = 0;
        while (sent < text.size()) {
            const ssize_t n =
                ::send(fd_, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) {
                ADD_FAILURE() << "send failed";
                return;
            }
            sent += static_cast<std::size_t>(n);
        }
    }

    /// Read one '\n'-terminated response line ("" on EOF).
    std::string read_line() {
        for (;;) {
            const auto nl = buf_.find('\n');
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return line;
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n <= 0) return {};
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /// Send one frame, parse the one response (Null value on any failure).
    JsonValue rpc(std::string frame) {
        frame += '\n';
        send_raw(frame);
        const std::string line = read_line();
        EXPECT_FALSE(line.empty()) << "connection dropped instead of responding";
        if (line.empty()) return JsonValue();
        std::string err;
        auto doc = JsonValue::parse(line, &err);
        EXPECT_TRUE(doc.has_value()) << err << " in: " << line;
        return doc ? *doc : JsonValue();
    }

private:
    int fd_ = -1;
    std::string buf_;
};

/// {"cmd": "load", "bench": "..."} with the bench text escaped.
std::string load_frame(const std::string& bench, const std::string& name) {
    return "{\"cmd\": \"load\", \"name\": \"" + name + "\", \"bench\": \"" +
           server::json_escape(bench) + "\"}";
}

std::string outcome_status(const JsonValue& response) {
    const JsonValue* outcome = response.get("outcome");
    return outcome ? outcome->get_string("status") : std::string();
}

workload::GenParams drain_params(const char* name, std::uint64_t seed) {
    workload::GenParams p;
    p.name = name;
    p.n_gates = 400;
    p.n_ffs = 40;
    p.n_inputs = 12;
    p.n_outputs = 8;
    p.seed = seed;
    return p;
}

// --- concurrency: server results == serial Session results -----------------

TEST(ServerDeterminism, ConcurrentClientsMatchSerialGolden) {
    for (const char* circuit : {"s27", "fig1x"}) {
        const netlist::Netlist nl = workload::suite_circuit(circuit);
        const std::string bench = netlist::write_bench_string(nl);

        // Serial golden with the exact configuration the service runs:
        // default learn, then ATPG mode=forbidden / backtracks=30 with
        // count_c_cycle_redundant (the CLI's learned-mode setup).
        api::SessionConfig serial_cfg;
        serial_cfg.threads = 1;
        api::Session serial(netlist::Netlist(nl), std::move(serial_cfg));
        const std::string learn_golden =
            server::hex_u64(core::relation_hash(serial.learn().db));
        atpg::AtpgConfig acfg;
        acfg.mode = atpg::LearnMode::ForbiddenValue;
        acfg.backtrack_limit = 30;
        acfg.count_c_cycle_redundant = true;
        const std::string campaign_golden =
            server::hex_u64(api::campaign_digest(serial.atpg(acfg)));

        server::ServerConfig cfg;
        cfg.service.max_sessions = 8;
        cfg.service.threads = 1;
        server::Server srv(cfg);
        std::string err;
        ASSERT_TRUE(srv.start(&err)) << err;

        for (const unsigned k : {2u, 8u}) {
            std::vector<std::string> learn_hashes(k), campaign_digests(k);
            std::vector<std::thread> clients;
            clients.reserve(k);
            for (unsigned t = 0; t < k; ++t) {
                clients.emplace_back([&, t] {
                    Client c(srv.port());
                    const JsonValue loaded = c.rpc(load_frame(bench, "c"));
                    EXPECT_TRUE(loaded.get_bool("ok"));
                    const std::string digest = loaded.get_string("design");
                    if (digest.empty()) return;
                    // force=true: every client computes its own learn (cold
                    // path), so K runs race through the real engines — the
                    // warm path would trivially dedupe them.
                    const JsonValue learned = c.rpc(
                        "{\"cmd\": \"learn\", \"force\": true, \"design\": \"" +
                        digest + "\"}");
                    EXPECT_TRUE(learned.get_bool("ok"));
                    EXPECT_EQ(outcome_status(learned), "completed");
                    learn_hashes[t] = learned.get_string("relation_hash");
                    const JsonValue campaign =
                        c.rpc("{\"cmd\": \"atpg\", \"design\": \"" + digest + "\"}");
                    EXPECT_TRUE(campaign.get_bool("ok"));
                    campaign_digests[t] = campaign.get_string("campaign_digest");
                });
            }
            for (std::thread& t : clients) t.join();
            for (unsigned t = 0; t < k; ++t) {
                EXPECT_EQ(learn_hashes[t], learn_golden)
                    << circuit << " client " << t << " of " << k;
                EXPECT_EQ(campaign_digests[t], campaign_golden)
                    << circuit << " client " << t << " of " << k;
            }
        }
        srv.stop();
    }
}

// Warm requests (snapshot attached by the first learn) must serve the same
// hashes as cold ones.
TEST(ServerDeterminism, WarmSnapshotServesIdenticalHashes) {
    const std::string bench =
        netlist::write_bench_string(workload::suite_circuit("fig1x"));
    server::Server srv{server::ServerConfig{}};
    std::string err;
    ASSERT_TRUE(srv.start(&err)) << err;

    Client c(srv.port());
    const std::string digest = c.rpc(load_frame(bench, "fig1x")).get_string("design");
    ASSERT_FALSE(digest.empty());
    const JsonValue cold =
        c.rpc("{\"cmd\": \"learn\", \"design\": \"" + digest + "\"}");
    ASSERT_TRUE(cold.get_bool("ok"));
    EXPECT_FALSE(cold.get_bool("warm"));

    const JsonValue warm =
        c.rpc("{\"cmd\": \"learn\", \"design\": \"" + digest + "\"}");
    ASSERT_TRUE(warm.get_bool("ok"));
    EXPECT_TRUE(warm.get_bool("warm"));
    EXPECT_EQ(warm.get_string("relation_hash"), cold.get_string("relation_hash"));
    EXPECT_EQ(warm.get_number("relations"), cold.get_number("relations"));

    // Warm ATPG rides the snapshot instead of re-learning.
    const JsonValue atpg = c.rpc("{\"cmd\": \"atpg\", \"design\": \"" + digest + "\"}");
    EXPECT_TRUE(atpg.get_bool("ok"));
    EXPECT_TRUE(atpg.get_bool("warm"));
    EXPECT_FALSE(atpg.get_string("campaign_digest").empty());

    // stats surfaces the snapshot's relation hash too.
    const JsonValue stats = c.rpc("{\"cmd\": \"stats\", \"design\": \"" + digest + "\"}");
    const JsonValue* learned = stats.get("learned");
    ASSERT_NE(learned, nullptr);
    EXPECT_EQ(learned->get_string("relation_hash"), cold.get_string("relation_hash"));
    srv.stop();
}

// The ATPG-only strategy keys (order, guidance, warmup) steer the campaign,
// never the learned data, so a guided request rides the cached snapshot and
// reproduces the campaign a fresh daemon runs after learning on demand.
TEST(ServerDeterminism, GuidedAtpgReusesLearnedSnapshot) {
    const std::string bench =
        netlist::write_bench_string(workload::suite_circuit("fig1x"));
    const auto guided_atpg = [](Client& c, const std::string& digest) {
        return c.rpc("{\"cmd\": \"atpg\", \"design\": \"" + digest +
                     "\", \"guidance\": \"scoap\", \"order\": \"level\", "
                     "\"rand_warmup\": 8}");
    };

    std::string warm_digest;
    {
        server::Server srv{server::ServerConfig{}};
        std::string err;
        ASSERT_TRUE(srv.start(&err)) << err;
        Client c(srv.port());
        const std::string digest = c.rpc(load_frame(bench, "fig1x")).get_string("design");
        ASSERT_FALSE(digest.empty());
        ASSERT_TRUE(
            c.rpc("{\"cmd\": \"learn\", \"design\": \"" + digest + "\"}").get_bool("ok"));
        const JsonValue atpg = guided_atpg(c, digest);
        ASSERT_TRUE(atpg.get_bool("ok"));
        EXPECT_TRUE(atpg.get_bool("warm"));
        warm_digest = atpg.get_string("campaign_digest");
        srv.stop();
    }

    server::Server fresh{server::ServerConfig{}};
    std::string err;
    ASSERT_TRUE(fresh.start(&err)) << err;
    Client c(fresh.port());
    const std::string digest = c.rpc(load_frame(bench, "fig1x")).get_string("design");
    const JsonValue cold = guided_atpg(c, digest);
    ASSERT_TRUE(cold.get_bool("ok"));
    EXPECT_FALSE(cold.get_bool("warm"));
    EXPECT_FALSE(warm_digest.empty());
    EXPECT_EQ(cold.get_string("campaign_digest"), warm_digest);
    fresh.stop();
}

// --- cache eviction under a tight cap --------------------------------------

TEST(ServerCache, EvictionUnderTightCapKeepsServing) {
    // A cap small enough that only the MRU entry ever survives.
    server::ServiceConfig cfg;
    cfg.cache.max_bytes = 1;
    server::Service svc(cfg);

    const std::string bench_a =
        netlist::write_bench_string(workload::suite_circuit("s27"));
    const std::string bench_b =
        netlist::write_bench_string(workload::suite_circuit("fig1x"));

    const auto load = [&](const std::string& bench, const std::string& name) {
        auto doc = JsonValue::parse(svc.handle(load_frame(bench, name)), nullptr);
        EXPECT_TRUE(doc && doc->get_bool("ok"));
        return doc ? doc->get_string("design") : std::string();
    };
    const std::string digest_a = load(bench_a, "a");
    const std::string digest_b = load(bench_b, "b");  // evicts a

    // The evicted digest gets the structured unknown_design error...
    auto miss = JsonValue::parse(
        svc.handle("{\"cmd\": \"learn\", \"design\": \"" + digest_a + "\"}"), nullptr);
    ASSERT_TRUE(miss.has_value());
    EXPECT_FALSE(miss->get_bool("ok"));
    EXPECT_EQ(miss->get_number("code"), 2);
    ASSERT_NE(miss->get("error"), nullptr);
    EXPECT_EQ(miss->get("error")->get_string("class"), "unknown_design");

    // ...the surviving entry still serves...
    auto ok_b = JsonValue::parse(
        svc.handle("{\"cmd\": \"learn\", \"design\": \"" + digest_b + "\"}"), nullptr);
    ASSERT_TRUE(ok_b.has_value());
    EXPECT_TRUE(ok_b->get_bool("ok"));

    // ...and a re-load of the evicted circuit repopulates the same digest.
    EXPECT_EQ(load(bench_a, "a"), digest_a);
    auto ok_a = JsonValue::parse(
        svc.handle("{\"cmd\": \"learn\", \"design\": \"" + digest_a + "\"}"), nullptr);
    ASSERT_TRUE(ok_a.has_value());
    EXPECT_TRUE(ok_a->get_bool("ok"));

    auto stats = JsonValue::parse(svc.handle("{\"cmd\": \"stats\"}"), nullptr);
    ASSERT_TRUE(stats.has_value());
    const JsonValue* srv_section = stats->get("server");
    ASSERT_NE(srv_section, nullptr);
    const JsonValue* cache = srv_section->get("cache");
    ASSERT_NE(cache, nullptr);
    EXPECT_GE(cache->get_number("evictions"), 2);  // a evicted, then b
    EXPECT_EQ(cache->get_number("entries"), 1);
}

// --- hostile input ----------------------------------------------------------

TEST(ServerRobustness, MalformedFramesGetStructuredErrors) {
    server::ServerConfig cfg;
    cfg.max_frame_bytes = 2048;  // tiny, to exercise the oversize path
    server::Server srv(cfg);
    std::string err;
    ASSERT_TRUE(srv.start(&err)) << err;
    Client c(srv.port());

    // Malformed JSON.
    JsonValue r = c.rpc("this is not json");
    EXPECT_FALSE(r.get_bool("ok"));
    EXPECT_EQ(r.get_number("code"), 3);
    ASSERT_NE(r.get("error"), nullptr);
    EXPECT_EQ(r.get("error")->get_string("class"), "frame");

    // A JSON document that is not an object.
    r = c.rpc("[1, 2, 3]");
    EXPECT_FALSE(r.get_bool("ok"));
    EXPECT_EQ(r.get_number("code"), 3);

    // Missing / unknown command.
    r = c.rpc("{}");
    EXPECT_EQ(r.get_number("code"), 2);
    r = c.rpc("{\"cmd\": \"frobnicate\"}");
    EXPECT_EQ(r.get_number("code"), 2);

    // Bad digest text, then a digest that was never loaded.
    r = c.rpc("{\"cmd\": \"learn\", \"design\": \"zzzz\"}");
    EXPECT_EQ(r.get_number("code"), 2);
    r = c.rpc("{\"cmd\": \"learn\", \"design\": \"00000000deadbeef\"}");
    ASSERT_NE(r.get("error"), nullptr);
    EXPECT_EQ(r.get("error")->get_string("class"), "unknown_design");

    // Unparseable bench text is a structured parse error with diagnostics.
    r = c.rpc("{\"cmd\": \"load\", \"bench\": \"y = AND(a, b)\\nnonsense line\"}");
    EXPECT_FALSE(r.get_bool("ok"));
    EXPECT_EQ(r.get_number("code"), 3);
    ASSERT_NE(r.get("error"), nullptr);
    EXPECT_NE(r.get("error")->get("diagnostics"), nullptr);

    // An oversized frame: structured error, line discarded, connection
    // still usable afterwards.
    std::string big = "{\"cmd\": \"load\", \"bench\": \"";
    big.append(8192, 'x');
    big += "\"}\n";
    c.send_raw(big);
    const std::string line = c.read_line();
    ASSERT_FALSE(line.empty());
    auto over = JsonValue::parse(line, nullptr);
    ASSERT_TRUE(over.has_value());
    EXPECT_EQ(over->get_number("code"), 3);
    ASSERT_NE(over->get("error"), nullptr);
    EXPECT_EQ(over->get("error")->get_string("class"), "frame");

    r = c.rpc("{\"cmd\": \"stats\"}");
    EXPECT_TRUE(r.get_bool("ok")) << "connection unusable after oversized frame";
    srv.stop();
}

// --- graceful drain and cancellation ----------------------------------------

TEST(ServerShutdown, InFlightRequestGetsResponseNotDroppedConnection) {
    // A circuit whose learn comfortably outlives the stop() below, so the
    // drain lands mid-run (and "completed" stays an accepted race outcome).
    const std::string bench =
        netlist::write_bench_string(workload::generate(drain_params("drain", 11)));

    server::ServerConfig cfg;
    cfg.service.threads = 1;
    server::Server srv(cfg);
    std::string err;
    ASSERT_TRUE(srv.start(&err)) << err;

    Client c(srv.port());
    const std::string digest = c.rpc(load_frame(bench, "drain")).get_string("design");
    ASSERT_FALSE(digest.empty());

    std::string status;
    bool got_response = false;
    std::thread in_flight([&] {
        const JsonValue r = c.rpc("{\"cmd\": \"learn\", \"force\": true, "
                                  "\"design\": \"" + digest + "\", \"id\": \"slow\"}");
        got_response = r.is_object();
        status = outcome_status(r);
    });
    // Wait until the request is actually inside the service, then stop.
    while (srv.service().active_requests() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    srv.stop();
    in_flight.join();

    EXPECT_TRUE(got_response) << "drain dropped the connection";
    // Almost always "cancelled"; "completed" only if the run won the race.
    EXPECT_TRUE(status == "cancelled" || status == "completed") << status;
}

TEST(ServerShutdown, CancelRequestStopsARunById) {
    const std::string bench =
        netlist::write_bench_string(workload::generate(drain_params("cancelme", 12)));
    server::ServerConfig cfg;
    cfg.service.threads = 1;
    server::Server srv(cfg);
    std::string err;
    ASSERT_TRUE(srv.start(&err)) << err;

    Client worker(srv.port());
    const std::string digest =
        worker.rpc(load_frame(bench, "cancelme")).get_string("design");
    ASSERT_FALSE(digest.empty());

    std::string status;
    std::thread in_flight([&] {
        const JsonValue r =
            worker.rpc("{\"cmd\": \"learn\", \"force\": true, \"design\": \"" +
                       digest + "\", \"id\": \"job-1\"}");
        status = outcome_status(r);
    });
    while (srv.service().active_requests() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // Cross-connection cancel by request id.
    Client controller(srv.port());
    const JsonValue cancelled =
        controller.rpc("{\"cmd\": \"cancel\", \"target\": \"job-1\"}");
    EXPECT_TRUE(cancelled.get_bool("ok"));
    in_flight.join();
    EXPECT_TRUE(status == "cancelled" || status == "completed") << status;
    srv.stop();
}

// --- SAT backend over the protocol ------------------------------------------

TEST(ServerSatBackend, SatRequestWithDeadlineBudgetGetsDefinitiveVerdicts) {
    server::Service svc{server::ServiceConfig{}};
    const std::string bench =
        netlist::write_bench_string(workload::suite_circuit("fig1x"));
    auto loaded = JsonValue::parse(svc.handle(load_frame(bench, "fig1x")), nullptr);
    ASSERT_TRUE(loaded && loaded->get_bool("ok"));
    const std::string digest = loaded->get_string("design");

    // backend=sat sends every post-fault-sim target through the CNF prover;
    // the generous deadline exists to pin the budget plumbing, not to trip.
    const std::string frame =
        "{\"cmd\": \"atpg\", \"design\": \"" + digest +
        "\", \"backend\": \"sat\", \"sat_frames\": 4, \"deadline_ms\": 60000}";
    auto r = JsonValue::parse(svc.handle(frame), nullptr);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->get_bool("ok"));
    EXPECT_EQ(r->get_string("backend"), "sat");
    EXPECT_EQ(outcome_status(*r), "completed");
    // Acceptance: a completed SAT-backed campaign leaves nothing aborted —
    // every fault is detected or carries an untestability proof.
    EXPECT_EQ(r->get_number("aborted"), 0);
    EXPECT_GT(r->get_number("sat_targeted"), 0);

    // Same request again: identical campaign digest (the SAT phase is
    // deterministic, and warm/cold learned state does not affect it).
    auto again = JsonValue::parse(svc.handle(frame), nullptr);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->get_string("campaign_digest"), r->get_string("campaign_digest"));

    // A near-zero deadline must yield a structured outcome — completed if
    // the run wins the race, deadline otherwise — never a hang or a dropped
    // response.
    auto tight = JsonValue::parse(
        svc.handle("{\"cmd\": \"atpg\", \"design\": \"" + digest +
                   "\", \"backend\": \"sat\", \"sat_frames\": 4, "
                   "\"deadline_ms\": 1}"),
        nullptr);
    ASSERT_TRUE(tight.has_value());
    const std::string tight_status = outcome_status(*tight);
    EXPECT_TRUE(tight_status == "completed" || tight_status == "deadline")
        << tight_status;
}

TEST(ServerSatBackend, UnknownBackendIsAStructuredUsageError) {
    server::Service svc{server::ServiceConfig{}};
    const std::string bench =
        netlist::write_bench_string(workload::suite_circuit("s27"));
    auto loaded = JsonValue::parse(svc.handle(load_frame(bench, "s27")), nullptr);
    ASSERT_TRUE(loaded && loaded->get_bool("ok"));
    const std::string digest = loaded->get_string("design");

    auto r = JsonValue::parse(
        svc.handle("{\"cmd\": \"atpg\", \"design\": \"" + digest +
                   "\", \"backend\": \"dpll\"}"),
        nullptr);
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(r->get_bool("ok"));
    EXPECT_EQ(r->get_number("code"), 2);
    ASSERT_NE(r->get("error"), nullptr);
    EXPECT_EQ(r->get("error")->get_string("class"), "usage");

    // The service stays usable: a well-formed request on the same design
    // still answers.
    auto ok = JsonValue::parse(
        svc.handle("{\"cmd\": \"atpg\", \"design\": \"" + digest +
                   "\", \"backend\": \"auto\"}"),
        nullptr);
    ASSERT_TRUE(ok.has_value());
    EXPECT_TRUE(ok->get_bool("ok"));
    EXPECT_EQ(ok->get_string("backend"), "auto");
}

// --- binary snapshots --------------------------------------------------------

TEST(BinarySnapshot, SaveLoadResaveIsByteIdentical) {
    const netlist::Netlist nl = workload::suite_circuit("fig1x");
    api::Session session{netlist::Netlist(nl)};
    const core::LearnResult& r = session.learn();
    ASSERT_GT(r.db.size() + r.ties.count(), 0u);

    std::ostringstream first;
    core::save_learned_binary(first, nl, r.db, r.ties);
    std::istringstream in(first.str());
    ASSERT_TRUE(core::is_binary_db(in));
    const core::LoadedLearned loaded = core::load_learned_binary(in, nl);
    EXPECT_EQ(loaded.db.size(), r.db.size());
    EXPECT_EQ(loaded.ties.count(), r.ties.count());
    EXPECT_EQ(loaded.skipped_lines, 0u);

    std::ostringstream second;
    core::save_learned_binary(second, nl, loaded.db, loaded.ties);
    EXPECT_EQ(first.str(), second.str()) << "binary snapshot not canonical";
    EXPECT_EQ(core::relation_hash(loaded.db), core::relation_hash(r.db));
}

TEST(BinarySnapshot, RejectsWrongNetlistDigestAndTruncation) {
    const netlist::Netlist nl = workload::suite_circuit("fig1x");
    api::Session session{netlist::Netlist(nl)};
    const core::LearnResult& r = session.learn();
    std::ostringstream out;
    core::save_learned_binary(out, nl, r.db, r.ties);

    // The same bytes against a different circuit: digest mismatch, rejected
    // wholesale (no silent partial application like the text loader's
    // name-keyed skips).
    const netlist::Netlist other = workload::suite_circuit("s27");
    std::istringstream in(out.str());
    EXPECT_THROW((void)core::load_learned_binary(in, other), std::runtime_error);

    // Truncation is rejected too.
    std::istringstream truncated(out.str().substr(0, out.str().size() / 2));
    EXPECT_THROW((void)core::load_learned_binary(truncated, nl), std::runtime_error);
}

// --- warm-path latency -------------------------------------------------------

TEST(ServerWarmPath, PreviouslySeen100kGateCircuitAnswersStatsInMilliseconds) {
    if (kSanitized) GTEST_SKIP() << "wall-clock bound is meaningless under sanitizers";
#ifndef NDEBUG
    GTEST_SKIP() << "wall-clock bound asserted in optimized builds only";
#else
    workload::GenParams p;
    p.name = "big100k";
    p.n_gates = 100000;
    p.n_ffs = 2000;
    p.n_inputs = 64;
    p.n_outputs = 32;
    p.seed = 7;
    const std::string bench = netlist::write_bench_string(workload::generate(p));

    server::Server srv{server::ServerConfig{}};
    std::string err;
    ASSERT_TRUE(srv.start(&err)) << err;
    Client c(srv.port());

    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    const JsonValue cold = c.rpc(load_frame(bench, "big100k"));
    const auto cold_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(clock::now() - t0);
    ASSERT_TRUE(cold.get_bool("ok"));
    EXPECT_FALSE(cold.get_bool("cached"));
    const std::string digest = cold.get_string("design");

    // Re-sending the same bytes hits the content-addressed entry: no
    // re-compile (untimed — this round trip re-ships the multi-MB bench
    // text, so its cost is transport + hash, not the cache's).
    const JsonValue warm = c.rpc(load_frame(bench, "big100k"));
    EXPECT_TRUE(warm.get_bool("cached"));

    // The acceptance bound: a warm stats request on a previously-seen
    // 100k-gate circuit answers in < 250 ms (the cold load paid the full
    // parse+compile, typically seconds). The headroom over the typical
    // single-digit-ms answer absorbs CPU oversubscription when ctest -j
    // runs several heavy suites alongside this one.
    const auto t1 = clock::now();
    const JsonValue stats = c.rpc("{\"cmd\": \"stats\", \"design\": \"" + digest + "\"}");
    const auto warm_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(clock::now() - t1);
    EXPECT_TRUE(stats.get_bool("ok"));
    EXPECT_GE(stats.get_number("gates"), 100000);
    EXPECT_LT(warm_ms.count(), 250) << "cold was " << cold_ms.count() << " ms";
    EXPECT_GT(cold_ms.count(), warm_ms.count());
    srv.stop();
#endif
}

// --- connection hardening ---------------------------------------------------

/// Raw socket with no protocol smarts — the hostile-client half of the
/// chaos harness (slow loris, torn frames, mid-response disconnects).
class RawSocket {
public:
    /// `tiny_recv_buffer` shrinks SO_RCVBUF before connecting, so a server
    /// writing to a non-reading peer blocks after a few KB instead of after
    /// megabytes — makes write-deadline tests deterministic and fast.
    explicit RawSocket(std::uint16_t port, bool tiny_recv_buffer = false) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        if (tiny_recv_buffer) {
            const int few = 2048;
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &few, sizeof few);
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(port);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
                  0);
    }
    ~RawSocket() { close_now(); }
    RawSocket(const RawSocket&) = delete;
    RawSocket& operator=(const RawSocket&) = delete;

    void send_bytes(std::string_view bytes) {
        std::size_t sent = 0;
        while (sent < bytes.size()) {
            const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                                     MSG_NOSIGNAL);
            if (n <= 0) return;
            sent += static_cast<std::size_t>(n);
        }
    }
    void close_now() {
        if (fd_ >= 0) ::close(fd_);
        fd_ = -1;
    }
    /// recv() once with a timeout; "" on EOF/timeout. Big enough for one
    /// whole response line in practice (loopback delivers it in one read).
    std::string recv_some(int timeout_ms) {
        pollfd pfd{fd_, POLLIN, 0};
        if (::poll(&pfd, 1, timeout_ms) <= 0) return {};
        char chunk[8192];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        return n > 0 ? std::string(chunk, static_cast<std::size_t>(n)) : std::string();
    }
    /// True when the peer closed: recv returns 0 within the timeout.
    bool reached_eof(int timeout_ms) {
        pollfd pfd{fd_, POLLIN, 0};
        if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
        char chunk[256];
        return ::recv(fd_, chunk, sizeof chunk, 0) == 0;
    }

private:
    int fd_ = -1;
};

// A stalled mid-frame client (the slow-loris shape) is reaped at the idle
// deadline, and a well-behaved client served concurrently gets results
// bit-identical to an unmolested serial run.
TEST(ServerHardening, SlowLorisIsReapedWhileGoodClientsServeIdentically) {
    const netlist::Netlist nl = workload::suite_circuit("fig1x");
    const std::string bench = netlist::write_bench_string(nl);

    api::SessionConfig serial_cfg;
    serial_cfg.threads = 1;
    api::Session serial(netlist::Netlist(nl), std::move(serial_cfg));
    const std::string learn_golden =
        server::hex_u64(core::relation_hash(serial.learn().db));

    server::ServerConfig cfg;
    cfg.idle_timeout = std::chrono::milliseconds(200);
    cfg.service.threads = 1;
    server::Server srv(cfg);
    std::string err;
    ASSERT_TRUE(srv.start(&err)) << err;

    // The slow loris: half a frame, then silence.
    RawSocket loris(srv.port());
    loris.send_bytes("{\"cmd\": \"lear");

    // Meanwhile a good client does real work on another connection.
    Client good(srv.port());
    const std::string digest = good.rpc(load_frame(bench, "fig1x")).get_string("design");
    ASSERT_FALSE(digest.empty());
    const JsonValue learned =
        good.rpc("{\"cmd\": \"learn\", \"design\": \"" + digest + "\"}");
    EXPECT_TRUE(learned.get_bool("ok"));
    EXPECT_EQ(learned.get_string("relation_hash"), learn_golden)
        << "a stalled peer must not perturb other clients' results";

    // The loris is reaped within the deadline (plus scheduling headroom).
    EXPECT_TRUE(loris.reached_eof(5000))
        << "stalled connection must be closed by the idle deadline";

    // `good` may have been idle-reaped too while we waited (the deadline
    // applies to every connection) — read the counters on a fresh one.
    Client fresh(srv.port());
    const JsonValue stats = fresh.rpc("{\"cmd\": \"stats\"}");
    const JsonValue* server_obj = stats.get("server");
    ASSERT_NE(server_obj, nullptr);
    const JsonValue* conns = server_obj->get("connections");
    ASSERT_NE(conns, nullptr) << "stats must surface transport counters";
    EXPECT_GE(conns->get_number("idle_reaped"), 1.0);
    EXPECT_GE(conns->get_number("accepted"), 2.0);
    srv.stop();
}

// A client that sends a heavy request and disconnects before the response
// leaves the server intact for everyone else.
TEST(ServerHardening, MidResponseDisconnectLeavesServerServing) {
    const std::string bench =
        netlist::write_bench_string(workload::suite_circuit("fig1x"));
    server::ServerConfig cfg;
    cfg.service.threads = 1;
    server::Server srv(cfg);
    std::string err;
    ASSERT_TRUE(srv.start(&err)) << err;

    std::string digest;
    {
        Client setup(srv.port());
        digest = setup.rpc(load_frame(bench, "fig1x")).get_string("design");
        ASSERT_FALSE(digest.empty());
    }
    {
        // Fire a learn and slam the connection before the response can be
        // written. The server's send fails; nothing may crash or leak.
        RawSocket rude(srv.port());
        rude.send_bytes("{\"cmd\": \"learn\", \"force\": true, \"design\": \"" +
                        digest + "\"}\n");
        rude.close_now();
    }
    // A torn frame (half a JSON object, then EOF) on another connection.
    {
        RawSocket torn(srv.port());
        torn.send_bytes("{\"cmd\": \"stats\", \"desi");
        torn.close_now();
    }
    // The service keeps answering correctly afterwards.
    Client good(srv.port());
    const JsonValue learned =
        good.rpc("{\"cmd\": \"learn\", \"design\": \"" + digest + "\"}");
    EXPECT_TRUE(learned.get_bool("ok"));
    EXPECT_FALSE(learned.get_string("relation_hash").empty());
    srv.stop();
}

// Connections past --max-conns get one structured overloaded response.
TEST(ServerHardening, ConnectionCapAnswersOverloadedAndCloses) {
    server::ServerConfig cfg;
    cfg.max_conns = 2;
    server::Server srv(cfg);
    std::string err;
    ASSERT_TRUE(srv.start(&err)) << err;

    Client a(srv.port());
    Client b(srv.port());
    // Make sure both connections are registered before the third arrives.
    EXPECT_TRUE(a.rpc("{\"cmd\": \"stats\"}").get_bool("ok"));
    EXPECT_TRUE(b.rpc("{\"cmd\": \"stats\"}").get_bool("ok"));

    RawSocket c(srv.port());
    const std::string line = c.recv_some(2000);
    ASSERT_FALSE(line.empty()) << "capped connection must get a response, not a RST";
    std::string perr;
    const auto doc = JsonValue::parse(
        line.substr(0, line.find('\n')), &perr);
    ASSERT_TRUE(doc.has_value()) << perr << " in: " << line;
    EXPECT_FALSE(doc->get_bool("ok"));
    EXPECT_EQ(doc->get_number("code"), 7.0);
    const JsonValue* eobj = doc->get("error");
    ASSERT_NE(eobj, nullptr);
    EXPECT_EQ(eobj->get_string("class"), "overloaded");
    EXPECT_TRUE(c.reached_eof(2000));

    // The registered connections still serve, and the rejection is counted.
    const JsonValue stats = a.rpc("{\"cmd\": \"stats\"}");
    ASSERT_TRUE(stats.get_bool("ok"));
    const JsonValue* conns = stats.get("server")->get("connections");
    ASSERT_NE(conns, nullptr);
    EXPECT_GE(conns->get_number("rejected_overloaded"), 1.0);
    srv.stop();
}

// An armed SockSend failpoint forces a short send mid-response; the resend
// loop must still deliver the frame byte-identically.
TEST(ServerHardening, InjectedShortSendStillDeliversExactResponse) {
    const std::string bench =
        netlist::write_bench_string(workload::suite_circuit("s27"));
    exec::FailurePoint fp;
    server::ServerConfig cfg;
    cfg.failpoint = &fp;
    server::Server srv(cfg);
    std::string err;
    ASSERT_TRUE(srv.start(&err)) << err;

    Client c(srv.port());
    const JsonValue clean = c.rpc(load_frame(bench, "s27"));
    ASSERT_TRUE(clean.get_bool("ok"));
    const std::string digest = clean.get_string("design");

    // Every response from here on starts with an injected 1-byte send.
    for (int nth = 1; nth <= 3; ++nth) {
        fp.arm(exec::FailSite::SockSend, 1);
        const JsonValue again = c.rpc(load_frame(bench, "s27"));
        EXPECT_TRUE(again.get_bool("ok")) << "short send broke framing, nth " << nth;
        EXPECT_EQ(again.get_string("design"), digest);
        EXPECT_TRUE(again.get_bool("cached"));
        EXPECT_GT(fp.hits(exec::FailSite::SockSend), 0u);
    }
    fp.disarm();
    srv.stop();
}

// A client that reads nothing while the server owes it a response trips the
// write deadline instead of pinning the connection thread forever.
TEST(ServerHardening, WriteDeadlineReapsNonReadingClient) {
    server::ServerConfig cfg;
    cfg.write_timeout = std::chrono::milliseconds(300);
    server::Server srv(cfg);
    std::string err;
    ASSERT_TRUE(srv.start(&err)) << err;

    // Fill the kernel buffers: many stats requests, never reading. The
    // greedy socket advertises a tiny receive window, so a few pending
    // responses are enough to block the server's send().
    RawSocket greedy(srv.port(), /*tiny_recv_buffer=*/true);
    std::string burst;
    for (int i = 0; i < 4000; ++i) burst += "{\"cmd\": \"stats\"}\n";
    greedy.send_bytes(burst);

    // A healthy client stays responsive throughout and eventually observes
    // the write-timeout counter tick.
    Client good(srv.port());
    bool saw_timeout = false;
    for (int i = 0; i < 100 && !saw_timeout; ++i) {
        const JsonValue stats = good.rpc("{\"cmd\": \"stats\"}");
        ASSERT_TRUE(stats.get_bool("ok"));
        const JsonValue* conns = stats.get("server")->get("connections");
        ASSERT_NE(conns, nullptr);
        saw_timeout = conns->get_number("write_timeouts") >= 1.0;
        if (!saw_timeout) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_TRUE(saw_timeout)
        << "a non-reading client must trip the write deadline";
    srv.stop();
}

}  // namespace
}  // namespace seqlearn
