// serve_mixed: a closed loop of client connections against a real loopback
// daemon (`seqlearn_cli serve --threads 1`). Each client repeats a fixed,
// seeded pass of requests, sending the next only after the previous reply:
// mostly warm `stats`/`learn` on designs primed at set-up, a few bounded
// `atpg` and `fault_sim` requests, and one `load`+`learn` of a design the
// daemon has never seen (a cache miss, a cold learn and a snapshot-store
// write-through).

#include "workloads.hpp"

#include "netlist/bench_io.hpp"
#include "server/json.hpp"
#include "workload/circuit_gen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

namespace {

namespace sl = seqlearn;
using sl::server::JsonValue;

// The warm working set, primed (load + learn) during set-up.
const char* const kWarm[] = {"gen953", "gen1269", "gen1423", "rt510a"};
// The daemon's design cache cap. Cold designs pile up at a rate that follows
// throughput, so an uncapped cache would make peak RSS follow the machine's
// speed; at the cap the LRU cache drops cold designs (used once) and keeps
// the warm ones (used by every pass).
const char* const kCacheMb = "16";
// Every cold design is a fresh random circuit of gen1423's shape.
constexpr std::size_t kColdFfs = 74, kColdGates = 657;

enum Kind : int { Stats, LearnWarm, LoadLearnCold, Atpg, FaultSim, kKinds };
const char* const kKindName[kKinds] = {"stats", "learn_warm", "load_learn_cold", "atpg",
                                       "fault_sim"};
// Requests of each kind in one pass (a cold load+learn counts once here and
// sends two requests).
constexpr int kPerPass[kKinds] = {20, 12, 1, 2, 1};

/// A blocking newline-framed connection to the daemon.
class Conn {
public:
    explicit Conn(int port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) throw std::runtime_error("socket() failed");
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
            ::close(fd_);
            throw std::runtime_error("cannot connect to the daemon");
        }
        const int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    ~Conn() { ::close(fd_); }
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;

    /// Send one request line; return the parsed reply (nullopt on a broken
    /// connection or malformed reply).
    std::optional<JsonValue> call(const std::string& request) {
        std::string line = request + "\n";
        for (std::size_t sent = 0; sent < line.size();) {
            const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) return std::nullopt;
            sent += static_cast<std::size_t>(n);
        }
        std::size_t nl;
        while ((nl = buf_.find('\n')) == std::string::npos) {
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0) return std::nullopt;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
        const std::string reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        std::string err;
        return JsonValue::parse(reply, &err);
    }

private:
    int fd_ = -1;
    std::string buf_;
};

/// The daemon process: spawned, read for its startup line, shut down over
/// the protocol (SIGKILL only if it does not exit in time), always reaped.
class Daemon {
public:
    Daemon(const std::string& bin, const std::string& store_dir, unsigned sessions) {
        int out[2];
        if (::pipe(out) != 0) throw std::runtime_error("pipe() failed");
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_adddup2(&fa, out[1], STDOUT_FILENO);
        posix_spawn_file_actions_addclose(&fa, out[0]);
        posix_spawn_file_actions_addclose(&fa, out[1]);
        const std::string sess = std::to_string(sessions);
        std::vector<std::string> argv_s = {bin,        "serve",     "--port",        "0",
                                           "--threads", "1",        "--max-sessions", sess,
                                           "--cache-mb", kCacheMb,  "--store",       store_dir};
        std::vector<char*> argv;
        for (std::string& a : argv_s) argv.push_back(a.data());
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        ::close(out[1]);
        if (rc != 0) {
            ::close(out[0]);
            throw std::runtime_error("cannot start the daemon " + bin);
        }
        // First stdout line: {"serving": {"port": N, ...}}
        std::string line;
        char c;
        while (::read(out[0], &c, 1) == 1 && c != '\n') line += c;
        ::close(out[0]);
        std::string err;
        const std::optional<JsonValue> doc = JsonValue::parse(line, &err);
        const JsonValue* serving = doc ? doc->get("serving") : nullptr;
        if (serving == nullptr) {
            stop();
            throw std::runtime_error("daemon did not report a port: " + line);
        }
        port_ = static_cast<int>(serving->get_number("port", 0));
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    int port() const noexcept { return port_; }
    int pid() const noexcept { return pid_; }

    void stop() {
        if (pid_ <= 0) return;
        if (port_ > 0) {
            try {
                Conn c(port_);
                c.call("{\"cmd\": \"shutdown\"}");
            } catch (const std::exception&) {
            }
        }
        int status = 0;
        for (int i = 0; i < 300; ++i) {  // up to 15 s to drain
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
    }

private:
    pid_t pid_ = -1;
    int port_ = 0;
};

std::string load_request(const Circuit& c) {
    return "{\"cmd\": \"load\", \"name\": " + json_string(c.name) +
           ", \"bench\": " + json_string(c.bench) + "}";
}
std::string design_request(const char* cmd, const std::string& digest,
                           const std::string& extra = {}) {
    return std::string("{\"cmd\": \"") + cmd + "\", \"design\": \"" + digest + "\"" + extra + "}";
}

bool ok_reply(const std::optional<JsonValue>& r) {
    return r && r->get_bool("ok", false) && r->get_number("code", -1) == 0;
}

/// A request run under a work limit answers ok with code 0 (finished within
/// the limit) or 4 (stopped at it).
bool bounded_reply(const std::optional<JsonValue>& r) {
    if (!r || !r->get_bool("ok", false)) return false;
    const double code = r->get_number("code", -1);
    return code == 0 || code == 4;
}

struct Warm {
    std::string digest;
    std::string relation_hash;
};

/// Load and learn every warm design (cold learns); returns their digests
/// and relation hashes.
std::vector<Warm> prime(Conn& conn, const std::vector<Circuit>& warm, Report& rep) {
    std::vector<Warm> out;
    for (const Circuit& c : warm) {
        const std::optional<JsonValue> load = conn.call(load_request(c));
        rep.check(ok_reply(load), c.name + ": priming load failed");
        if (!load) throw std::runtime_error("daemon connection lost while priming");
        Warm w{load->get_string("design"), {}};
        const std::optional<JsonValue> learn = conn.call(design_request("learn", w.digest));
        rep.check(ok_reply(learn) && !learn->get_bool("warm", true),
               c.name + ": priming learn failed");
        if (learn) w.relation_hash = learn->get_string("relation_hash");
        out.push_back(std::move(w));
    }
    return out;
}

/// What one client saw: per-request latencies by kind, pass walls, failures.
struct ClientLog {
    std::array<std::vector<double>, kKinds> ms;
    std::vector<double> pass_s;
    std::size_t requests = 0;
    std::size_t failed = 0;
    std::string first_failure;
};

void fail(ClientLog& log, const std::string& what) {
    if (log.failed++ == 0) log.first_failure = what;
}

/// One client's closed loop: passes until `deadline`.
void client_loop(int port, const std::vector<Warm>& warm, std::uint64_t seed, unsigned client,
                 Clock::time_point deadline, ClientLog& log) {
    Conn conn(port);
    std::vector<Kind> script;
    for (int k = 0; k < kKinds; ++k)
        for (int i = 0; i < kPerPass[k]; ++i) script.push_back(static_cast<Kind>(k));
    std::uint64_t rng = mix64(seed ^ (0xc11e47ULL + client));
    for (std::uint64_t pass = 0; Clock::now() < deadline; ++pass) {
        // Per-pass order and targets from the seed; the cold design is
        // generated before the pass's clock starts.
        for (std::size_t i = script.size(); i > 1; --i) {
            rng = mix64(rng);
            std::swap(script[i - 1], script[rng % i]);
        }
        const Circuit cold{"cold", sl::netlist::write_bench_string(sl::workload::generate(
                                       sl::workload::iscas_like(
                                           "cold", kColdFfs, kColdGates,
                                           mix64(seed ^ mix64(client * 1000003ULL + pass)))))};
        double pass_s = 0.0;
        for (const Kind kind : script) {
            rng = mix64(rng);
            const Warm& w = warm[rng % warm.size()];
            const Clock::time_point t0 = Clock::now();
            bool ok = false;
            switch (kind) {
                case Stats: {
                    const auto r = conn.call(design_request("stats", w.digest));
                    ok = ok_reply(r);
                    break;
                }
                case LearnWarm: {
                    const auto r = conn.call(design_request("learn", w.digest));
                    ok = ok_reply(r) && r->get_bool("warm", false) &&
                         r->get_string("relation_hash") == w.relation_hash;
                    break;
                }
                case LoadLearnCold: {
                    const auto l = conn.call(load_request(cold));
                    ok = ok_reply(l) && !l->get_bool("cached", true);
                    if (ok) {
                        const auto r = conn.call(design_request("learn", l->get_string("design")));
                        ok = ok_reply(r) && !r->get_bool("warm", true);
                        ++log.requests;
                    }
                    break;
                }
                case Atpg: {
                    const auto r = conn.call(design_request(
                        "atpg", w.digest, ", \"mode\": \"known\", \"limit_faults\": 16"));
                    ok = bounded_reply(r);
                    break;
                }
                case FaultSim: {
                    const auto r = conn.call(design_request(
                        "fault_sim", w.digest, ", \"mode\": \"known\", \"limit_sequences\": 16"));
                    ok = bounded_reply(r);
                    break;
                }
                case kKinds: break;
            }
            const double s = seconds_since(t0);
            pass_s += s;
            ++log.requests;
            log.ms[kind].push_back(1e3 * s);
            if (!ok) fail(log, std::string(kKindName[kind]) + " request failed");
        }
        log.pass_s.push_back(pass_s);
    }
}

struct LoopResult {
    std::array<std::vector<double>, kKinds> ms;
    std::vector<double> all_ms, pass_s;
    std::size_t requests = 0;
    double elapsed_s = 0.0;
};

LoopResult run_loop(int port, const std::vector<Warm>& warm, std::uint64_t seed,
                    unsigned clients, double seconds, Report& rep) {
    std::vector<ClientLog> logs(clients);
    std::vector<std::string> errors(clients);
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                try {
                    client_loop(port, warm, seed, c, deadline, logs[c]);
                } catch (const std::exception& e) {
                    errors[c] = e.what();
                }
            });
        }
        for (std::thread& t : threads) t.join();
    }
    LoopResult out;
    out.elapsed_s = seconds_since(t0);
    for (unsigned c = 0; c < clients; ++c) {
        rep.check(errors[c].empty(), "client " + std::to_string(c) + ": " + errors[c]);
        const ClientLog& log = logs[c];
        rep.ops(log.requests, log.failed, "client " + std::to_string(c) + ": " + log.first_failure);
        out.requests += log.requests;
        for (int k = 0; k < kKinds; ++k) {
            out.ms[k].insert(out.ms[k].end(), log.ms[k].begin(), log.ms[k].end());
            out.all_ms.insert(out.all_ms.end(), log.ms[k].begin(), log.ms[k].end());
        }
        out.pass_s.insert(out.pass_s.end(), log.pass_s.begin(), log.pass_s.end());
    }
    return out;
}

}  // namespace

void run_serve(const Args& args, Report& rep) {
    if (args.daemon.empty() || args.work_dir.empty())
        throw std::runtime_error("serve_mixed needs --daemon and --work-dir");
    const unsigned clients = std::min(4u, nproc());
    std::vector<Circuit> warm_circuits;
    for (const char* name : kWarm) warm_circuits.push_back(make_circuit(name, args.seed));

    // Set-up: daemon start + priming on a fresh store, timed in two windows
    // (see SetupWindow); the last daemon of the first serves the loop.
    namespace fs = std::filesystem;
    std::vector<double> setup;
    std::vector<Warm> warm;
    const auto set_up = [&] {
        const fs::path store =
            fs::path(args.work_dir) / ("store-" + std::to_string(setup.size()));
        fs::remove_all(store);
        const Clock::time_point t0 = Clock::now();
        auto d = std::make_unique<Daemon>(args.daemon, store.string(), clients);
        Conn conn(d->port());
        warm = prime(conn, warm_circuits, rep);
        setup.push_back(seconds_since(t0));
        return d;
    };
    std::unique_ptr<Daemon> daemon;
    for (SetupWindow w; w.more(); w.add(setup.back())) {
        daemon.reset();
        daemon = set_up();
    }

    LoopResult loop;
    if (!args.trace) {
        loop = run_loop(daemon->port(), warm, args.seed, clients, args.seconds, rep);
    } else {
        // Per-layer numbers of the in-process stages on the warm designs.
        design_layers(rep, warm_circuits);
        // The same loop twice: once plain, once with per-kind percentiles.
        const LoopResult plain =
            run_loop(daemon->port(), warm, args.seed, clients, args.seconds / 2, rep);
        loop = run_loop(daemon->port(), warm, args.seed + 1, clients, args.seconds / 2, rep);
        for (int k = 0; k < kKinds; ++k) {
            const std::string base = std::string("server.") + kKindName[k];
            rep.metric(base + "_p50_ms", percentile(loop.ms[k], 0.5), "ms");
            rep.metric(base + "_p99_ms", percentile(loop.ms[k], 0.99), "ms");
        }
        rep.metric("trace.overhead_pct",
                   100.0 * (median(loop.pass_s) - median(plain.pass_s)) / median(plain.pass_s),
                   "%");
    }

    // The daemon's own counters.
    Conn conn(daemon->port());
    const std::optional<JsonValue> stats = conn.call("{\"cmd\": \"stats\"}");
    rep.check(ok_reply(stats), "stats request failed");
    const JsonValue* server = stats ? stats->get("server") : nullptr;
    const JsonValue* cache = server ? server->get("cache") : nullptr;
    const JsonValue* conns = server ? server->get("connections") : nullptr;
    const JsonValue* store = server ? server->get("store") : nullptr;
    rep.check(store != nullptr, "stats reply has no store section");
    if (store != nullptr) {
        rep.detail("store", "{\"puts\": " + json_number(store->get_number("puts", 0)) +
                                ", \"put_failures\": " +
                                json_number(store->get_number("put_failures", 0)) +
                                ", \"cache_evictions\": " +
                                json_number(cache ? cache->get_number("evictions", 0) : 0) +
                                "}");
        rep.check(store->get_number("put_failures", 0) == 0, "snapshot store put failed");
        // A warm design evicted from the cache would be restored from the
        // store on its next request; cold designs are never asked for again.
        rep.check(store->get_number("fetch_hits", 0) == 0,
                  "a warm design was evicted and restored from the store");
    }
    const double rss = peak_rss_mb(daemon->pid());
    daemon->stop();

    std::string per_kind = "{";
    for (int k = 0; k < kKinds; ++k)
        per_kind += (k > 0 ? ", " : "") + json_string(kKindName[k]) + ": " +
                    std::to_string(loop.ms[k].size());
    rep.detail("requests", per_kind + ", \"total\": " + std::to_string(loop.requests) + "}");
    rep.detail("clients", std::to_string(clients));

    if (args.trace) {
        rep.metric("server.cache_hits", cache ? cache->get_number("hits", 0) : 0, "count");
        rep.metric("server.cache_misses", cache ? cache->get_number("misses", 0) : 0, "count");
        rep.metric("server.overloaded",
                   conns ? conns->get_number("rejected_overloaded", 0) : 0, "count");
        rep.metric("server.errors", server ? server->get_number("errors", 0) : 0, "count");
        return;
    }
    for (SetupWindow w; w.more(); w.add(setup.back())) set_up();
    rep.metric("setup_s", median(setup), "s");
    rep.metric("wall_s", median(loop.pass_s), "s");
    rep.metric("req_per_s", static_cast<double>(loop.requests) / loop.elapsed_s, "1/s");
    rep.metric("latency_p50_ms", median(loop.all_ms), "ms");
    rep.metric("latency_p99_ms", tail_latency(loop.all_ms), "ms");
    rep.metric("peak_rss_mb", rss, "MB");
}

}  // namespace perfbench
