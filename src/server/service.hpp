#pragma once
// The serving protocol, independent of any transport.
//
// A Service turns one newline-framed JSON request into one JSON response
// line — the same schema the CLI's --json mode prints, so anything that can
// read `seqlearn_cli learn --json` output can read a server response. The
// transport (server.hpp, or a test harness calling handle() directly) owns
// the sockets; the Service owns everything stateful:
//
//   * the content-addressed DesignCache (bench bytes -> compiled Design,
//     LRU-evicted by real memory accounting, with attached learned
//     snapshots promoted by the first completing `learn` request),
//   * a bounded session pool: at most `max_sessions` heavy commands
//     (load / learn / atpg / fault_sim) run at once; excess requests wait
//     up to `queue_timeout` for a slot and then get a structured
//     `overloaded` error instead of piling up,
//   * the in-flight request registry: any heavy request carrying an "id"
//     can be cancelled by a `cancel` request from another connection — the
//     run stops at its next work-item boundary and the response reports a
//     Cancelled outcome with the partial results that were committed,
//   * the drain switch for graceful shutdown: begin_drain() cancels every
//     in-flight run (responses are still written) and rejects new heavy
//     requests, so a transport can stop without dropping a connection
//     mid-request.
//
// Error taxonomy — the CLI exit codes, verbatim, plus one server-only code:
//   0 ok, 2 usage (bad request / unknown design), 3 parse (malformed frame
//   or bench text), 4 budget exhausted, 5 cancelled / shutting down,
//   6 internal failure, 7 overloaded (no session slot within the timeout).
// Protocol failures are `{"ok": false, "error": {code, class, message}}`;
// a governed run that stopped early is NOT a protocol failure — it replies
// `"ok": true` with its partial results, the structured `outcome`, and the
// matching nonzero `code`, exactly like the CLI prints partial results and
// exits 4/5.
//
// Thread safety: handle() may be called from any number of transport
// threads concurrently.

#include "exec/outcome.hpp"
#include "server/design_cache.hpp"
#include "server/snapshot_store.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace seqlearn::server {

/// Protocol error codes (the CLI exit-code taxonomy + `Overloaded`).
enum class ProtoCode : int {
    Ok = 0,
    Usage = 2,
    Parse = 3,
    Budget = 4,
    Cancelled = 5,
    Internal = 6,
    Overloaded = 7,
};

/// A run outcome's code: also the CLI's exit code for the stage.
ProtoCode code_for(const exec::RunOutcome& o);

class JsonWriter;

/// {"status": ..., "diagnostic": ...}: the structured outcome of every
/// response and of the CLI's --json stages.
void write_outcome(JsonWriter& w, const exec::RunOutcome& o);

/// [{"severity": ..., "line": N, "message": ...}, ...]: parse diagnostics.
void write_diagnostics(JsonWriter& w, const netlist::Diagnostics& diags);

struct ServiceConfig {
    /// Heavy commands (load/learn/atpg/fault_sim) running at once.
    std::size_t max_sessions = 4;
    /// How long a heavy request waits for a free session slot before the
    /// structured `overloaded` error.
    std::chrono::milliseconds queue_timeout{30000};
    /// Content-addressed Design cache sizing (LRU byte cap).
    DesignCache::Config cache;
    /// Worker threads per running stage (0 = hardware_concurrency).
    /// Results are bit-identical at any setting.
    unsigned threads = 1;
    /// Durable snapshot store (null = in-memory only). When set, the first
    /// completed full learn of a design writes through, and a digest that
    /// misses the in-memory cache falls back here — the warm-restart path.
    std::shared_ptr<SnapshotStore> store;
};

/// Transport-level counters the TCP server maintains and `stats` surfaces.
/// Lives here (not in server.hpp) so the transport-agnostic Service can
/// print it without depending on the socket layer.
struct TransportCounters {
    std::atomic<std::uint64_t> accepted{0};            ///< connections accepted
    std::atomic<std::uint64_t> active{0};              ///< currently serving
    std::atomic<std::uint64_t> rejected_overloaded{0}; ///< over --max-conns
    std::atomic<std::uint64_t> idle_reaped{0};         ///< idle deadline hit
    std::atomic<std::uint64_t> write_timeouts{0};      ///< write deadline hit
};

class Service {
public:
    explicit Service(ServiceConfig cfg);
    Service() : Service(ServiceConfig{}) {}

    /// Serve one request frame (one JSON object, no trailing newline) and
    /// return the response JSON (no trailing newline). Never throws: every
    /// failure becomes a structured error response.
    std::string handle(std::string_view frame);

    /// Graceful-shutdown switch: cancel every in-flight run and reject new
    /// heavy requests with code 5 / class "shutting_down". Idempotent.
    void begin_drain();
    bool draining() const noexcept {
        return draining_.load(std::memory_order_acquire);
    }

    /// True once a `shutdown` request has been served — the transport's cue
    /// to stop accepting and drain.
    bool shutdown_requested() const noexcept {
        return shutdown_.load(std::memory_order_acquire);
    }

    /// Heavy commands currently inside handle() (draining waits on this).
    std::size_t active_requests() const noexcept {
        return active_.load(std::memory_order_acquire);
    }

    DesignCache& cache() noexcept { return cache_; }
    SnapshotStore* store() noexcept { return cfg_.store.get(); }

    /// Let the transport publish its counters for `stats` (null = the
    /// response carries no "connections" section). Set before serving.
    void set_transport_counters(const TransportCounters* c) noexcept {
        transport_ = c;
    }

private:
    class SlotGuard;
    class InflightGuard;

    std::string dispatch(std::string_view frame);
    std::string cmd_load(const class JsonValue& req, const std::string& id);
    std::string cmd_learn(const JsonValue& req, const std::string& id);
    std::string cmd_atpg(const JsonValue& req, const std::string& id);
    std::string cmd_fault_sim(const JsonValue& req, const std::string& id);
    std::string cmd_stats(const JsonValue& req, const std::string& id);
    std::string cmd_cancel(const JsonValue& req, const std::string& id);
    std::string cmd_shutdown(const std::string& id);

    /// Cache lookup with durable-store fallback (see resolve notes in the
    /// .cpp): a digest evicted from memory but present on disk is
    /// recompiled and its learned snapshot re-attached transparently.
    struct Resolved;
    Resolved resolve(const JsonValue& req, std::string_view cmd,
                     const std::string& id);

    /// Write-through: persist a freshly promoted learned snapshot to the
    /// durable store (best effort — a failed put is counted, not fatal).
    void store_write_through(const DesignCache::Entry& entry,
                             const core::LearnedSnapshot& snap);

    /// Wait for a session slot. Returns false on timeout (-> overloaded).
    bool acquire_slot();
    void release_slot();

    /// Register a heavy request's cancel flag under `id` (or a generated
    /// one); `cancel` requests flip it.
    std::shared_ptr<std::atomic<bool>> register_inflight(const std::string& id);
    void unregister_inflight(const std::string& id);

    ServiceConfig cfg_;
    DesignCache cache_;
    const TransportCounters* transport_ = nullptr;

    std::mutex slots_mu_;
    std::condition_variable slots_cv_;
    std::size_t slots_in_use_ = 0;

    std::mutex inflight_mu_;
    std::unordered_map<std::string, std::shared_ptr<std::atomic<bool>>> inflight_;
    std::atomic<std::uint64_t> next_request_seq_{0};

    std::atomic<bool> draining_{false};
    std::atomic<bool> shutdown_{false};
    std::atomic<std::size_t> active_{0};
    std::atomic<std::uint64_t> served_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> cancelled_{0};
};

}  // namespace seqlearn::server
