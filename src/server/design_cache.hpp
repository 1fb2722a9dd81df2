#pragma once
// Content-addressed cache of compiled Designs.
//
// The serving flow is parse-once / request-many: the first `load` of a
// .bench file pays the full parse + levelize + collapse cost and every
// later request references the compiled artifact by the FNV-1a digest of
// the *bench bytes* — identical circuit text always lands on the same
// cache entry, whatever path or client it came from. Entries also carry an
// optional learned snapshot (attached by the first `learn` request), so a
// warm entry answers snapshot-backed learn/stats requests in microseconds
// where a cold load costs a full parse. The snapshot sits beside the
// Design, not in it (a Design holds no learned data): each request's
// Session adopts it with Session::use_learned, without a copy.
//
// Eviction is LRU by real memory accounting: each entry is charged
// Design::memory_bytes() plus its snapshot's memory_bytes(), and inserting
// past the byte cap evicts least-recently-used entries first. Eviction only
// drops the cache's shared_ptr — Sessions already running over an evicted
// Design keep it alive; a later request naming the evicted digest gets a
// structured "unknown design" error and re-loads.
//
// Thread safety: every public method is safe to call concurrently (one
// mutex; the expensive Design compile happens *outside* the lock, so a big
// load does not stall cache hits for other connections).

#include "api/design.hpp"
#include "core/learned_snapshot.hpp"
#include "netlist/diagnostics.hpp"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace seqlearn::server {

/// FNV-1a over the raw bench bytes — the cache key.
std::uint64_t content_digest(std::string_view bytes);

class DesignCache {
public:
    struct Config {
        /// Byte cap across all entries (Design + snapshot accounting);
        /// inserting past it evicts LRU entries. 0 = unlimited.
        std::size_t max_bytes = 512u << 20;
    };

    /// One cached artifact. Immutable handle: the snapshot pointer is the
    /// value at lookup time (a concurrent attach_learned publishes a fresh
    /// view to later lookups, never mutates one already handed out).
    struct Entry {
        std::uint64_t digest = 0;
        api::DesignPtr design;
        std::shared_ptr<const core::LearnedSnapshot> learned;  ///< may be null
        /// The original bench bytes the digest was computed over — what a
        /// durable snapshot store must persist so a restarted daemon can
        /// recompile the identical design (a re-serialized netlist would
        /// digest differently). Charged against the byte cap.
        std::shared_ptr<const std::string> bench;
        std::size_t bytes = 0;  ///< what this entry charges against the cap
    };

    struct Stats {
        std::size_t entries = 0;
        std::size_t bytes = 0;
        std::size_t max_bytes = 0;
        std::size_t hits = 0;
        std::size_t misses = 0;
        std::size_t evictions = 0;
    };

    struct LoadResult {
        Entry entry;                      ///< design null on parse errors
        netlist::Diagnostics diagnostics; ///< parse problems, line-numbered
        bool was_cached = false;          ///< true = no parse happened
    };

    DesignCache() = default;
    explicit DesignCache(Config cfg) : cfg_(cfg) {}

    /// Get-or-compile: returns the existing entry for these exact bytes, or
    /// parses + compiles and inserts a new one (evicting LRU entries past
    /// the byte cap). On parse errors nothing is inserted and the result's
    /// design is null. `name` labels the circuit in reports.
    LoadResult load(std::string_view bench_bytes, std::string name);

    /// Lookup by digest, bumping the entry to most-recently-used. Design
    /// null when the digest is unknown (never seen or evicted).
    Entry find(std::uint64_t digest);

    /// Attach (or replace) the learned snapshot of an existing entry — the
    /// promotion path from one request's learn() to every later request on
    /// the same circuit. Re-charges the entry's bytes and may evict *other*
    /// entries to make room. No-op when the digest is unknown.
    void attach_learned(std::uint64_t digest,
                        std::shared_ptr<const core::LearnedSnapshot> snap);

    Stats stats() const;

private:
    struct Node {
        Entry entry;
    };
    using LruList = std::list<Node>;

    void evict_past_cap_locked();
    static std::size_t entry_bytes(const Entry& e);

    Config cfg_;
    mutable std::mutex mu_;
    LruList lru_;  // front = most recent
    std::unordered_map<std::uint64_t, LruList::iterator> by_digest_;
    std::size_t bytes_ = 0;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
    std::size_t evictions_ = 0;
};

}  // namespace seqlearn::server
