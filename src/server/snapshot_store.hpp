#pragma once
// Durable, content-addressed store of learned-DB snapshots.
//
// The DesignCache makes the daemon fast across *requests*; this store makes
// it fast across *restarts*. Every first successful full learn writes one
// entry — the original .bench bytes plus the binary v2 learned blob — keyed
// by the FNV-1a digest of the bench bytes, to `<dir>/<hex_u64(digest)>.snap`
// (16 lowercase hex digits). Only a file whose name is exactly that is an
// entry; the store leaves every other file alone.
// A restarted daemon scans the directory once, rebuilds its index, and a
// later request naming a stored design re-attaches the learned snapshot
// instead of re-learning: a warm restart costs one parse, not a learn run.
//
// Entry file layout (all integers little-endian, util/bytes.hpp):
//
//     offset  size  field
//          0     8  magic "SEQLSTR1"
//          8     4  version (1), u32
//         12     4  reserved (0)
//         16     8  design digest (content_digest of the bench bytes), u64
//         24     8  bench byte count B, u64
//         32     8  learned blob byte count L, u64
//         40     B  bench bytes, verbatim as first submitted
//        40+B    L  learned blob, db_io binary v2 (magic "SEQLNDB2")
//
// Durability: every entry is written through util::atomic_write_file (temp
// file in the store dir -> fsync -> rename -> directory fsync), so a crash
// at any instant leaves each entry path holding either nothing, the
// complete previous entry, or the complete new one — never a torn file.
//
// Recovery: open() scans the directory. Leftover temp files are deleted
// (an interrupted put; the entry path itself was never touched). Each
// *.snap file is structurally validated — magic, version, digest-vs-name
// agreement, digest recomputed over the stored bench bytes, section sizes
// tiling the file exactly, and core::probe_binary_db over the learned
// section. Anything that fails is renamed to *.quarantined (kept for
// post-mortems, invisible to the index) and counted. The expensive
// netlist-digest + contraposition-closure checks still run when a blob is
// actually attached (db_io load_learned_binary); a deep-validation failure
// there is reported back through quarantine(), so a corrupt entry is served
// at most zero times.
//
// Disk budget: entries are LRU-tracked (seeded from file mtime at scan
// time, bumped by fetch/put) and inserting past `max_bytes` unlinks
// least-recently-used entries first.
//
// Thread safety: all public methods lock one mutex; entry files are small
// relative to learn times, so holding it across file I/O is fine.

#include "exec/failpoint.hpp"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace seqlearn::server {

struct SnapshotStoreConfig {
    std::string dir;                   ///< store directory (created if absent)
    std::size_t max_bytes = 256u << 20;  ///< disk budget; 0 = unlimited
    /// Chaos hook (null in production): injects failures at the FsWrite /
    /// FsFsync / FsRename sites inside put()'s atomic_write_file.
    exec::FailurePoint* failpoint = nullptr;
};

struct SnapshotStoreStats {
    std::size_t entries = 0;
    std::size_t bytes = 0;        ///< on-disk bytes across live entries
    std::size_t max_bytes = 0;
    std::size_t quarantined = 0;  ///< corrupt entries set aside (scan + deep)
    std::size_t puts = 0;
    std::size_t put_failures = 0;
    std::size_t fetch_hits = 0;
    std::size_t fetch_misses = 0;
    std::size_t evictions = 0;
};

/// One stored entry, as fetched: the design's original bench bytes and the
/// binary v2 learned blob to validate against the compiled netlist.
struct StoredSnapshot {
    std::uint64_t digest = 0;
    std::string bench;
    std::string learned;
};

class SnapshotStore {
public:
    /// Open (creating the directory if needed) and run the recovery scan.
    /// Returns null with *error set when the directory cannot be created or
    /// read; individual corrupt entries never fail open() — they quarantine.
    static std::unique_ptr<SnapshotStore> open(SnapshotStoreConfig cfg,
                                               std::string* error);

    /// Write-through: persist (bench, learned blob) under `digest`,
    /// crash-safely, then evict LRU entries past the byte budget. Returns
    /// false with *error set on I/O failure (real or injected); the store
    /// and the entry path are left consistent either way.
    bool put(std::uint64_t digest, std::string_view bench, std::string_view learned,
             std::string* error);

    /// Read an entry back, bumping it to most-recently-used. nullopt when
    /// absent. A file that fails re-validation on read (changed underneath
    /// us) is quarantined and reported absent.
    std::optional<StoredSnapshot> fetch(std::uint64_t digest);

    bool contains(std::uint64_t digest) const;

    /// Deep-validation failure callback: the caller tried to attach a
    /// fetched blob and db_io rejected it (digest/closure mismatch). The
    /// entry file is renamed aside and dropped from the index, so the next
    /// request re-learns instead of re-tripping.
    void quarantine(std::uint64_t digest);

    SnapshotStoreStats stats() const;

    const std::string& dir() const { return cfg_.dir; }

private:
    explicit SnapshotStore(SnapshotStoreConfig cfg) : cfg_(std::move(cfg)) {}

    struct IndexEntry {
        std::uint64_t digest = 0;
        std::size_t file_bytes = 0;
    };
    using LruList = std::list<IndexEntry>;

    bool scan(std::string* error);
    std::string entry_path(std::uint64_t digest) const;
    void quarantine_file_locked(const std::string& path);
    void drop_locked(std::uint64_t digest);
    void evict_past_cap_locked();

    SnapshotStoreConfig cfg_;
    mutable std::mutex mu_;
    LruList lru_;  // front = most recent
    std::unordered_map<std::uint64_t, LruList::iterator> by_digest_;
    std::size_t bytes_ = 0;
    std::size_t quarantined_ = 0;
    std::size_t puts_ = 0;
    std::size_t put_failures_ = 0;
    std::size_t fetch_hits_ = 0;
    std::size_t fetch_misses_ = 0;
    std::size_t evictions_ = 0;
};

}  // namespace seqlearn::server
