#include "server/snapshot_store.hpp"

#include "core/db_io.hpp"
#include "server/design_cache.hpp"
#include "server/json.hpp"
#include "util/atomic_file.hpp"
#include "util/bytes.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace seqlearn::server {

namespace {

constexpr char kStoreMagic[8] = {'S', 'E', 'Q', 'L', 'S', 'T', 'R', '1'};
constexpr std::uint32_t kStoreVersion = 1;
constexpr std::size_t kStoreHeaderBytes = 40;
constexpr char kEntrySuffix[] = ".snap";
constexpr char kQuarantineSuffix[] = ".quarantined";

/// The digest an entry file name stands for: only a name that is exactly
/// hex_u64(digest) + ".snap" is an entry. nullopt for anything else (temp
/// files, quarantined entries, stray files).
std::optional<std::uint64_t> digest_from_name(std::string_view name) {
    if (!name.ends_with(kEntrySuffix)) return std::nullopt;
    const std::optional<std::uint64_t> digest =
        parse_hex_u64(name.substr(0, name.size() - (sizeof kEntrySuffix - 1)));
    if (!digest || name != hex_u64(*digest) + kEntrySuffix) return std::nullopt;
    return digest;
}

bool read_file(const std::string& path, std::string* out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    *out = std::move(buf).str();
    return static_cast<bool>(in);
}

/// Structural + self-consistency validation of an entry file's bytes:
/// header intact, named digest matches both the header and a recomputation
/// over the stored bench bytes, sections tile the file exactly, and the
/// learned section parses as a binary v2 blob. Does NOT check the learned
/// blob against a netlist — that is attach-time work.
bool validate_entry(std::uint64_t expect_digest, const std::string& bytes,
                    StoredSnapshot* out) {
    if (bytes.size() < kStoreHeaderBytes) return false;
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
    if (std::memcmp(p, kStoreMagic, sizeof kStoreMagic) != 0) return false;
    if (util::get_u32(p + 8) != kStoreVersion) return false;
    if (util::get_u32(p + 12) != 0) return false;
    const std::uint64_t digest = util::get_u64(p + 16);
    const std::uint64_t bench_bytes = util::get_u64(p + 24);
    const std::uint64_t learned_bytes = util::get_u64(p + 32);
    if (digest != expect_digest) return false;
    if (bench_bytes > bytes.size() || learned_bytes > bytes.size()) return false;
    if (kStoreHeaderBytes + bench_bytes + learned_bytes != bytes.size()) return false;
    const std::string_view bench(bytes.data() + kStoreHeaderBytes,
                                 static_cast<std::size_t>(bench_bytes));
    const std::string_view learned(
        bytes.data() + kStoreHeaderBytes + static_cast<std::size_t>(bench_bytes),
        static_cast<std::size_t>(learned_bytes));
    if (content_digest(bench) != digest) return false;
    if (!core::probe_binary_db(learned)) return false;
    if (out) {
        out->digest = digest;
        out->bench.assign(bench);
        out->learned.assign(learned);
    }
    return true;
}

}  // namespace

std::unique_ptr<SnapshotStore> SnapshotStore::open(SnapshotStoreConfig cfg,
                                                   std::string* error) {
    if (cfg.dir.empty()) {
        if (error) *error = "snapshot store: empty directory path";
        return nullptr;
    }
    if (::mkdir(cfg.dir.c_str(), 0755) != 0 && errno != EEXIST) {
        if (error)
            *error = "snapshot store: cannot create " + cfg.dir + ": " +
                     std::strerror(errno);
        return nullptr;
    }
    std::unique_ptr<SnapshotStore> store(new SnapshotStore(std::move(cfg)));
    if (!store->scan(error)) return nullptr;
    return store;
}

bool SnapshotStore::scan(std::string* error) {
    DIR* dir = ::opendir(cfg_.dir.c_str());
    if (dir == nullptr) {
        if (error)
            *error = "snapshot store: cannot read " + cfg_.dir + ": " +
                     std::strerror(errno);
        return false;
    }
    struct Found {
        std::uint64_t digest;
        std::size_t bytes;
        std::int64_t mtime;
    };
    std::vector<Found> found;
    while (const dirent* ent = ::readdir(dir)) {
        const std::string name = ent->d_name;
        if (name == "." || name == "..") continue;
        const std::string path = cfg_.dir + "/" + name;
        // A leftover temp file is an interrupted put: the entry path was
        // never touched, so the temp is pure garbage — delete it.
        if (name.find(".tmp.") != std::string::npos) {
            ::unlink(path.c_str());
            continue;
        }
        if (name.size() > sizeof kQuarantineSuffix &&
            name.compare(name.size() - (sizeof kQuarantineSuffix - 1),
                         sizeof kQuarantineSuffix - 1, kQuarantineSuffix) == 0) {
            ++quarantined_;
            continue;
        }
        const std::optional<std::uint64_t> digest = digest_from_name(name);
        if (!digest) continue;  // not ours; leave foreign files alone
        struct stat st = {};
        if (::stat(path.c_str(), &st) != 0) continue;
        std::string bytes;
        if (!read_file(path, &bytes) || !validate_entry(*digest, bytes, nullptr)) {
            quarantine_file_locked(path);
            continue;
        }
        found.push_back({*digest, static_cast<std::size_t>(st.st_size),
                         static_cast<std::int64_t>(st.st_mtime)});
    }
    ::closedir(dir);
    // Seed recency from mtime: newest files were written last, so they
    // should be the last evicted.
    std::sort(found.begin(), found.end(),
              [](const Found& a, const Found& b) { return a.mtime > b.mtime; });
    for (const Found& f : found) {
        lru_.push_back({f.digest, f.bytes});
        by_digest_[f.digest] = std::prev(lru_.end());
        bytes_ += f.bytes;
    }
    evict_past_cap_locked();
    return true;
}

std::string SnapshotStore::entry_path(std::uint64_t digest) const {
    return cfg_.dir + "/" + hex_u64(digest) + kEntrySuffix;
}

void SnapshotStore::quarantine_file_locked(const std::string& path) {
    // Keep the bytes for post-mortems but make the name invisible to the
    // index. Rename failure (exotic: permissions changed underneath us)
    // degrades to unlink so a corrupt entry can never be re-read.
    const std::string aside = path + kQuarantineSuffix;
    if (::rename(path.c_str(), aside.c_str()) != 0) ::unlink(path.c_str());
    util::fsync_parent_dir(path);
    ++quarantined_;
}

void SnapshotStore::drop_locked(std::uint64_t digest) {
    const auto it = by_digest_.find(digest);
    if (it == by_digest_.end()) return;
    bytes_ -= it->second->file_bytes;
    lru_.erase(it->second);
    by_digest_.erase(it);
}

void SnapshotStore::evict_past_cap_locked() {
    if (cfg_.max_bytes == 0) return;
    // Never evict the MRU entry: a design whose one entry alone exceeds the
    // cap must still restart warm, as the DesignCache keeps serving it.
    while (bytes_ > cfg_.max_bytes && lru_.size() > 1) {
        const IndexEntry victim = lru_.back();
        const std::string path = entry_path(victim.digest);
        ::unlink(path.c_str());
        util::fsync_parent_dir(path);
        drop_locked(victim.digest);
        ++evictions_;
    }
}

bool SnapshotStore::put(std::uint64_t digest, std::string_view bench,
                        std::string_view learned, std::string* error) {
    std::string bytes;
    bytes.reserve(kStoreHeaderBytes + bench.size() + learned.size());
    bytes.append(kStoreMagic, sizeof kStoreMagic);
    util::put_u32(bytes, kStoreVersion);
    util::put_u32(bytes, 0);
    util::put_u64(bytes, digest);
    util::put_u64(bytes, bench.size());
    util::put_u64(bytes, learned.size());
    bytes.append(bench);
    bytes.append(learned);

    std::lock_guard<std::mutex> lock(mu_);
    const std::string path = entry_path(digest);
    if (!util::atomic_write_file(path, bytes, error, cfg_.failpoint)) {
        ++put_failures_;
        return false;
    }
    drop_locked(digest);  // replacing an existing entry re-charges its bytes
    lru_.push_front({digest, bytes.size()});
    by_digest_[digest] = lru_.begin();
    bytes_ += bytes.size();
    ++puts_;
    evict_past_cap_locked();
    return true;
}

std::optional<StoredSnapshot> SnapshotStore::fetch(std::uint64_t digest) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_digest_.find(digest);
    if (it == by_digest_.end()) {
        ++fetch_misses_;
        return std::nullopt;
    }
    const std::string path = entry_path(digest);
    std::string bytes;
    StoredSnapshot out;
    if (!read_file(path, &bytes) || !validate_entry(digest, bytes, &out)) {
        // The file changed (or vanished) underneath the index — set it
        // aside and report a miss so the caller re-learns.
        quarantine_file_locked(path);
        drop_locked(digest);
        ++fetch_misses_;
        return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
    ++fetch_hits_;
    return out;
}

bool SnapshotStore::contains(std::uint64_t digest) const {
    std::lock_guard<std::mutex> lock(mu_);
    return by_digest_.count(digest) != 0;
}

void SnapshotStore::quarantine(std::uint64_t digest) {
    std::lock_guard<std::mutex> lock(mu_);
    if (by_digest_.count(digest) == 0) return;
    quarantine_file_locked(entry_path(digest));
    drop_locked(digest);
}

SnapshotStoreStats SnapshotStore::stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    SnapshotStoreStats s;
    s.entries = by_digest_.size();
    s.bytes = bytes_;
    s.max_bytes = cfg_.max_bytes;
    s.quarantined = quarantined_;
    s.puts = puts_;
    s.put_failures = put_failures_;
    s.fetch_hits = fetch_hits_;
    s.fetch_misses = fetch_misses_;
    s.evictions = evictions_;
    return s;
}

}  // namespace seqlearn::server
