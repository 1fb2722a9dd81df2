#include "server/design_cache.hpp"

#include "util/bytes.hpp"

#include <sstream>
#include <utility>

namespace seqlearn::server {

std::uint64_t content_digest(std::string_view bytes) {
    return util::Fnv1a{}.mix_bytes(bytes).value;
}

std::size_t DesignCache::entry_bytes(const Entry& e) {
    std::size_t bytes = e.design ? e.design->memory_bytes() : 0;
    if (e.learned) bytes += e.learned->memory_bytes();
    if (e.bench) bytes += e.bench->size();
    return bytes;
}

DesignCache::LoadResult DesignCache::load(std::string_view bench_bytes,
                                          std::string name) {
    const std::uint64_t digest = content_digest(bench_bytes);
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = by_digest_.find(digest);
        if (it != by_digest_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            ++hits_;
            LoadResult out;
            out.entry = it->second->entry;
            out.was_cached = true;
            return out;
        }
        ++misses_;
    }

    // Compile outside the lock: a 100k-gate parse must not block cache hits
    // on other connections.
    std::istringstream in{std::string(bench_bytes)};
    api::DesignLoad loaded = api::load_design(in, std::move(name));
    LoadResult out;
    out.diagnostics = std::move(loaded.diagnostics);
    if (!loaded.design) return out;  // parse errors: nothing inserted

    Entry entry;
    entry.digest = digest;
    entry.design = std::move(loaded.design);
    entry.bench = std::make_shared<const std::string>(bench_bytes);
    entry.bytes = entry_bytes(entry);

    std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_digest_.find(digest);
    if (it != by_digest_.end()) {
        // Another connection compiled the same bytes while we parsed; keep
        // the incumbent (it may already carry a learned snapshot).
        lru_.splice(lru_.begin(), lru_, it->second);
        out.entry = it->second->entry;
        out.was_cached = true;
        return out;
    }
    lru_.push_front(Node{entry});
    by_digest_[digest] = lru_.begin();
    bytes_ += entry.bytes;
    out.entry = std::move(entry);
    evict_past_cap_locked();
    return out;
}

DesignCache::Entry DesignCache::find(std::uint64_t digest) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_digest_.find(digest);
    if (it == by_digest_.end()) {
        ++misses_;
        return {};
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++hits_;
    return it->second->entry;
}

void DesignCache::attach_learned(std::uint64_t digest,
                                 std::shared_ptr<const core::LearnedSnapshot> snap) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_digest_.find(digest);
    if (it == by_digest_.end()) return;
    Entry& e = it->second->entry;
    bytes_ -= e.bytes;
    e.learned = std::move(snap);
    e.bytes = entry_bytes(e);
    bytes_ += e.bytes;
    // The freshly warmed entry is the one being worked on: make it MRU so
    // the eviction sweep charges colder entries first.
    lru_.splice(lru_.begin(), lru_, it->second);
    evict_past_cap_locked();
}

void DesignCache::evict_past_cap_locked() {
    if (cfg_.max_bytes == 0) return;
    // Never evict the MRU entry: the cache must keep serving the circuit
    // being worked on even when that one entry alone exceeds the cap.
    while (bytes_ > cfg_.max_bytes && lru_.size() > 1) {
        const Node& victim = lru_.back();
        bytes_ -= victim.entry.bytes;
        by_digest_.erase(victim.entry.digest);
        lru_.pop_back();
        ++evictions_;
    }
}

DesignCache::Stats DesignCache::stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.entries = lru_.size();
    s.bytes = bytes_;
    s.max_bytes = cfg_.max_bytes;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    return s;
}

}  // namespace seqlearn::server
