// Durable snapshot store: crash-safety, recovery, quarantine, and the
// warm-restart serving path.
//
// What is pinned here:
//   * put -> fetch round-trips bytes exactly, and survives closing and
//     re-opening the store (the restart case).
//   * The recovery scan never crashes on hostile directory contents: an
//     entry truncated at (or inside) every section, a bit-flipped header,
//     or trailing garbage is quarantined (renamed aside, counted, dropped
//     from the index); leftover temp files from an interrupted put are
//     deleted.
//   * Injected filesystem failures (short write / fsync EIO / failed
//     rename, via the exec::FailurePoint I/O sites) make put() fail
//     cleanly: error set, no temp litter, and the *previous* entry contents
//     still served — the crash-safety invariant, observed from userspace.
//   * Disk LRU: inserting past the byte budget unlinks the
//     least-recently-used entry file, but never the entry just put.
//   * End to end through the Service: a learn on one Service instance
//     writes through; a *fresh* Service sharing the store directory answers
//     stats/learn/atpg on that digest warm — same relation hash, no
//     re-learn. A stored blob whose deep validation fails (flipped netlist
//     digest) is quarantined and the design re-learns instead of serving
//     corrupt data.

#include "server/snapshot_store.hpp"

#include "core/db_io.hpp"
#include "core/seq_learn.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/topology.hpp"
#include "server/design_cache.hpp"
#include "server/json.hpp"
#include "server/service.hpp"
#include "workload/suite.hpp"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace seqlearn {
namespace {

using server::JsonValue;
using server::SnapshotStore;
using server::SnapshotStoreConfig;
using server::SnapshotStoreStats;
using server::StoredSnapshot;

/// Self-cleaning temp directory under /tmp.
struct TempDir {
    std::string path;
    TempDir() {
        char tmpl[] = "/tmp/seqlearn_store_XXXXXX";
        path = ::mkdtemp(tmpl);
        EXPECT_FALSE(path.empty());
    }
    ~TempDir() {
        if (DIR* d = ::opendir(path.c_str())) {
            while (const dirent* ent = ::readdir(d)) {
                const std::string name = ent->d_name;
                if (name != "." && name != "..")
                    ::unlink((path + "/" + name).c_str());
            }
            ::closedir(d);
        }
        ::rmdir(path.c_str());
    }
};

std::vector<std::string> dir_entries(const std::string& dir) {
    std::vector<std::string> names;
    if (DIR* d = ::opendir(dir.c_str())) {
        while (const dirent* ent = ::readdir(d)) {
            const std::string name = ent->d_name;
            if (name != "." && name != "..") names.push_back(name);
        }
        ::closedir(d);
    }
    return names;
}

void write_raw(const std::string& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_raw(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return std::move(buf).str();
}

/// A real (bench, learned-blob, digest) triple from the suite's s27.
struct LearnedDesign {
    std::string bench;
    std::string learned;
    std::uint64_t digest = 0;
};

const LearnedDesign& s27_learned() {
    static const LearnedDesign* cached = [] {
        auto* d = new LearnedDesign;
        const netlist::Netlist nl = workload::suite_circuit("s27");
        d->bench = netlist::write_bench_string(nl);
        d->digest = server::content_digest(d->bench);
        const core::LearnResult res =
            core::learn(nl, netlist::Topology(nl), core::LearnConfig{});
        std::ostringstream out;
        core::save_learned_binary(out, nl, res.db, res.ties);
        d->learned = std::move(out).str();
        return d;
    }();
    return *cached;
}

std::unique_ptr<SnapshotStore> open_store(const std::string& dir,
                                          std::size_t max_bytes = 0,
                                          exec::FailurePoint* fp = nullptr) {
    SnapshotStoreConfig cfg;
    cfg.dir = dir;
    cfg.max_bytes = max_bytes;
    cfg.failpoint = fp;
    std::string error;
    std::unique_ptr<SnapshotStore> store = SnapshotStore::open(std::move(cfg), &error);
    EXPECT_NE(store, nullptr) << error;
    return store;
}

// --- round trip and restart -------------------------------------------------

TEST(SnapshotStore, PutFetchRoundTripsExactBytes) {
    const LearnedDesign& d = s27_learned();
    TempDir tmp;
    auto store = open_store(tmp.path);
    ASSERT_NE(store, nullptr);

    std::string error;
    ASSERT_TRUE(store->put(d.digest, d.bench, d.learned, &error)) << error;
    EXPECT_TRUE(store->contains(d.digest));

    const std::optional<StoredSnapshot> got = store->fetch(d.digest);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->digest, d.digest);
    EXPECT_EQ(got->bench, d.bench);
    EXPECT_EQ(got->learned, d.learned);

    const SnapshotStoreStats s = store->stats();
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.puts, 1u);
    EXPECT_EQ(s.fetch_hits, 1u);
    EXPECT_EQ(s.quarantined, 0u);
    EXPECT_GT(s.bytes, d.bench.size() + d.learned.size());
}

TEST(SnapshotStore, EntriesSurviveReopen) {
    const LearnedDesign& d = s27_learned();
    TempDir tmp;
    {
        auto store = open_store(tmp.path);
        ASSERT_NE(store, nullptr);
        std::string error;
        ASSERT_TRUE(store->put(d.digest, d.bench, d.learned, &error)) << error;
    }
    auto reopened = open_store(tmp.path);
    ASSERT_NE(reopened, nullptr);
    EXPECT_TRUE(reopened->contains(d.digest));
    const std::optional<StoredSnapshot> got = reopened->fetch(d.digest);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->bench, d.bench);
    EXPECT_EQ(got->learned, d.learned);
    EXPECT_EQ(reopened->stats().quarantined, 0u);
}

TEST(SnapshotStore, FetchOfUnknownDigestMisses) {
    TempDir tmp;
    auto store = open_store(tmp.path);
    ASSERT_NE(store, nullptr);
    EXPECT_FALSE(store->fetch(0xdeadbeefULL).has_value());
    EXPECT_EQ(store->stats().fetch_misses, 1u);
}

// --- recovery scan vs hostile directory contents ----------------------------

TEST(SnapshotStore, RecoveryScanQuarantinesEveryTornVariant) {
    const LearnedDesign& d = s27_learned();
    TempDir tmp;
    std::string entry_bytes;
    {
        auto store = open_store(tmp.path);
        ASSERT_NE(store, nullptr);
        std::string error;
        ASSERT_TRUE(store->put(d.digest, d.bench, d.learned, &error)) << error;
        entry_bytes = read_raw(tmp.path + "/" + server::hex_u64(d.digest) + ".snap");
        ASSERT_FALSE(entry_bytes.empty());
    }

    // Truncation at (and inside) every section of the entry file, plus a
    // bit-flipped magic and appended garbage. Each variant must quarantine
    // on the next open — never crash, never index.
    constexpr std::size_t kHeader = 40;
    const std::size_t bench_end = kHeader + d.bench.size();
    const std::vector<std::size_t> cut_points = {
        0,                       // empty file
        4,                       // inside the magic
        kHeader / 2,             // inside the header
        kHeader,                 // header only, no payload
        kHeader + 1,             // one byte of bench
        bench_end - 1,           // bench torn
        bench_end,               // learned section missing entirely
        bench_end + 8,           // learned header torn
        entry_bytes.size() - 1,  // last byte lost
    };
    struct Variant {
        std::string label;
        std::string bytes;
    };
    std::vector<Variant> variants;
    for (const std::size_t cut : cut_points)
        variants.push_back({"truncated@" + std::to_string(cut),
                            entry_bytes.substr(0, cut)});
    std::string flipped = entry_bytes;
    flipped[0] ^= 0x40;  // magic no longer matches
    variants.push_back({"flipped-magic", flipped});
    std::string wrong_version = entry_bytes;
    wrong_version[8] ^= 0xff;
    variants.push_back({"flipped-version", wrong_version});
    variants.push_back({"trailing-garbage", entry_bytes + "xx"});

    const std::string path = tmp.path + "/" + server::hex_u64(d.digest) + ".snap";
    for (const Variant& v : variants) {
        // Clear quarantined leftovers from the previous variant so counts
        // and directory scans stay per-variant.
        for (const std::string& name : dir_entries(tmp.path))
            ::unlink((tmp.path + "/" + name).c_str());
        write_raw(path, v.bytes);

        auto store = open_store(tmp.path);
        ASSERT_NE(store, nullptr) << v.label;
        EXPECT_FALSE(store->contains(d.digest)) << v.label;
        const SnapshotStoreStats s = store->stats();
        EXPECT_EQ(s.entries, 0u) << v.label;
        EXPECT_EQ(s.quarantined, 1u) << v.label;
        // The corrupt bytes are set aside under a .quarantined name, and
        // nothing answers to the entry name anymore.
        bool found_quarantined = false;
        for (const std::string& name : dir_entries(tmp.path)) {
            EXPECT_NE(name, server::hex_u64(d.digest) + ".snap") << v.label;
            if (name.find(".quarantined") != std::string::npos)
                found_quarantined = true;
        }
        EXPECT_TRUE(found_quarantined) << v.label;
    }
}

TEST(SnapshotStore, RecoveryScanDeletesLeftoverTempFiles) {
    const LearnedDesign& d = s27_learned();
    TempDir tmp;
    const std::string temp_name =
        tmp.path + "/" + server::hex_u64(d.digest) + ".snap.tmp.12345";
    write_raw(temp_name, "half-written garbage");
    auto store = open_store(tmp.path);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(::access(temp_name.c_str(), F_OK), -1)
        << "interrupted put's temp file must be cleaned up";
    EXPECT_EQ(store->stats().entries, 0u);
}

TEST(SnapshotStore, ScanIgnoresForeignFiles) {
    TempDir tmp;
    write_raw(tmp.path + "/README.txt", "not a snapshot");
    auto store = open_store(tmp.path);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->stats().entries, 0u);
    EXPECT_EQ(store->stats().quarantined, 0u);
    EXPECT_EQ(::access((tmp.path + "/README.txt").c_str(), F_OK), 0)
        << "foreign files must be left alone";
}

// --- injected filesystem failures -------------------------------------------

TEST(SnapshotStore, InjectedFsFailuresNeverTearTheStoredEntry) {
    const LearnedDesign& d = s27_learned();
    TempDir tmp;
    exec::FailurePoint fp;
    auto store = open_store(tmp.path, 0, &fp);
    ASSERT_NE(store, nullptr);

    std::string error;
    ASSERT_TRUE(store->put(d.digest, d.bench, d.learned, &error)) << error;

    // A second put of different content fails at each fs site in turn; the
    // first put's bytes must keep being served, with no temp litter.
    const std::string bench2 = d.bench + "# trailing comment\n";
    for (const exec::FailSite site :
         {exec::FailSite::FsWrite, exec::FailSite::FsFsync, exec::FailSite::FsRename}) {
        fp.arm(site, 1);
        error.clear();
        EXPECT_FALSE(store->put(d.digest, bench2, d.learned, &error))
            << exec::fail_site_name(site);
        EXPECT_FALSE(error.empty()) << exec::fail_site_name(site);
        fp.disarm();

        const std::optional<StoredSnapshot> got = store->fetch(d.digest);
        ASSERT_TRUE(got.has_value()) << exec::fail_site_name(site);
        EXPECT_EQ(got->bench, d.bench) << exec::fail_site_name(site);
        EXPECT_EQ(got->learned, d.learned) << exec::fail_site_name(site);
        for (const std::string& name : dir_entries(tmp.path))
            EXPECT_EQ(name.find(".tmp."), std::string::npos)
                << exec::fail_site_name(site) << " left " << name;
    }
    EXPECT_EQ(store->stats().put_failures, 3u);
}

// --- disk LRU ---------------------------------------------------------------

TEST(SnapshotStore, ByteBudgetEvictsLeastRecentlyUsedEntryFile) {
    const LearnedDesign& d = s27_learned();
    TempDir tmp;
    // Budget fits one entry, not two.
    const std::size_t entry_size = 40 + d.bench.size() + d.learned.size();
    auto store = open_store(tmp.path, entry_size + entry_size / 2);
    ASSERT_NE(store, nullptr);

    const std::string bench_b = d.bench + "# variant\n";
    const std::uint64_t digest_b = server::content_digest(bench_b);
    std::string error;
    ASSERT_TRUE(store->put(d.digest, d.bench, d.learned, &error)) << error;
    ASSERT_TRUE(store->put(digest_b, bench_b, d.learned, &error)) << error;

    EXPECT_FALSE(store->contains(d.digest)) << "LRU entry should be evicted";
    EXPECT_TRUE(store->contains(digest_b));
    EXPECT_EQ(store->stats().evictions, 1u);
    EXPECT_EQ(::access((tmp.path + "/" + server::hex_u64(d.digest) + ".snap").c_str(),
                       F_OK),
              -1)
        << "evicted entry file must be unlinked";
}

TEST(SnapshotStore, OversizedEntrySurvivesItsPutUntilTheNext) {
    const LearnedDesign& d = s27_learned();
    TempDir tmp;
    // Budget smaller than one entry.
    auto store = open_store(tmp.path, 100);
    ASSERT_NE(store, nullptr);
    const std::string path_a = tmp.path + "/" + server::hex_u64(d.digest) + ".snap";

    std::string error;
    ASSERT_TRUE(store->put(d.digest, d.bench, d.learned, &error)) << error;
    EXPECT_TRUE(store->contains(d.digest)) << "the entry just put must stay";
    const std::optional<StoredSnapshot> got = store->fetch(d.digest);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->learned, d.learned);
    EXPECT_EQ(::access(path_a.c_str(), F_OK), 0);
    EXPECT_EQ(store->stats().evictions, 0u);

    const std::string bench_b = d.bench + "# variant\n";
    const std::uint64_t digest_b = server::content_digest(bench_b);
    ASSERT_TRUE(store->put(digest_b, bench_b, d.learned, &error)) << error;
    EXPECT_FALSE(store->contains(d.digest));
    EXPECT_TRUE(store->contains(digest_b));
    EXPECT_EQ(::access(path_a.c_str(), F_OK), -1) << "evicted entry file must be unlinked";
    EXPECT_EQ(store->stats().evictions, 1u);
}

TEST(SnapshotStore, ExplicitQuarantineDropsEntry) {
    const LearnedDesign& d = s27_learned();
    TempDir tmp;
    auto store = open_store(tmp.path);
    ASSERT_NE(store, nullptr);
    std::string error;
    ASSERT_TRUE(store->put(d.digest, d.bench, d.learned, &error)) << error;
    store->quarantine(d.digest);
    EXPECT_FALSE(store->contains(d.digest));
    EXPECT_FALSE(store->fetch(d.digest).has_value());
    EXPECT_EQ(store->stats().quarantined, 1u);
}

// --- end to end through the Service -----------------------------------------

std::string load_frame(const std::string& bench) {
    return "{\"cmd\": \"load\", \"name\": \"s27\", \"bench\": \"" +
           server::json_escape(bench) + "\"}";
}

TEST(SnapshotStoreService, WarmRestartServesStoredLearnWithoutRelearning) {
    const std::string bench =
        netlist::write_bench_string(workload::suite_circuit("s27"));
    TempDir tmp;

    std::string digest;
    std::string relation_hash;
    {
        server::ServiceConfig cfg;
        cfg.store = open_store(tmp.path);
        ASSERT_NE(cfg.store, nullptr);
        server::Service svc(cfg);
        std::string err;
        const auto loaded = JsonValue::parse(svc.handle(load_frame(bench)), &err);
        ASSERT_TRUE(loaded.has_value()) << err;
        digest = loaded->get_string("design");
        ASSERT_FALSE(digest.empty());
        const auto learned = JsonValue::parse(
            svc.handle("{\"cmd\": \"learn\", \"design\": \"" + digest + "\"}"), &err);
        ASSERT_TRUE(learned.has_value()) << err;
        ASSERT_TRUE(learned->get_bool("ok"));
        relation_hash = learned->get_string("relation_hash");
        ASSERT_FALSE(relation_hash.empty());
        EXPECT_EQ(cfg.store->stats().puts, 1u) << "first learn must write through";
    }

    // A fresh Service over the same directory: no load, no learn — the
    // digest resolves through the store and stats serves the learned hash.
    server::ServiceConfig cfg;
    cfg.store = open_store(tmp.path);
    ASSERT_NE(cfg.store, nullptr);
    server::Service restarted(cfg);
    std::string err;
    const auto stats = JsonValue::parse(
        restarted.handle("{\"cmd\": \"stats\", \"design\": \"" + digest + "\"}"), &err);
    ASSERT_TRUE(stats.has_value()) << err;
    ASSERT_TRUE(stats->get_bool("ok"))
        << "warm restart must resolve a stored design without a load";
    const JsonValue* learned = stats->get("learned");
    ASSERT_NE(learned, nullptr) << "stored learned snapshot must re-attach";
    EXPECT_EQ(learned->get_string("relation_hash"), relation_hash)
        << "recovered snapshot must hash-match the pre-restart learn";

    // learn on the restarted service is warm: served from the recovered
    // snapshot, not recomputed.
    const auto warm = JsonValue::parse(
        restarted.handle("{\"cmd\": \"learn\", \"design\": \"" + digest + "\"}"), &err);
    ASSERT_TRUE(warm.has_value()) << err;
    EXPECT_TRUE(warm->get_bool("ok"));
    EXPECT_TRUE(warm->get_bool("warm"));
    EXPECT_EQ(warm->get_string("relation_hash"), relation_hash);
    EXPECT_EQ(cfg.store->stats().fetch_hits, 1u);
}

TEST(SnapshotStoreService, CorruptStoredBlobIsQuarantinedAndRelearned) {
    const std::string bench =
        netlist::write_bench_string(workload::suite_circuit("s27"));
    TempDir tmp;

    std::string digest;
    std::string relation_hash;
    {
        server::ServiceConfig cfg;
        cfg.store = open_store(tmp.path);
        ASSERT_NE(cfg.store, nullptr);
        server::Service svc(cfg);
        std::string err;
        const auto loaded = JsonValue::parse(svc.handle(load_frame(bench)), &err);
        ASSERT_TRUE(loaded.has_value()) << err;
        digest = loaded->get_string("design");
        const auto learned = JsonValue::parse(
            svc.handle("{\"cmd\": \"learn\", \"design\": \"" + digest + "\"}"), &err);
        ASSERT_TRUE(learned.has_value()) << err;
        relation_hash = learned->get_string("relation_hash");
    }

    // Flip a byte inside the learned blob's netlist-digest field: the entry
    // stays structurally valid (scan and fetch accept it) but the deep
    // attach-time check must reject it.
    const std::string path =
        tmp.path + "/" + server::hex_u64(server::content_digest(bench)) + ".snap";
    std::string bytes = read_raw(path);
    ASSERT_FALSE(bytes.empty());
    const std::size_t learned_off = 40 + bench.size();
    ASSERT_LT(learned_off + 24, bytes.size());
    bytes[learned_off + 16] = static_cast<char>(bytes[learned_off + 16] ^ 0x5a);
    write_raw(path, bytes);

    server::ServiceConfig cfg;
    cfg.store = open_store(tmp.path);
    ASSERT_NE(cfg.store, nullptr);
    server::Service restarted(cfg);
    std::string err;
    // The design still resolves (recompiled from the stored bench); the
    // corrupt learned blob is quarantined, never served.
    const auto learned2 = JsonValue::parse(
        restarted.handle("{\"cmd\": \"learn\", \"design\": \"" + digest + "\"}"), &err);
    ASSERT_TRUE(learned2.has_value()) << err;
    ASSERT_TRUE(learned2->get_bool("ok"));
    EXPECT_FALSE(learned2->get_bool("warm")) << "corrupt blob must not serve warm";
    EXPECT_EQ(learned2->get_string("relation_hash"), relation_hash)
        << "re-learn must reproduce the original result";
    EXPECT_GE(cfg.store->stats().quarantined, 1u);
}

}  // namespace
}  // namespace seqlearn
