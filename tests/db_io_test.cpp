// Round-trip tests for the learned-data persistence format (core::db_io)
// and its Session-level entry points (save_db / load_db).

#include "api/session.hpp"
#include "core/db_io.hpp"
#include "core/seq_learn.hpp"
#include "test_helpers.hpp"
#include "workload/suite.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace seqlearn::core {
namespace {

using netlist::GateId;
using netlist::Netlist;

// Relations as canonical sorted (lhs, rhs, frame) triples for set equality.
std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> canonical(
    const ImplicationDB& db) {
    std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> out;
    for (const Relation& r : db.relations())
        out.emplace_back(lit_key(r.lhs), lit_key(r.rhs), r.frame);
    std::sort(out.begin(), out.end());
    return out;
}

TEST(DbIo, SaveLoadRoundTripIsByteIdentical) {
    for (const std::uint64_t seed : {21ULL, 55ULL}) {
        const Netlist nl = testing::random_circuit(seed, 6, 5, 30);
        const LearnResult learned = testing::learn(nl);
        ASSERT_GT(learned.db.size(), 0u) << "seed " << seed;

        std::ostringstream first;
        save_learned(first, nl, learned.db, learned.ties);

        std::istringstream in(first.str());
        const LoadedLearned loaded = load_learned(in, nl);
        EXPECT_EQ(loaded.skipped_lines, 0u);

        // Loading must reconstruct the exact relation set and tie set...
        EXPECT_EQ(canonical(loaded.db), canonical(learned.db));
        EXPECT_EQ(loaded.db.size(), learned.db.size());
        EXPECT_EQ(loaded.ties.count(), learned.ties.count());
        for (const GateId g : learned.ties.tied_gates()) {
            EXPECT_EQ(loaded.ties.value(g), learned.ties.value(g));
            EXPECT_EQ(loaded.ties.cycle(g), learned.ties.cycle(g));
        }

        // ...and re-saving must reproduce the file byte for byte.
        std::ostringstream second;
        save_learned(second, nl, loaded.db, loaded.ties);
        EXPECT_EQ(first.str(), second.str()) << "seed " << seed;
    }
}

// The binary format stores both directions of every relation; a duplicate
// learned later at an earlier frame must update both stored edges, or the
// two directions disagree and the snapshot's closure check (rightly) balks.
TEST(DbIo, DuplicateFrameUpdateIsSymmetric) {
    ImplicationDB db(4);
    ASSERT_TRUE(db.add({0, Val3::One}, {1, Val3::Zero}, 5));
    // Same relation, re-learned through its contrapositive at an earlier frame.
    ASSERT_FALSE(db.add({1, Val3::One}, {0, Val3::Zero}, 2));
    EXPECT_EQ(db.frame_of({0, Val3::One}, {1, Val3::Zero}), 2u);
    EXPECT_EQ(db.frame_of({1, Val3::One}, {0, Val3::Zero}), 2u);
}

TEST(DbIo, SetEdgesAndSealRestoreOrReject) {
    using Edge = ImplicationDB::Edge;
    {
        // A closed mirror pair restores cleanly and counts one relation.
        ImplicationDB db(4);
        db.set_edges({0, Val3::One}, std::vector<Edge>{{{1, Val3::Zero}, 3}});
        db.set_edges({1, Val3::One}, std::vector<Edge>{{{0, Val3::Zero}, 3}});
        db.seal();
        EXPECT_EQ(db.size(), 1u);
        EXPECT_TRUE(db.implies({0, Val3::One}, {1, Val3::Zero}));
    }
    {
        // A lone direction is not closed under contraposition.
        ImplicationDB db(4);
        db.set_edges({0, Val3::One}, std::vector<Edge>{{{1, Val3::Zero}, 3}});
        EXPECT_THROW(db.seal(), std::invalid_argument);
    }
    {
        // Mirror present but at a different frame: still not closed.
        ImplicationDB db(4);
        db.set_edges({0, Val3::One}, std::vector<Edge>{{{1, Val3::Zero}, 3}});
        db.set_edges({1, Val3::One}, std::vector<Edge>{{{0, Val3::Zero}, 4}});
        EXPECT_THROW(db.seal(), std::invalid_argument);
    }
    {
        // Structural rejects: unsorted targets, self edges, double install.
        ImplicationDB db(4);
        EXPECT_THROW(db.set_edges({0, Val3::One},
                                  std::vector<Edge>{{{2, Val3::Zero}, 0},
                                                    {{1, Val3::Zero}, 0}}),
                     std::invalid_argument);
        EXPECT_THROW(
            db.set_edges({1, Val3::One}, std::vector<Edge>{{{1, Val3::Zero}, 0}}),
            std::invalid_argument);
        db.set_edges({2, Val3::One}, std::vector<Edge>{{{3, Val3::Zero}, 0}});
        EXPECT_THROW(
            db.set_edges({2, Val3::One}, std::vector<Edge>{{{3, Val3::Zero}, 0}}),
            std::invalid_argument);
    }
}

TEST(DbIo, BinarySnapshotRejectsBitFlippedAdjacency) {
    const Netlist nl = testing::random_circuit(21, 6, 5, 30);
    const LearnResult learned = testing::learn(nl);
    ASSERT_GT(learned.db.size(), 0u);
    std::ostringstream out;
    save_learned_binary(out, nl, learned.db, learned.ties);
    const std::string good = out.str();
    {
        std::istringstream in(good);
        EXPECT_NO_THROW((void)load_learned_binary(in, nl));
    }
    // Adjacency section: 32-byte header, list/edge counts, then the first
    // list's (key, count) pair at 48 and its first edge at 56 — target key
    // at 56..59, frame at 60..63. Flipping a bit in either desynchronizes
    // the edge from its contrapositive, which the closure check must catch.
    for (const std::size_t corrupt_at : {std::size_t{56}, std::size_t{60}}) {
        std::string bad = good;
        ASSERT_LT(corrupt_at, bad.size());
        bad[corrupt_at] = static_cast<char>(bad[corrupt_at] ^ 1);
        std::istringstream in(bad);
        EXPECT_THROW((void)load_learned_binary(in, nl), std::runtime_error)
            << "byte " << corrupt_at;
    }
}

// The torn-snapshot corpus: a binary v2 blob truncated at EVERY byte
// position (a superset of every section boundary) must produce a structured
// std::runtime_error from the loader — never a crash, never a silent
// partial load — and must fail probe_binary_db's structural walk. Bit flips
// across the checked header fields (magic, version, header size, netlist
// digest, gate count) are rejected the same way, and appended trailing
// garbage fails the probe's exact-tiling requirement.
TEST(DbIoCorpus, TruncationAtEveryByteIsAStructuredErrorNeverAPartialLoad) {
    const Netlist nl = testing::random_circuit(21, 6, 5, 30);
    const LearnResult learned = testing::learn(nl);
    ASSERT_GT(learned.db.size(), 0u);
    std::ostringstream out;
    save_learned_binary(out, nl, learned.db, learned.ties);
    const std::string good = out.str();

    const std::optional<BinaryDbInfo> info = probe_binary_db(good);
    ASSERT_TRUE(info.has_value()) << "intact blob must pass the probe";
    EXPECT_EQ(info->gates, nl.size());
    EXPECT_EQ(info->netlist_digest, netlist_digest(nl));
    EXPECT_EQ(info->relations, learned.db.size());
    EXPECT_EQ(info->ties, learned.ties.count());

    for (std::size_t cut = 0; cut < good.size(); ++cut) {
        const std::string torn = good.substr(0, cut);
        EXPECT_FALSE(probe_binary_db(torn).has_value()) << "cut at " << cut;
        std::istringstream in(torn);
        EXPECT_THROW((void)load_learned_binary(in, nl), std::runtime_error)
            << "cut at " << cut;
    }

    // Trailing garbage: the probe demands the sections tile the bytes
    // exactly (a store must not index a blob with unexplained bytes), and
    // the loader validates through the same walk.
    EXPECT_FALSE(probe_binary_db(good + "x").has_value());
    {
        std::istringstream in(good + "x");
        EXPECT_THROW((void)load_learned_binary(in, nl), std::runtime_error);
    }

    // Header bit flips across every *checked* field. Bytes 28..31 are the
    // reserved word, which loaders deliberately ignore for forward
    // compatibility — excluded here.
    for (std::size_t at = 0; at < 28; ++at) {
        std::string bad = good;
        bad[at] = static_cast<char>(bad[at] ^ 0x10);
        std::istringstream in(bad);
        EXPECT_THROW((void)load_learned_binary(in, nl), std::runtime_error)
            << "header byte " << at;
    }
}

// A finished learn keeps no growth slack in its adjacency lists: the result
// a Session holds (read in place, since a copy would be exact-sized anyway)
// holds exactly what the same DB loaded back from its binary save holds.
TEST(DbIo, LearnedDbHoldsExactlyWhatItsBinaryTwinHolds) {
    api::Session session(workload::suite_circuit("gen5378"));
    const Netlist& nl = session.netlist();
    const LearnResult& learned = session.learn();
    ASSERT_GT(learned.db.size(), 0u);
    std::stringstream blob;
    save_learned_binary(blob, nl, learned.db, learned.ties);
    const LoadedLearned twin = load_learned_binary(blob, nl);
    EXPECT_EQ(twin.db.size(), learned.db.size());
    EXPECT_EQ(learned.db.memory_bytes(), twin.db.memory_bytes());
}

TEST(DbIo, UnknownGateEntriesAreSkippedNotFatal) {
    const Netlist nl = testing::random_circuit(21, 6, 5, 30);
    std::istringstream in(
        "# seqlearn v1 other\n"
        "rel nosuch 1 i0 0 2\n"
        "tie alsomissing 0 1\n"
        "rel i0 1 f0 1 1\n");
    const LoadedLearned loaded = load_learned(in, nl);
    EXPECT_EQ(loaded.skipped_lines, 2u);
    EXPECT_EQ(loaded.db.size(), 1u);
}

TEST(DbIo, MalformedInputThrows) {
    const Netlist nl = testing::random_circuit(21, 6, 5, 30);
    for (const char* bad : {"rel i0 1 f0\n", "tie i0 2 0\n", "bogus line here\n"}) {
        std::istringstream in(bad);
        EXPECT_THROW((void)load_learned(in, nl), std::runtime_error) << bad;
    }
}

TEST(DbIo, SessionSaveLoadRoundTrip) {
    const Netlist nl = workload::suite_circuit("rt510a");

    api::Session writer(nl);
    std::ostringstream saved;
    writer.save_db(saved);  // learns on demand
    ASSERT_TRUE(writer.has_learned());
    ASSERT_FALSE(saved.str().empty());

    api::Session reader(nl);
    std::istringstream in(saved.str());
    EXPECT_EQ(reader.load_db(in), 0u);
    ASSERT_TRUE(reader.has_learned());
    EXPECT_EQ(canonical(reader.learn().db), canonical(writer.learn().db));
    EXPECT_EQ(reader.learn().ties.count(), writer.learn().ties.count());

    // A re-save through the facade is byte-identical too.
    std::ostringstream resaved;
    reader.save_db(resaved);
    EXPECT_EQ(saved.str(), resaved.str());

    // Loaded data drives a campaign exactly like freshly learned data.
    atpg::AtpgConfig cfg;
    cfg.mode = atpg::LearnMode::ForbiddenValue;
    cfg.backtrack_limit = 30;
    const auto& from_loaded = reader.atpg(cfg).list.counts();
    const auto& from_learned = writer.atpg(cfg).list.counts();
    EXPECT_EQ(from_loaded.detected, from_learned.detected);
    EXPECT_EQ(from_loaded.untestable, from_learned.untestable);
}

TEST(DbIo, SessionLoadDbBadPathThrows) {
    api::Session session(testing::random_circuit(3, 2, 2, 6));
    EXPECT_THROW(session.load_db("/nonexistent/path/db.learned"), std::runtime_error);
}

TEST(DbIo, SnapshotSaveLoadRoundTrip) {
    // db_io straight onto the shareable LearnedSnapshot: load a saved DB
    // back as a snapshot, byte-identical re-save.
    const Netlist nl = testing::random_circuit(55, 6, 5, 40);
    const LearnResult original = testing::learn(nl);
    ASSERT_GT(original.db.size(), 0u);

    std::ostringstream first;
    save_learned(first, nl, original.db, original.ties);

    std::istringstream in(first.str());
    const std::shared_ptr<const LearnedSnapshot> loaded = load_snapshot(in, nl);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(canonical(loaded->result().db), canonical(original.db));
    EXPECT_EQ(loaded->result().ties.count(), original.ties.count());

    std::ostringstream second;
    save_learned(second, nl, loaded->result().db, loaded->result().ties);
    EXPECT_EQ(first.str(), second.str());
}

// ---------------------------------------------------------------------------
// Corrupt-file corpus (tests/data/): a single diagnostics pass surfaces every
// problem with its line number, skips the bad lines, and keeps the good ones.

std::ifstream open_corpus(const char* name) {
    std::ifstream in(std::string(SEQLEARN_TEST_DATA_DIR) + "/" + name);
    EXPECT_TRUE(in.is_open()) << name;
    return in;
}

std::vector<std::uint32_t> lines_with(const netlist::Diagnostics& diags,
                                      netlist::Severity sev) {
    std::vector<std::uint32_t> out;
    for (const netlist::Diagnostic& d : diags.records())
        if (d.severity == sev) out.push_back(d.line);
    return out;
}

TEST(DbIoCorpus, MixedCorruptionIsFullyReportedInOnePass) {
    const Netlist nl = testing::random_circuit(21, 6, 5, 30);
    std::ifstream in = open_corpus("corrupt_learned_mixed.txt");
    netlist::Diagnostics diags;
    const LoadedLearned loaded = load_learned(in, nl, diags);

    // Every malformed line is an error at its exact line number; unknown-gate
    // entries are warnings; the scan never stops early.
    EXPECT_EQ(lines_with(diags, netlist::Severity::Error),
              (std::vector<std::uint32_t>{3, 4, 5, 8, 9, 10}));
    EXPECT_EQ(lines_with(diags, netlist::Severity::Warning),
              (std::vector<std::uint32_t>{6, 11}));
    EXPECT_EQ(loaded.skipped_lines, 2u);

    // The well-formed, known-gate entries survive.
    EXPECT_EQ(loaded.db.size(), 1u);
    const GateId f0 = nl.find("f0");
    ASSERT_NE(f0, netlist::kNoGate);
    EXPECT_TRUE(loaded.ties.is_tied(f0));
}

TEST(DbIoCorpus, LegacyWrapperThrowsTheFirstErrorWithItsLine) {
    const Netlist nl = testing::random_circuit(21, 6, 5, 30);
    std::ifstream in = open_corpus("corrupt_learned_mixed.txt");
    try {
        (void)load_learned(in, nl);
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("bad literal value"), std::string::npos) << msg;
        EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    }
}

TEST(DbIoCorpus, CheckpointWithoutCursorIsNotResumable) {
    const Netlist nl = testing::random_circuit(21, 6, 5, 30);
    std::ifstream in = open_corpus("corrupt_checkpoint_no_cursor.txt");
    netlist::Diagnostics diags;
    const LearnResult ckpt = load_checkpoint(in, nl, diags);
    EXPECT_FALSE(diags.ok());
    EXPECT_EQ(diags.error_count(), 1u);
    EXPECT_NE(diags.records()[0].message.find("missing cursor"), std::string::npos);
    EXPECT_FALSE(ckpt.cursor.valid);
}

TEST(DbIoCorpus, CheckpointVersionMismatchIsRejected) {
    const Netlist nl = testing::random_circuit(21, 6, 5, 30);
    std::ifstream in = open_corpus("corrupt_checkpoint_bad_version.txt");
    netlist::Diagnostics diags;
    const LearnResult ckpt = load_checkpoint(in, nl, diags);
    EXPECT_FALSE(diags.ok());
    EXPECT_FALSE(ckpt.cursor.valid);
    bool version_reported = false;
    for (const netlist::Diagnostic& d : diags.records())
        version_reported =
            version_reported || d.message.find("version") != std::string::npos;
    EXPECT_TRUE(version_reported);
}

TEST(DbIoCorpus, CheckpointForeignGatesAreErrorsNotSkips) {
    // For a plain learned DB unknown gates are warnings (mild netlist edits
    // keep a database usable); for a checkpoint they mean the file belongs to
    // a different circuit, and resuming must be refused.
    const Netlist nl = testing::random_circuit(21, 6, 5, 30);
    std::ifstream in = open_corpus("corrupt_checkpoint_foreign_gates.txt");
    netlist::Diagnostics diags;
    const LearnResult ckpt = load_checkpoint(in, nl, diags);
    EXPECT_EQ(lines_with(diags, netlist::Severity::Error),
              (std::vector<std::uint32_t>{5, 7}));
    EXPECT_EQ(diags.warning_count(), 0u);
    EXPECT_FALSE(ckpt.cursor.valid);
}

TEST(DbIoCorpus, StrictNumericParsingRejectsTrailingGarbage) {
    // The pre-governance loader used std::stoul, which turned "12x" into 12.
    const Netlist nl = testing::random_circuit(21, 6, 5, 30);
    std::istringstream in("rel i0 1 f0 1 12x\n");
    netlist::Diagnostics diags;
    const LoadedLearned loaded = load_learned(in, nl, diags);
    EXPECT_EQ(loaded.db.size(), 0u);
    ASSERT_EQ(diags.error_count(), 1u);
    EXPECT_NE(diags.records()[0].message.find("'12x'"), std::string::npos);
}

// Every one-line mutation of a text file: each line deleted, duplicated, or
// cut after each of its tokens.
std::vector<std::string> line_mutations(const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    const auto join = [&](std::size_t skip, std::size_t at, const std::string& insert) {
        std::string out;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (i == at) out += insert;
            if (i != skip) out += lines[i] + "\n";
        }
        return out;
    };
    std::vector<std::string> out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        out.push_back(join(i, lines.size(), ""));
        out.push_back(join(lines.size(), i, lines[i] + "\n"));
        for (std::size_t end = lines[i].find(' '); end != std::string::npos;
             end = lines[i].find(' ', end + 1))
            out.push_back(join(i, i, lines[i].substr(0, end) + "\n"));
    }
    return out;
}

// The seed of a fuzzer for the text formats: every line mutation of a saved
// DB and of a mid-pass checkpoint is a structured result. The collecting
// loaders return without throwing and the throwing wrappers throw nothing
// but std::runtime_error. A tie statement appended as a rel record is a
// line-numbered error in both formats.
TEST(DbIoCorpus, LineMutationsOfBothTextFormatsStayStructured) {
    const Netlist nl = testing::random_circuit(21, 6, 5, 30);
    const LearnResult full = testing::learn(nl);
    core::LearnConfig cfg;
    cfg.budget.max_items = 9;
    const LearnResult partial = testing::learn(nl, cfg);
    ASSERT_TRUE(partial.cursor.valid);
    ASSERT_GT(partial.db.size(), 0u);
    ASSERT_GT(partial.records.total_records(), 0u);
    std::ostringstream db_text;
    save_learned(db_text, nl, full.db, full.ties);
    std::ostringstream ckpt_text;
    save_checkpoint(ckpt_text, nl, partial);

    // `text` through the collecting loader into `diags`, then through the
    // throwing wrapper, which may throw only std::runtime_error.
    const auto load = [&](bool checkpoint, const std::string& text,
                          netlist::Diagnostics& diags) {
        std::istringstream in(text);
        std::istringstream again(text);
        if (checkpoint) {
            (void)load_checkpoint(in, nl, diags);
        } else {
            (void)load_learned(in, nl, diags);
        }
        try {
            if (checkpoint) {
                (void)load_checkpoint(again, nl);
            } else {
                (void)load_learned(again, nl);
            }
        } catch (const std::runtime_error&) {
        }
    };
    const std::string g(nl.name_of(0));
    const std::string tie_as_rel = "rel " + g + " 1 " + g + " 0 0\n";
    for (const bool checkpoint : {false, true}) {
        const std::string saved = checkpoint ? ckpt_text.str() : db_text.str();
        for (const std::string& text : line_mutations(saved)) {
            netlist::Diagnostics diags;
            EXPECT_NO_THROW(load(checkpoint, text, diags)) << text;
        }
        const auto appended_line =
            static_cast<std::uint32_t>(std::count(saved.begin(), saved.end(), '\n') + 1);
        netlist::Diagnostics diags;
        EXPECT_NO_THROW(load(checkpoint, saved + tie_as_rel, diags));
        EXPECT_EQ(lines_with(diags, netlist::Severity::Error),
                  std::vector<std::uint32_t>{appended_line})
            << (checkpoint ? "checkpoint" : "DB");
    }
}

TEST(DbIoCorpus, CheckpointRoundTripPreservesEveryField) {
    const Netlist nl = testing::random_circuit(21, 6, 5, 30);
    core::LearnConfig cfg;
    cfg.budget.max_items = 9;
    const LearnResult ckpt = testing::learn(nl, cfg);
    ASSERT_TRUE(ckpt.cursor.valid);
    EXPECT_EQ(ckpt.cursor.circuit, nl.name());

    std::stringstream ss;
    save_checkpoint(ss, nl, ckpt);
    netlist::Diagnostics diags;
    const LearnResult loaded = load_checkpoint(ss, nl, diags);
    EXPECT_TRUE(diags.ok()) << diags.to_string("checkpoint");

    EXPECT_EQ(loaded.cursor.circuit, nl.name());
    EXPECT_EQ(loaded.cursor.class_index, ckpt.cursor.class_index);
    EXPECT_EQ(loaded.cursor.in_multi, ckpt.cursor.in_multi);
    EXPECT_EQ(loaded.cursor.unit, ckpt.cursor.unit);
    EXPECT_EQ(loaded.cursor.config_digest, ckpt.cursor.config_digest);
    EXPECT_EQ(loaded.stats.stems_processed, ckpt.stats.stems_processed);
    EXPECT_EQ(loaded.stats.multi_targets, ckpt.stats.multi_targets);
    EXPECT_EQ(loaded.stats.multi_relations, ckpt.stats.multi_relations);
    EXPECT_EQ(loaded.stats.multi_ties, ckpt.stats.multi_ties);
    EXPECT_EQ(canonical(loaded.db), canonical(ckpt.db));
    EXPECT_EQ(loaded.ties.count(), ckpt.ties.count());
    EXPECT_EQ(loaded.records.cap(), ckpt.records.cap());
    EXPECT_EQ(loaded.records.total_records(), ckpt.records.total_records());
    // Per-key record vectors byte-identical (order matters for the resumed
    // multiple-node pass).
    for (const Literal key : ckpt.records.targets(1)) {
        const auto want = ckpt.records.records_for(key);
        const auto got = loaded.records.records_for(key);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].stem.gate, want[i].stem.gate);
            EXPECT_EQ(got[i].stem.value, want[i].stem.value);
            EXPECT_EQ(got[i].offset, want[i].offset);
        }
    }

    // A re-save of the loaded checkpoint is byte-identical.
    std::stringstream again;
    save_checkpoint(again, nl, loaded);
    EXPECT_EQ(ss.str(), again.str());
}

}  // namespace
}  // namespace seqlearn::core
