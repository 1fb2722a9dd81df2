#include "core/db_io.hpp"

#include "util/strings.hpp"

#include <bit>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace seqlearn::core {

using netlist::Diagnostics;
using netlist::GateId;
using netlist::Netlist;

namespace {

// Strict full-token numeric parsing: the whole token must be digits (the
// std::stoul the loaders used before silently accepted trailing garbage,
// turning a corrupt "12x" frame into frame 12).
template <typename T>
bool parse_uint(std::string_view tok, T& out) {
    const char* first = tok.data();
    const char* last = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(first, last, out);
    return ec == std::errc() && ptr == last && !tok.empty();
}

bool parse_value(std::string_view tok, Val3& out) {
    if (tok == "0") {
        out = Val3::Zero;
        return true;
    }
    if (tok == "1") {
        out = Val3::One;
        return true;
    }
    return false;
}

std::string quoted(std::string_view tok) { return "'" + std::string(tok) + "'"; }

void write_relations_and_ties(std::ostream& out, const Netlist& nl,
                              const ImplicationDB& db, const TieSet& ties) {
    for (const Relation& r : db.relations()) {
        out << "rel " << nl.name_of(r.lhs.gate) << ' '
            << (r.lhs.value == Val3::One ? 1 : 0) << ' ' << nl.name_of(r.rhs.gate) << ' '
            << (r.rhs.value == Val3::One ? 1 : 0) << ' ' << r.frame << "\n";
    }
    for (const GateId g : ties.tied_gates()) {
        out << "tie " << nl.name_of(g) << ' ' << (ties.value(g) == Val3::One ? 1 : 0)
            << ' ' << ties.cycle(g) << "\n";
    }
}

[[noreturn]] void throw_first_error(const char* who, const Diagnostics& diags) {
    const netlist::Diagnostic* e = diags.first_error();
    std::string msg = std::string(who) + ": " + e->message;
    if (e->line != 0) msg += " at line " + std::to_string(e->line);
    throw std::runtime_error(msg);
}

}  // namespace

void save_learned(std::ostream& out, const Netlist& nl, const ImplicationDB& db,
                  const TieSet& ties) {
    out << "# seqlearn v1 " << nl.name() << "\n";
    write_relations_and_ties(out, nl, db, ties);
}

std::shared_ptr<const LearnedSnapshot> load_snapshot(std::istream& in, const Netlist& nl) {
    LoadedLearned loaded = load_learned_any(in, nl);
    LearnResult result(nl.size());
    result.db = std::move(loaded.db);
    result.ties = std::move(loaded.ties);
    return freeze_learned(std::move(result));
}

LoadedLearned load_learned(std::istream& in, const Netlist& nl, Diagnostics& diags) {
    LoadedLearned out(nl.size());
    std::string raw;
    std::uint32_t line_no = 0;
    // Parsed relations are collected and bulk-inserted once at the end:
    // add_batch() sorts each adjacency list a single time instead of doing
    // a sorted insert per line, which matters on large snapshots.
    std::vector<Relation> rels;
    while (std::getline(in, raw)) {
        ++line_no;
        const std::string_view line = util::trim(raw);
        if (line.empty() || line[0] == '#') continue;
        const auto tok = util::split(line, " \t");
        if (tok[0] == "rel") {
            if (tok.size() != 6) {
                diags.error(line_no,
                            "malformed rel record (want: rel <lhs> <0|1> <rhs> <0|1> <frame>)");
                continue;
            }
            Val3 av{};
            Val3 bv{};
            std::uint32_t frame = 0;
            if (!parse_value(tok[2], av) || !parse_value(tok[4], bv)) {
                diags.error(line_no, "bad literal value (want 0 or 1)");
                continue;
            }
            if (!parse_uint(tok[5], frame)) {
                diags.error(line_no, "bad frame number " + quoted(tok[5]));
                continue;
            }
            const GateId a = nl.find(tok[1]);
            const GateId b = nl.find(tok[3]);
            if (a == netlist::kNoGate || b == netlist::kNoGate) {
                diags.warning(line_no,
                              "unknown gate " + quoted(a == netlist::kNoGate ? tok[1] : tok[3]) +
                                  "; entry skipped");
                ++out.skipped_lines;
                continue;
            }
            if (a == b && av != bv) {
                diags.error(line_no, "tie statement in rel record (a => !a); use tie");
                continue;
            }
            rels.push_back({{a, av}, {b, bv}, frame});
        } else if (tok[0] == "tie") {
            if (tok.size() != 4) {
                diags.error(line_no, "malformed tie record (want: tie <gate> <0|1> <cycle>)");
                continue;
            }
            Val3 v{};
            std::uint32_t cycle = 0;
            if (!parse_value(tok[2], v)) {
                diags.error(line_no, "bad tie value (want 0 or 1)");
                continue;
            }
            if (!parse_uint(tok[3], cycle)) {
                diags.error(line_no, "bad tie cycle " + quoted(tok[3]));
                continue;
            }
            const GateId g = nl.find(tok[1]);
            if (g == netlist::kNoGate) {
                diags.warning(line_no, "unknown gate " + quoted(tok[1]) + "; entry skipped");
                ++out.skipped_lines;
                continue;
            }
            try {
                out.ties.set(g, v, cycle);
            } catch (const std::logic_error&) {
                diags.error(line_no,
                            "contradictory tie (gate " + quoted(tok[1]) +
                                " already tied to the opposite value)");
            }
        } else {
            diags.error(line_no, "unknown record type " + quoted(tok[0]));
        }
    }
    out.db.add_batch(rels);
    return out;
}

LoadedLearned load_learned(std::istream& in, const Netlist& nl) {
    Diagnostics diags;
    LoadedLearned out = load_learned(in, nl, diags);
    if (!diags.ok()) throw_first_error("load_learned", diags);
    return out;
}

void save_checkpoint(std::ostream& out, const Netlist& nl, const LearnResult& partial) {
    const LearnCursor& cursor = partial.cursor;
    if (!cursor.valid)
        throw std::logic_error("save_checkpoint: learn result has no resume cursor");
    const LearnStats& st = partial.stats;
    out << "# seqlearn-checkpoint v1 "
        << (cursor.circuit.empty() ? nl.name() : cursor.circuit) << "\n";
    out << "cursor " << cursor.class_index << ' ' << (cursor.in_multi ? "multi" : "single")
        << ' ' << cursor.unit << ' ' << cursor.config_digest << "\n";
    out << "progress " << st.stems_processed << ' ' << st.multi_targets << ' '
        << st.multi_relations << ' ' << st.multi_ties << "\n";
    out << "cap " << partial.records.cap() << "\n";
    write_relations_and_ties(out, nl, partial.db, partial.ties);
    // Stem records in deterministic key order; per-key record order is the
    // insertion order, which the loader reproduces by re-adding in file
    // order — a resumed multi pass sees byte-identical record vectors.
    for (const Literal key : partial.records.targets(1)) {
        for (const StemRecord& r : partial.records.records_for(key)) {
            out << "rec " << nl.name_of(key.gate) << ' '
                << (key.value == Val3::One ? 1 : 0) << ' ' << nl.name_of(r.stem.gate)
                << ' ' << (r.stem.value == Val3::One ? 1 : 0) << ' ' << r.offset << "\n";
        }
    }
}

LearnResult load_checkpoint(std::istream& in, const Netlist& nl, Diagnostics& diags) {
    LearnResult ckpt(nl.size());
    bool have_header = false;
    bool have_cursor = false;
    bool have_cap = false;
    std::string raw;
    std::uint32_t line_no = 0;

    // Checkpoints must round-trip exactly: a gate name the netlist does not
    // know means the file belongs to a different circuit, which is an error
    // here (resuming against it would silently diverge from the goldens).
    auto find_gate = [&](std::string_view name, GateId& g) {
        g = nl.find(name);
        if (g == netlist::kNoGate) {
            diags.error(line_no, "unknown gate " + quoted(name));
            return false;
        }
        return true;
    };

    while (std::getline(in, raw)) {
        ++line_no;
        const std::string_view line = util::trim(raw);
        if (line.empty()) continue;
        if (line[0] == '#') {
            if (!have_header && util::starts_with(line, "# seqlearn-checkpoint")) {
                const auto tok = util::split(line, " \t");
                if (tok.size() < 3 || tok[2] != "v1") {
                    diags.error(line_no, "unsupported checkpoint version");
                    continue;
                }
                if (tok.size() >= 4) ckpt.cursor.circuit = std::string(tok[3]);
                have_header = true;
            }
            continue;
        }
        const auto tok = util::split(line, " \t");
        if (tok[0] == "cursor") {
            std::uint64_t ci = 0;
            std::uint64_t unit = 0;
            std::uint64_t digest = 0;
            if (tok.size() != 5 || (tok[2] != "single" && tok[2] != "multi") ||
                !parse_uint(tok[1], ci) || !parse_uint(tok[3], unit) ||
                !parse_uint(tok[4], digest)) {
                diags.error(line_no,
                            "malformed cursor record (want: cursor <class> "
                            "<single|multi> <unit> <digest>)");
                continue;
            }
            ckpt.cursor.valid = true;
            ckpt.cursor.class_index = static_cast<std::size_t>(ci);
            ckpt.cursor.in_multi = tok[2] == "multi";
            ckpt.cursor.unit = static_cast<std::size_t>(unit);
            ckpt.cursor.config_digest = digest;
            have_cursor = true;
        } else if (tok[0] == "progress") {
            std::uint64_t v[4] = {};
            if (tok.size() != 5 || !parse_uint(tok[1], v[0]) || !parse_uint(tok[2], v[1]) ||
                !parse_uint(tok[3], v[2]) || !parse_uint(tok[4], v[3])) {
                diags.error(line_no, "malformed progress record");
                continue;
            }
            ckpt.stats.stems_processed = static_cast<std::size_t>(v[0]);
            ckpt.stats.multi_targets = static_cast<std::size_t>(v[1]);
            ckpt.stats.multi_relations = static_cast<std::size_t>(v[2]);
            ckpt.stats.multi_ties = static_cast<std::size_t>(v[3]);
        } else if (tok[0] == "cap") {
            std::uint64_t cap = 0;
            if (tok.size() != 2 || !parse_uint(tok[1], cap)) {
                diags.error(line_no, "malformed cap record");
                continue;
            }
            ckpt.records = StemRecords(static_cast<std::size_t>(cap));
            have_cap = true;
        } else if (tok[0] == "rel") {
            Val3 av{};
            Val3 bv{};
            std::uint32_t frame = 0;
            GateId a = netlist::kNoGate;
            GateId b = netlist::kNoGate;
            if (tok.size() != 6 || !parse_value(tok[2], av) || !parse_value(tok[4], bv) ||
                !parse_uint(tok[5], frame)) {
                diags.error(line_no, "malformed rel record");
                continue;
            }
            if (!find_gate(tok[1], a) || !find_gate(tok[3], b)) continue;
            ckpt.db.add({a, av}, {b, bv}, frame);
        } else if (tok[0] == "tie") {
            Val3 v{};
            std::uint32_t cycle = 0;
            GateId g = netlist::kNoGate;
            if (tok.size() != 4 || !parse_value(tok[2], v) || !parse_uint(tok[3], cycle)) {
                diags.error(line_no, "malformed tie record");
                continue;
            }
            if (!find_gate(tok[1], g)) continue;
            try {
                ckpt.ties.set(g, v, cycle);
            } catch (const std::logic_error&) {
                diags.error(line_no, "contradictory tie for gate " + quoted(tok[1]));
            }
        } else if (tok[0] == "rec") {
            Val3 nv{};
            Val3 sv{};
            std::uint32_t offset = 0;
            GateId node = netlist::kNoGate;
            GateId stem = netlist::kNoGate;
            if (tok.size() != 6 || !parse_value(tok[2], nv) || !parse_value(tok[4], sv) ||
                !parse_uint(tok[5], offset)) {
                diags.error(line_no,
                            "malformed rec record (want: rec <node> <0|1> <stem> <0|1> "
                            "<offset>)");
                continue;
            }
            if (!have_cap) {
                diags.error(line_no, "rec record before cap record");
                continue;
            }
            if (!find_gate(tok[1], node) || !find_gate(tok[3], stem)) continue;
            ckpt.records.add({node, nv}, {stem, sv}, offset);
        } else {
            diags.error(line_no, "unknown record type " + quoted(tok[0]));
        }
    }
    if (!have_header) diags.error(0, "missing '# seqlearn-checkpoint v1' header");
    if (!have_cursor) diags.error(0, "missing cursor record");
    // An erroneous checkpoint must not look resumable.
    if (!diags.ok()) ckpt.cursor.valid = false;
    return ckpt;
}

LearnResult load_checkpoint(std::istream& in, const Netlist& nl) {
    Diagnostics diags;
    LearnResult ckpt = load_checkpoint(in, nl, diags);
    if (!diags.ok()) throw_first_error("load_checkpoint", diags);
    return ckpt;
}

// --- binary snapshot format (v2) -------------------------------------------

namespace {

constexpr char kBinaryMagic[8] = {'S', 'E', 'Q', 'L', 'N', 'D', 'B', '2'};
constexpr std::uint32_t kBinaryVersion = 2;
constexpr std::uint32_t kBinaryHeaderBytes = 32;

// Explicit little-endian encoding, independent of host byte order: a file
// written on one machine loads on any other.
void put_u32(std::string& buf, std::uint32_t v) {
    buf.push_back(static_cast<char>(v & 0xff));
    buf.push_back(static_cast<char>((v >> 8) & 0xff));
    buf.push_back(static_cast<char>((v >> 16) & 0xff));
    buf.push_back(static_cast<char>((v >> 24) & 0xff));
}

void put_u64(std::string& buf, std::uint64_t v) {
    put_u32(buf, static_cast<std::uint32_t>(v & 0xffffffffULL));
    put_u32(buf, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const unsigned char* p) {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
    return static_cast<std::uint64_t>(get_u32(p)) |
           (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

[[noreturn]] void binary_error(const std::string& what) {
    throw std::runtime_error("load_learned_binary: " + what);
}

void read_exact(std::istream& in, void* dst, std::size_t n, const char* what) {
    in.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in.gcount()) != n)
        binary_error(std::string("truncated file (") + what + ")");
}

std::uint32_t checked_lit_key(Literal l) {
    const std::uint64_t key = lit_key(l);
    if (key > 0xffffffffULL)
        throw std::invalid_argument("save_learned_binary: literal key exceeds 32 bits");
    return static_cast<std::uint32_t>(key);
}

}  // namespace

std::uint64_t netlist_digest(const Netlist& nl) {
    // The digest is recomputed on every binary snapshot load, so it has to
    // be cheap on large circuits. Two things make it so: names are mixed a
    // word at a time rather than per byte (length first, so "ab"+"c" and
    // "a"+"bc" stay distinct), and gates feed four independent FNV lanes —
    // a single lane is a serial multiply chain whose latency, not the data
    // volume, bounds the whole computation.
    std::uint64_t lanes[4] = {1469598103934665603ULL, 15601891126605076235ULL,
                              5575097247067471337ULL, 10003595204564453689ULL};
    std::uint64_t* h = lanes;
    const auto mix = [&h](std::uint64_t x) {
        *h ^= x;
        *h *= 1099511628211ULL;
    };
    const auto mix_word = [&](const char* p, std::size_t n) {
        std::uint64_t w = 0;
        if (n == 8) {
            std::memcpy(&w, p, 8);
            if constexpr (std::endian::native == std::endian::big)
                w = __builtin_bswap64(w);
        } else {
            for (std::size_t j = 0; j < n; ++j)
                w |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[j]))
                     << (8 * j);
        }
        mix(w);
    };
    const auto mix_bytes = [&](std::string_view s) {
        mix(s.size());
        std::size_t i = 0;
        for (; i + 8 <= s.size(); i += 8) mix_word(s.data() + i, 8);
        if (i < s.size()) mix_word(s.data() + i, s.size() - i);
    };
    mix(nl.size());
    for (GateId g = 0; g < nl.size(); ++g) {
        h = &lanes[g & 3];
        mix_bytes(nl.name_of(g));
        mix(static_cast<std::uint64_t>(nl.type(g)));
        for (const GateId f : nl.fanins(g)) mix(f);
    }
    std::uint64_t out = lanes[0];
    for (int i = 1; i < 4; ++i) {
        out ^= lanes[i];
        out *= 1099511628211ULL;
    }
    return out;
}

void save_learned_binary(std::ostream& out, const Netlist& nl, const ImplicationDB& db,
                         const TieSet& ties) {
    std::string buf;
    buf.append(kBinaryMagic, sizeof kBinaryMagic);
    put_u32(buf, kBinaryVersion);
    put_u32(buf, kBinaryHeaderBytes);
    put_u64(buf, netlist_digest(nl));
    put_u32(buf, static_cast<std::uint32_t>(nl.size()));
    put_u32(buf, 0);  // reserved

    // The adjacency is written verbatim, both directions of every relation,
    // each list in its in-memory (sorted) order: the loader then installs
    // lists by straight copy instead of re-deriving contrapositives and
    // re-sorting. See the format comment in db_io.hpp.
    std::uint64_t list_count = 0;
    std::uint64_t edge_count = 0;
    const std::uint64_t num_keys = nl.size() * 2;
    for (std::uint64_t key = 0; key < num_keys; ++key) {
        const std::size_t n = db.edges_of(lit_from_key(key)).size();
        if (n > 0) {
            ++list_count;
            edge_count += n;
        }
    }
    buf.reserve(buf.size() + 16 + list_count * 8 + edge_count * 8);
    put_u64(buf, list_count);
    put_u64(buf, edge_count);
    for (std::uint64_t key = 0; key < num_keys; ++key) {
        const Literal lhs = lit_from_key(key);
        const std::span<const ImplicationDB::Edge> edges = db.edges_of(lhs);
        if (edges.empty()) continue;
        put_u32(buf, checked_lit_key(lhs));
        put_u32(buf, static_cast<std::uint32_t>(edges.size()));
        for (const ImplicationDB::Edge& e : edges) {
            put_u32(buf, checked_lit_key(e.to));
            put_u32(buf, e.frame);
        }
    }
    const std::vector<GateId> tied = ties.tied_gates();
    buf.reserve(buf.size() + tied.size() * 12);
    put_u64(buf, tied.size());
    for (const GateId g : tied) {
        put_u32(buf, g);
        put_u32(buf, ties.value(g) == Val3::One ? 1u : 0u);
        put_u32(buf, ties.cycle(g));
    }
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

bool is_binary_db(std::istream& in) {
    const std::istream::pos_type pos = in.tellg();
    char magic[sizeof kBinaryMagic] = {};
    in.read(magic, sizeof magic);
    const bool got_all = in.gcount() == static_cast<std::streamsize>(sizeof magic);
    in.clear();  // a short text file legitimately hits EOF here
    in.seekg(pos);
    return got_all && std::memcmp(magic, kBinaryMagic, sizeof magic) == 0;
}

LoadedLearned load_learned_binary(std::istream& in, const Netlist& nl) {
    unsigned char header[kBinaryHeaderBytes];
    read_exact(in, header, sizeof header, "header");
    if (std::memcmp(header, kBinaryMagic, sizeof kBinaryMagic) != 0)
        binary_error("bad magic (not a seqlearn binary DB)");
    const std::uint32_t version = get_u32(header + 8);
    if (version != kBinaryVersion)
        binary_error("unsupported version " + std::to_string(version));
    const std::uint32_t header_bytes = get_u32(header + 12);
    if (header_bytes < kBinaryHeaderBytes)
        binary_error("header too small");
    if (header_bytes > kBinaryHeaderBytes) {
        // Forward-compatible skip of any future header extension.
        in.ignore(header_bytes - kBinaryHeaderBytes);
        if (!in) binary_error("truncated extended header");
    }
    const std::uint64_t digest = get_u64(header + 16);
    const std::uint32_t gates = get_u32(header + 24);
    if (gates != nl.size())
        binary_error("gate count mismatch (file " + std::to_string(gates) + ", netlist " +
                     std::to_string(nl.size()) + ")");
    const std::uint64_t want_digest = netlist_digest(nl);
    if (digest != want_digest)
        binary_error("netlist digest mismatch (file was saved from a different circuit)");

    LoadedLearned out(nl.size());
    unsigned char count_buf[16];
    read_exact(in, count_buf, 16, "adjacency section header");
    const std::uint64_t list_count = get_u64(count_buf);
    const std::uint64_t edge_count = get_u64(count_buf + 8);
    // Each section is one bulk read; decoding then runs over memory. A
    // per-record istream::read would pay the stream's per-call overhead
    // once per edge — that alone erased most of the binary format's
    // speed advantage over the text parser.
    constexpr std::uint64_t kSaneRecords = 1ULL << 32;
    if (edge_count > kSaneRecords) binary_error("implausible edge count");
    if (list_count > nl.size() * 2 || list_count > edge_count)
        binary_error("implausible adjacency list count");
    std::vector<unsigned char> recs(
        static_cast<std::size_t>(list_count * 8 + edge_count * 8));
    read_exact(in, recs.data(), recs.size(), "adjacency lists");
    // Lists land pre-sorted and pre-deduped; each decodes into an
    // exact-sized vector that set_edges() moves into place. set_edges + the
    // final seal() re-verify every structural invariant, so a corrupt or
    // hand-forged file is rejected, not ingested.
    const unsigned char* p = recs.data();
    std::uint64_t prev_key = 0;
    std::uint64_t edges_seen = 0;
    for (std::uint64_t i = 0; i < list_count; ++i) {
        const std::uint64_t key = get_u32(p);
        const std::uint64_t count = get_u32(p + 4);
        p += 8;
        if (i > 0 && key <= prev_key) binary_error("adjacency keys out of order");
        prev_key = key;
        if (key >= nl.size() * 2) binary_error("adjacency key beyond the netlist");
        if (count == 0) binary_error("empty adjacency list stored");
        if (count > edge_count - edges_seen) binary_error("edge count overflow");
        edges_seen += count;
        std::vector<ImplicationDB::Edge> list;
        list.reserve(static_cast<std::size_t>(count));
        // Target range and ordering are set_edges()'s job — no need to
        // duplicate the per-edge checks here.
        for (std::uint64_t c = 0; c < count; ++c) {
            list.push_back({lit_from_key(get_u32(p)), get_u32(p + 4)});
            p += 8;
        }
        try {
            out.db.set_edges(lit_from_key(key), std::move(list));
        } catch (const std::invalid_argument& e) {
            binary_error(e.what());
        }
    }
    if (edges_seen != edge_count) binary_error("edge count mismatch");
    try {
        out.db.seal();
    } catch (const std::invalid_argument& e) {
        binary_error(e.what());
    }
    read_exact(in, count_buf, 8, "tie count");
    const std::uint64_t tie_count = get_u64(count_buf);
    if (tie_count > kSaneRecords) binary_error("implausible tie count");
    recs.resize(static_cast<std::size_t>(tie_count) * 12);
    read_exact(in, recs.data(), recs.size(), "tie records");
    for (std::uint64_t i = 0; i < tie_count; ++i) {
        const unsigned char* rec = recs.data() + i * 12;
        const std::uint32_t gate = get_u32(rec);
        const std::uint32_t value = get_u32(rec + 4);
        const std::uint32_t cycle = get_u32(rec + 8);
        if (gate >= nl.size()) binary_error("tie names gate beyond the netlist");
        if (value > 1) binary_error("tie value out of range");
        out.ties.set(gate, value == 1 ? Val3::One : Val3::Zero, cycle);
    }
    return out;
}

LoadedLearned load_learned_any(std::istream& in, const Netlist& nl) {
    if (is_binary_db(in)) return load_learned_binary(in, nl);
    return load_learned(in, nl);
}

std::optional<BinaryDbInfo> probe_binary_db(std::string_view bytes) {
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
    std::size_t remaining = bytes.size();
    const auto take = [&](std::size_t n) -> const unsigned char* {
        if (remaining < n) return nullptr;
        const unsigned char* at = p;
        p += n;
        remaining -= n;
        return at;
    };

    const unsigned char* header = take(kBinaryHeaderBytes);
    if (header == nullptr) return std::nullopt;
    if (std::memcmp(header, kBinaryMagic, sizeof kBinaryMagic) != 0) return std::nullopt;
    if (get_u32(header + 8) != kBinaryVersion) return std::nullopt;
    const std::uint32_t header_bytes = get_u32(header + 12);
    if (header_bytes < kBinaryHeaderBytes) return std::nullopt;
    if (take(header_bytes - kBinaryHeaderBytes) == nullptr) return std::nullopt;

    BinaryDbInfo info;
    info.netlist_digest = get_u64(header + 16);
    info.gates = get_u32(header + 24);

    // Walk every section and require the counts to tile the byte range
    // exactly: any truncation — at a section boundary or inside one — and
    // any appended garbage fails here, before anything trusts the blob.
    const unsigned char* counts = take(16);
    if (counts == nullptr) return std::nullopt;
    const std::uint64_t list_count = get_u64(counts);
    const std::uint64_t edge_count = get_u64(counts + 8);
    if (edge_count % 2 != 0) return std::nullopt;  // closure stores both directions
    std::uint64_t edges_seen = 0;
    std::uint64_t prev_key = 0;
    for (std::uint64_t i = 0; i < list_count; ++i) {
        const unsigned char* list = take(8);
        if (list == nullptr) return std::nullopt;
        const std::uint64_t key = get_u32(list);
        const std::uint64_t count = get_u32(list + 4);
        if (i > 0 && key <= prev_key) return std::nullopt;
        prev_key = key;
        if (key >= std::uint64_t{info.gates} * 2) return std::nullopt;
        if (count == 0 || count > edge_count - edges_seen) return std::nullopt;
        edges_seen += count;
        if (take(count * 8) == nullptr) return std::nullopt;
    }
    if (edges_seen != edge_count) return std::nullopt;
    const unsigned char* tie_header = take(8);
    if (tie_header == nullptr) return std::nullopt;
    const std::uint64_t tie_count = get_u64(tie_header);
    if (take(tie_count * 12) == nullptr) return std::nullopt;
    if (remaining != 0) return std::nullopt;  // trailing garbage

    info.relations = edge_count / 2;
    info.ties = tie_count;
    return info;
}

}  // namespace seqlearn::core
