#include "core/db_io.hpp"

#include "util/bytes.hpp"
#include "util/strings.hpp"

#include <algorithm>
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

// The one reader of both text formats. A learned DB (`ckpt` null) holds rel
// and tie records; a checkpoint also holds its header and the cursor,
// progress, cap and rec records, which fill *ckpt (whose own DB and ties
// are `db` and `ties`). Every problem is reported with its line number and
// the line skipped, so one pass surfaces them all. An unknown gate name is
// a warning in a DB, its entry skipped and counted in the return value (a
// database stays usable across mild netlist edits), and an error in a
// checkpoint (resuming against a different circuit would silently
// diverge). Relations are collected and inserted with one add_batch, which
// sorts each adjacency list once instead of a sorted insert per line.
std::size_t read_text(std::istream& in, const Netlist& nl, Diagnostics& diags,
                      ImplicationDB& db, TieSet& ties, LearnResult* ckpt) {
    std::size_t skipped = 0;
    bool have_header = false;
    bool have_cursor = false;
    bool have_cap = false;
    std::vector<Relation> rels;
    std::string raw;
    std::uint32_t line_no = 0;

    const auto find_gate = [&](std::string_view name, GateId& g) {
        g = nl.find(name);
        if (g != netlist::kNoGate) return true;
        if (ckpt != nullptr) {
            diags.error(line_no, "unknown gate " + quoted(name));
        } else {
            diags.warning(line_no, "unknown gate " + quoted(name) + "; entry skipped");
            ++skipped;
        }
        return false;
    };
    // The fields of a rel or rec record: <gate> <0|1> <gate> <0|1> <number>.
    const auto literal_pair = [&](const std::vector<std::string_view>& tok, const char* usage,
                                  const char* number, Literal& a, Literal& b,
                                  std::uint32_t& n) {
        if (tok.size() != 6) {
            diags.error(line_no, usage);
            return false;
        }
        if (!parse_value(tok[2], a.value) || !parse_value(tok[4], b.value)) {
            diags.error(line_no, "bad literal value (want 0 or 1)");
            return false;
        }
        if (!parse_uint(tok[5], n)) {
            diags.error(line_no, std::string("bad ") + number + ' ' + quoted(tok[5]));
            return false;
        }
        return find_gate(tok[1], a.gate) && find_gate(tok[3], b.gate);
    };

    while (std::getline(in, raw)) {
        ++line_no;
        const std::string_view line = util::trim(raw);
        if (line.empty()) continue;
        const auto tok = util::split(line, " \t");
        if (line[0] == '#') {
            // A checkpoint's first "# seqlearn-checkpoint" line is its
            // header; every other '#' line is a comment.
            if (ckpt == nullptr || have_header ||
                !util::starts_with(line, "# seqlearn-checkpoint"))
                continue;
            if (tok.size() < 3 || tok[2] != "v1") {
                diags.error(line_no, "unsupported checkpoint version");
                continue;
            }
            if (tok.size() >= 4) ckpt->cursor.circuit = std::string(tok[3]);
            have_header = true;
            continue;
        }
        const std::string_view kind = tok[0];
        if (kind == "rel") {
            Literal a;
            Literal b;
            std::uint32_t frame = 0;
            if (!literal_pair(tok,
                              "malformed rel record (want: rel <lhs> <0|1> <rhs> <0|1> "
                              "<frame>)",
                              "frame number", a, b, frame))
                continue;
            if (a.gate == b.gate && a.value != b.value) {
                diags.error(line_no, "tie statement in rel record (a => !a); use tie");
                continue;
            }
            rels.push_back({a, b, frame});
        } else if (kind == "tie") {
            if (tok.size() != 4) {
                diags.error(line_no, "malformed tie record (want: tie <gate> <0|1> <cycle>)");
                continue;
            }
            Val3 v{};
            std::uint32_t cycle = 0;
            GateId g = netlist::kNoGate;
            if (!parse_value(tok[2], v)) {
                diags.error(line_no, "bad tie value (want 0 or 1)");
                continue;
            }
            if (!parse_uint(tok[3], cycle)) {
                diags.error(line_no, "bad tie cycle " + quoted(tok[3]));
                continue;
            }
            if (!find_gate(tok[1], g)) continue;
            try {
                ties.set(g, v, cycle);
            } catch (const std::logic_error&) {
                diags.error(line_no, "contradictory tie (gate " + quoted(tok[1]) +
                                         " already tied to the opposite value)");
            }
        } else if (ckpt != nullptr && kind == "cursor") {
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
            ckpt->cursor.valid = true;
            ckpt->cursor.class_index = static_cast<std::size_t>(ci);
            ckpt->cursor.in_multi = tok[2] == "multi";
            ckpt->cursor.unit = static_cast<std::size_t>(unit);
            ckpt->cursor.config_digest = digest;
            have_cursor = true;
        } else if (ckpt != nullptr && kind == "progress") {
            std::uint64_t v[4] = {};
            if (tok.size() != 5 || !parse_uint(tok[1], v[0]) || !parse_uint(tok[2], v[1]) ||
                !parse_uint(tok[3], v[2]) || !parse_uint(tok[4], v[3])) {
                diags.error(line_no, "malformed progress record");
                continue;
            }
            ckpt->stats.stems_processed = static_cast<std::size_t>(v[0]);
            ckpt->stats.multi_targets = static_cast<std::size_t>(v[1]);
            ckpt->stats.multi_relations = static_cast<std::size_t>(v[2]);
            ckpt->stats.multi_ties = static_cast<std::size_t>(v[3]);
        } else if (ckpt != nullptr && kind == "cap") {
            std::uint64_t cap = 0;
            if (tok.size() != 2 || !parse_uint(tok[1], cap)) {
                diags.error(line_no, "malformed cap record");
                continue;
            }
            ckpt->records = StemRecords(static_cast<std::size_t>(cap));
            have_cap = true;
        } else if (ckpt != nullptr && kind == "rec") {
            if (!have_cap) {
                diags.error(line_no, "rec record before cap record");
                continue;
            }
            Literal node;
            Literal stem;
            std::uint32_t offset = 0;
            if (literal_pair(tok,
                             "malformed rec record (want: rec <node> <0|1> <stem> <0|1> "
                             "<offset>)",
                             "offset", node, stem, offset))
                ckpt->records.add(node, stem, offset);
        } else {
            diags.error(line_no, "unknown record type " + quoted(kind));
        }
    }
    db.add_batch(rels);
    if (ckpt != nullptr) {
        if (!have_header) diags.error(0, "missing '# seqlearn-checkpoint v1' header");
        if (!have_cursor) diags.error(0, "missing cursor record");
        // An erroneous checkpoint must not look resumable.
        if (!diags.ok()) ckpt->cursor.valid = false;
    }
    return skipped;
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
    out.skipped_lines = read_text(in, nl, diags, out.db, out.ties, nullptr);
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
    read_text(in, nl, diags, ckpt.db, ckpt.ties, &ckpt);
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

[[noreturn]] void binary_error(const std::string& what) {
    throw std::runtime_error("load_learned_binary: " + what);
}

std::uint32_t checked_lit_key(Literal l) {
    const std::uint64_t key = lit_key(l);
    if (key > 0xffffffffULL)
        throw std::invalid_argument("save_learned_binary: literal key exceeds 32 bits");
    return static_cast<std::uint32_t>(key);
}

// Where the sections of a binary v2 blob lie, as walk_binary found them.
struct BinaryLayout {
    BinaryDbInfo info;
    std::uint64_t list_count = 0;
    const unsigned char* lists = nullptr;  // per list: (key, count), then its edges
    const unsigned char* ties = nullptr;   // info.ties (gate, value, cycle) triples
};

// The one walk of a binary v2 blob: magic, version, header size, and that
// the section counts tile `bytes` exactly — adjacency keys strictly
// increasing and below twice the header's gate count, no empty list, the
// list lengths summing to the (even) edge count, tie gates strictly
// increasing and in range with values 0 or 1, and no byte left over. A blob
// truncated at or inside any section, or with trailing garbage, fails here.
// Returns what is wrong, or null with `out` filled.
const char* walk_binary(std::string_view bytes, BinaryLayout& out) {
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
    std::size_t remaining = bytes.size();
    const auto take = [&](std::uint64_t n) -> const unsigned char* {
        if (remaining < n) return nullptr;
        const unsigned char* at = p;
        p += n;
        remaining -= static_cast<std::size_t>(n);
        return at;
    };

    const unsigned char* header = take(kBinaryHeaderBytes);
    if (header == nullptr) return "truncated header";
    if (std::memcmp(header, kBinaryMagic, sizeof kBinaryMagic) != 0)
        return "bad magic (not a seqlearn binary DB)";
    if (util::get_u32(header + 8) != kBinaryVersion) return "unsupported version";
    if (util::get_u32(header + 12) != kBinaryHeaderBytes) return "bad header size";
    out.info.netlist_digest = util::get_u64(header + 16);
    out.info.gates = util::get_u32(header + 24);

    const unsigned char* counts = take(16);
    if (counts == nullptr) return "truncated adjacency section header";
    out.list_count = util::get_u64(counts);
    const std::uint64_t edge_count = util::get_u64(counts + 8);
    // The closure stores both directions of every relation.
    if (edge_count % 2 != 0) return "odd edge count";
    out.lists = p;
    std::uint64_t edges_seen = 0;
    std::uint64_t prev_key = 0;
    for (std::uint64_t i = 0; i < out.list_count; ++i) {
        const unsigned char* list = take(8);
        if (list == nullptr) return "truncated adjacency lists";
        const std::uint64_t key = util::get_u32(list);
        const std::uint64_t count = util::get_u32(list + 4);
        if (i > 0 && key <= prev_key) return "adjacency keys out of order";
        prev_key = key;
        if (key >= std::uint64_t{out.info.gates} * 2) return "adjacency key beyond the netlist";
        if (count == 0) return "empty adjacency list stored";
        if (count > edge_count - edges_seen) return "edge count overflow";
        edges_seen += count;
        if (take(count * 8) == nullptr) return "truncated adjacency lists";
    }
    if (edges_seen != edge_count) return "edge count mismatch";

    const unsigned char* tie_header = take(8);
    if (tie_header == nullptr) return "truncated tie count";
    out.info.ties = util::get_u64(tie_header);
    if (out.info.ties > remaining / 12) return "truncated tie records";
    out.ties = take(out.info.ties * 12);
    if (remaining != 0) return "trailing bytes after the tie records";
    for (std::uint64_t i = 0; i < out.info.ties; ++i) {
        const unsigned char* rec = out.ties + i * 12;
        const std::uint32_t gate = util::get_u32(rec);
        if (gate >= out.info.gates) return "tie names gate beyond the netlist";
        if (i > 0 && gate <= util::get_u32(rec - 12)) return "tie gates out of order";
        if (util::get_u32(rec + 4) > 1) return "tie value out of range";
    }
    out.info.relations = edge_count / 2;
    return nullptr;
}

}  // namespace

std::uint64_t netlist_digest(const Netlist& nl) {
    // The digest is recomputed on every binary snapshot load, so it has to
    // be cheap on large circuits. Two things make it so: names are mixed a
    // word at a time rather than per byte (length first, so "ab"+"c" and
    // "a"+"bc" stay distinct), and gates feed four independent FNV lanes —
    // a single lane is a serial multiply chain whose latency, not the data
    // volume, bounds the whole computation.
    util::Fnv1a lanes[4] = {{}, {15601891126605076235ULL}, {5575097247067471337ULL},
                            {10003595204564453689ULL}};
    util::Fnv1a* h = lanes;
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
        h->mix(w);
    };
    const auto mix_bytes = [&](std::string_view s) {
        h->mix(s.size());
        std::size_t i = 0;
        for (; i + 8 <= s.size(); i += 8) mix_word(s.data() + i, 8);
        if (i < s.size()) mix_word(s.data() + i, s.size() - i);
    };
    h->mix(nl.size());
    for (GateId g = 0; g < nl.size(); ++g) {
        h = &lanes[g & 3];
        mix_bytes(nl.name_of(g));
        h->mix(static_cast<std::uint64_t>(nl.type(g)));
        for (const GateId f : nl.fanins(g)) h->mix(f);
    }
    util::Fnv1a out{lanes[0].value};
    for (int i = 1; i < 4; ++i) out.mix(lanes[i].value);
    return out.value;
}

void save_learned_binary(std::ostream& out, const Netlist& nl, const ImplicationDB& db,
                         const TieSet& ties) {
    std::string buf;
    buf.append(kBinaryMagic, sizeof kBinaryMagic);
    util::put_u32(buf, kBinaryVersion);
    util::put_u32(buf, kBinaryHeaderBytes);
    util::put_u64(buf, netlist_digest(nl));
    util::put_u32(buf, static_cast<std::uint32_t>(nl.size()));
    util::put_u32(buf, 0);  // reserved

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
    util::put_u64(buf, list_count);
    util::put_u64(buf, edge_count);
    for (std::uint64_t key = 0; key < num_keys; ++key) {
        const Literal lhs = lit_from_key(key);
        const std::span<const ImplicationDB::Edge> edges = db.edges_of(lhs);
        if (edges.empty()) continue;
        util::put_u32(buf, checked_lit_key(lhs));
        util::put_u32(buf, static_cast<std::uint32_t>(edges.size()));
        for (const ImplicationDB::Edge& e : edges) {
            util::put_u32(buf, checked_lit_key(e.to));
            util::put_u32(buf, e.frame);
        }
    }
    const std::vector<GateId> tied = ties.tied_gates();
    buf.reserve(buf.size() + tied.size() * 12);
    util::put_u64(buf, tied.size());
    for (const GateId g : tied) {
        util::put_u32(buf, g);
        util::put_u32(buf, ties.value(g) == Val3::One ? 1u : 0u);
        util::put_u32(buf, ties.cycle(g));
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
    // The whole blob goes into one buffer by bulk reads; the walk and the
    // decoding then run over memory. in_avail() is all that is left of a
    // string stream, which then takes one read.
    const std::streamsize avail = in.rdbuf()->in_avail();
    std::string bytes(static_cast<std::size_t>(std::max<std::streamsize>(avail, 0)), '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    bytes.resize(static_cast<std::size_t>(in.gcount()));
    char chunk[1 << 16];
    while (in.read(chunk, sizeof chunk) || in.gcount() > 0)
        bytes.append(chunk, static_cast<std::size_t>(in.gcount()));

    BinaryLayout blob;
    if (const char* error = walk_binary(bytes, blob)) binary_error(error);
    if (blob.info.gates != nl.size())
        binary_error("gate count mismatch (file " + std::to_string(blob.info.gates) +
                     ", netlist " + std::to_string(nl.size()) + ")");
    if (blob.info.netlist_digest != netlist_digest(nl))
        binary_error("netlist digest mismatch (file was saved from a different circuit)");

    LoadedLearned out(nl.size());
    // Lists land pre-sorted and pre-deduped; each decodes into an
    // exact-sized vector that set_edges() moves into place. set_edges() and
    // the final seal() check what the walk cannot — target range and order,
    // closure under contraposition — so a corrupt or hand-forged file is
    // rejected, not ingested.
    const unsigned char* p = blob.lists;
    try {
        for (std::uint64_t i = 0; i < blob.list_count; ++i) {
            const Literal lhs = lit_from_key(util::get_u32(p));
            const std::uint32_t count = util::get_u32(p + 4);
            p += 8;
            std::vector<ImplicationDB::Edge> list;
            list.reserve(count);
            for (std::uint32_t c = 0; c < count; ++c, p += 8)
                list.push_back({lit_from_key(util::get_u32(p)), util::get_u32(p + 4)});
            out.db.set_edges(lhs, std::move(list));
        }
        out.db.seal();
    } catch (const std::invalid_argument& e) {
        binary_error(e.what());
    }
    for (std::uint64_t i = 0; i < blob.info.ties; ++i) {
        const unsigned char* rec = blob.ties + i * 12;
        out.ties.set(util::get_u32(rec), util::get_u32(rec + 4) == 1 ? Val3::One : Val3::Zero,
                     util::get_u32(rec + 8));
    }
    return out;
}

LoadedLearned load_learned_any(std::istream& in, const Netlist& nl) {
    if (is_binary_db(in)) return load_learned_binary(in, nl);
    return load_learned(in, nl);
}

std::optional<BinaryDbInfo> probe_binary_db(std::string_view bytes) {
    BinaryLayout blob;
    if (walk_binary(bytes, blob) != nullptr) return std::nullopt;
    return blob.info;
}

}  // namespace seqlearn::core
