#pragma once
// Persistence for learned data.
//
// Learning is a pre-processing step (paper Section 2); in a real flow its
// output is computed once and consumed by many later ATPG / verification /
// optimization runs. This module serializes an implication database and a
// tie set to a line-oriented text format keyed by *gate names*, so a saved
// file survives netlist re-parsing as long as names are stable:
//
//     # seqlearn v1 <circuit-name>
//     rel <lhs-gate> <0|1> <rhs-gate> <0|1> <frame>
//     tie <gate> <0|1> <cycle>
//
// A learning *checkpoint* — a budget-interrupted LearnResult: its partial
// database plus the cursor, progress counters and stem records needed to
// resume it — extends the same format:
//
//     # seqlearn-checkpoint v1 <circuit-name>
//     cursor <class-index> <single|multi> <unit> <config-digest>
//     progress <stems> <multi-targets> <multi-relations> <multi-ties>
//     cap <record-cap>
//     rel ... / tie ...                       (as above)
//     rec <node-gate> <0|1> <stem-gate> <0|1> <offset>
//
// One record reader parses both: every record type is parsed, validated and
// inserted by the same code, relations through one ImplicationDB::add_batch.
// The checkpoint header and the cursor, progress, cap and rec records are
// accepted only in a checkpoint (in a DB they are unknown record types),
// and the one policy difference is an unknown gate name: a warning and a
// skipped entry in a DB, an error in a checkpoint. Both loaders come in two
// flavors: a Diagnostics-collecting one that reports every problem with its
// line number in a single pass (the way the .bench reader does) and never
// throws on bad input, and a throwing wrapper that raises
// std::runtime_error on the first error.

#include "core/impl_db.hpp"
#include "core/learned_snapshot.hpp"
#include "core/seq_learn.hpp"
#include "core/tie.hpp"
#include "netlist/diagnostics.hpp"

#include <iosfwd>
#include <memory>
#include <optional>
#include <string_view>

namespace seqlearn::core {

/// Write relations and ties for `nl`.
void save_learned(std::ostream& out, const netlist::Netlist& nl, const ImplicationDB& db,
                  const TieSet& ties);

struct LoadedLearned {
    ImplicationDB db;
    TieSet ties;
    std::size_t skipped_lines = 0;  ///< entries naming unknown gates

    explicit LoadedLearned(std::size_t num_gates) : db(num_gates), ties(num_gates) {}
};

/// Read a file produced by save_learned back against `nl`, collecting
/// line-numbered diagnostics instead of throwing: malformed records (a tie
/// statement written as a rel record included) are errors (the line is
/// skipped and the scan continues, so one pass surfaces every problem);
/// entries naming gates absent from `nl` are warnings and counted in
/// `skipped_lines` (a database stays reusable across mild netlist edits).
/// The returned data reflects exactly the well-formed, known-gate entries —
/// usable when diags.ok(), partial otherwise.
LoadedLearned load_learned(std::istream& in, const netlist::Netlist& nl,
                           netlist::Diagnostics& diags);

/// Throwing wrapper: std::runtime_error carrying the first error's message
/// and line number. Unknown-gate entries stay non-fatal skips.
LoadedLearned load_learned(std::istream& in, const netlist::Netlist& nl);

/// load_learned_any straight into a frozen shareable snapshot — the path a
/// serving cache uses to re-attach stored learned data that many Sessions
/// then adopt with Session::use_learned. Entries naming unknown gates are
/// skipped, as in load_learned.
std::shared_ptr<const LearnedSnapshot> load_snapshot(std::istream& in,
                                                     const netlist::Netlist& nl);

/// Serialize the stopped run `partial` as a resumable checkpoint: its
/// cursor (the circuit name goes in the header), progress counters, DB,
/// ties and stem records. Throws std::logic_error when `partial` carries no
/// valid cursor (a completed or failed run).
void save_checkpoint(std::ostream& out, const netlist::Netlist& nl,
                     const LearnResult& partial);

/// Read a checkpoint back against `nl` as the stopped LearnResult that
/// core::resume_learn continues, collecting diagnostics. The file holds the
/// cursor (its circuit name from the header), the progress counters, the
/// DB, the ties and the stem records; the rest of the result is default
/// (the outcome is not stored and reads Completed — the result is input to
/// resume_learn, not a finished run).
/// Checkpoints must round-trip exactly, so here unknown gate names are
/// *errors*, not skips (resuming against a different circuit would silently
/// diverge). On any error the returned cursor is invalid (not resumable).
LearnResult load_checkpoint(std::istream& in, const netlist::Netlist& nl,
                            netlist::Diagnostics& diags);

/// Throwing wrapper: std::runtime_error on the first error.
LearnResult load_checkpoint(std::istream& in, const netlist::Netlist& nl);

// --- binary snapshot format (v2) -------------------------------------------
//
// The text format above is the archival one: name-keyed, diffable, robust
// across mild netlist edits. The binary format trades that robustness for
// load speed — it stores the ImplicationDB's adjacency lists directly, in
// their in-memory sorted order, so loading is one exact-sized copy per list
// plus a linear closure check: no name lookups, no sorting, no dedup. All
// fields are little-endian (util/bytes.hpp), guarded by a netlist digest so
// a file can never be applied to a different circuit:
//
//     offset  size  field
//          0     8  magic "SEQLNDB2"
//          8     4  version (2), little-endian u32
//         12     4  header bytes (32), little-endian u32
//         16     8  netlist_digest(nl), little-endian u64
//         24     4  gate count, little-endian u32
//         28     4  reserved (0)
//         32     8  non-empty adjacency list count L, u64
//         40     8  total edge count E (always 2x the relation count), u64
//         48     .  L lists, in increasing lhs-key order:
//                     (lhs lit key, edge count) u32 pair, then per edge a
//                     (target lit key, frame) u32 pair in increasing
//                     target-key order — exactly ImplicationDB::edges_of()
//          +     8  tie count T, little-endian u64
//          +  12*T  ties: (gate, value, proof cycle) u32 triples, in
//                   TieSet::tied_gates() id order
//
// The blob is the whole file: a header of any other size, or bytes after
// the tie records, make it invalid. One walk over these sections validates
// the structure (probe_binary_db); load_learned_binary runs the same walk
// and then the checks that need the netlist.
//
// Storing both directions of every relation (forward + contrapositive)
// costs ~30% more bytes than a canonical-relation list, but it is what
// makes the loader copy-bound: the lists land pre-sorted and pre-deduped,
// and ImplicationDB::seal() re-verifies the contraposition-closure
// invariant instead of trusting the file. Deterministic list order makes
// save -> load -> save byte-identical.

/// FNV-1a fingerprint of a netlist's identity: gate count, then per gate its
/// name, type, and fanin ids. Two netlists share a digest exactly when the
/// gate-id keying of a binary snapshot means the same thing in both.
std::uint64_t netlist_digest(const netlist::Netlist& nl);

/// Write relations and ties in the binary v2 format. The stream must be
/// opened in binary mode. Throws std::invalid_argument when a literal key
/// does not fit the 32-bit record (gate ids beyond 2^31 — far past any
/// supported circuit).
void save_learned_binary(std::ostream& out, const netlist::Netlist& nl,
                         const ImplicationDB& db, const TieSet& ties);

/// True when `in` starts with the binary v2 magic. Peeks via seek: the read
/// position is restored, so the matching loader sees the whole file. The
/// stream must be seekable (files and string streams are).
bool is_binary_db(std::istream& in);

/// Load a binary v2 file (the rest of `in`, read into one buffer) against
/// `nl`. Unlike the text loader there is no skip-and-continue: ids are only
/// meaningful for the exact circuit the file was saved from. Anything
/// probe_binary_db rejects, a gate-count or digest mismatch, and a list
/// that breaks ImplicationDB::set_edges / seal (unsorted or out-of-range
/// targets, adjacency not closed under contraposition) throw
/// std::runtime_error.
LoadedLearned load_learned_binary(std::istream& in, const netlist::Netlist& nl);

/// Sniff the format (binary magic vs text header) and dispatch to
/// load_learned_binary or the throwing text load_learned.
LoadedLearned load_learned_any(std::istream& in, const netlist::Netlist& nl);

/// What probe_binary_db() can tell about a binary v2 blob without the
/// netlist it was saved from.
struct BinaryDbInfo {
    std::uint64_t netlist_digest = 0;  ///< which circuit the blob binds to
    std::uint32_t gates = 0;
    std::uint64_t relations = 0;  ///< edge count / 2
    std::uint64_t ties = 0;
};

/// Structurally validate an in-memory binary v2 blob without a netlist —
/// the walk load_learned_binary also runs: magic, version, header size, and
/// that the header's section counts walk the byte range *exactly*, with
/// adjacency keys strictly increasing and in range, no empty list, tie
/// gates strictly increasing and in range and tie values 0 or 1. A blob
/// truncated at (or inside) any section, or with trailing garbage, returns
/// nullopt. This is the cheap integrity check a snapshot store's recovery
/// scan runs per entry; the digest-vs-netlist and contraposition-closure
/// checks run in load_learned_binary when the blob is actually attached.
std::optional<BinaryDbInfo> probe_binary_db(std::string_view bytes);

}  // namespace seqlearn::core
