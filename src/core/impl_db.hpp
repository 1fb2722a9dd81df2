#pragma once
// The implication database.
//
// Stores same-frame relations closed under contraposition: inserting
// a=va => b=vb also records !b=vb... i.e. (b,!vb) => (a,!va), so queries by
// either literal see every consequence. Adjacency is dense per literal
// (2 slots per gate), which makes the ATPG-side lookups O(degree).
//
// Each literal's edge list is kept sorted by the target literal's key, so
// membership (add/implies, the single-node learning inner loop) is a binary
// search over a contiguous array — no hash function, no separate membership
// set, and edges_of() spans stay cache-friendly for the ATPG consumers.

#include "core/implication.hpp"

#include <span>
#include <vector>

namespace seqlearn::core {

class ImplicationDB {
public:
    /// Create a database for a netlist with `num_gates` gates.
    explicit ImplicationDB(std::size_t num_gates);

    /// Insert `lhs => rhs` (and its contrapositive). Returns true when the
    /// relation was new. Self-implications (lhs == rhs) are ignored;
    /// lhs == !rhs (a tie statement) is rejected with std::invalid_argument
    /// — ties belong in TieSet, not here.
    bool add(Literal lhs, Literal rhs, std::uint32_t frame);

    /// Insert many relations at once: append every edge, then sort and
    /// dedupe each touched adjacency list once. Semantically identical to
    /// add() in a loop (duplicates keep the earliest frame), but bulk
    /// ingestion — the text snapshot loader — pays one sort pass instead of
    /// a sorted insert per edge.
    void add_batch(std::span<const Relation> rels);

    /// True when `lhs => rhs` (directly stored or by contraposition).
    bool implies(Literal lhs, Literal rhs) const;

    /// One stored implication edge: `to` holds at the same frame whenever
    /// the queried literal does; `frame` is the first-learned frame tag.
    struct Edge {
        Literal to;
        std::uint32_t frame;
    };

    /// All consequences of `lhs` with their frame tags, sorted by target
    /// literal key. The span stays valid until the database is modified.
    std::span<const Edge> edges_of(Literal lhs) const;

    /// Low-level restore API for the binary snapshot loader, used in pairs.
    /// set_edges() moves in the complete adjacency list for `lhs` (the
    /// loader decodes each list into an exact-sized vector); edges must be
    /// strictly sorted by target key, target gates must be in range and
    /// differ from lhs's. Each list may be installed at most once. seal()
    /// then checks the whole install sequence for closure under
    /// contraposition — every edge's mirror present with the same frame,
    /// verified by an order-independent mirror hash accumulated during
    /// set_edges() (a corrupt file escapes only on a ~2^-64 collision) — and
    /// recomputes size(). Use the pair only on a database populated
    /// exclusively through set_edges(); queries between the two calls are
    /// safe but size() is stale until seal() runs. Both throw
    /// std::invalid_argument on violation: a file that fails here was not
    /// written by save_learned_binary.
    void set_edges(Literal lhs, std::vector<Edge>&& edges);
    void seal();

    /// Drop the growth slack add() leaves in the adjacency lists, so a
    /// finished database holds exactly what its binary-loaded twin does.
    void shrink_to_fit();

    /// Number of distinct relations (each counted once, not per direction).
    std::size_t size() const noexcept { return relation_count_; }

    /// Every relation in canonical orientation, with its first-learned frame.
    std::vector<Relation> relations() const;

    /// The first-learned frame of a stored relation; requires implies(lhs,rhs).
    std::uint32_t frame_of(Literal lhs, Literal rhs) const;

    /// Relation counts split the way Table 3 reports them, where "FF" means
    /// the literal sits on a sequential element of `nl`. Only relations with
    /// frame >= min_frame are counted (min_frame = 1 isolates what only
    /// sequential learning can extract).
    struct Counts {
        std::size_t ff_ff = 0;
        std::size_t gate_ff = 0;
        std::size_t gate_gate = 0;
    };
    Counts counts(const netlist::Netlist& nl, std::uint32_t min_frame) const;

    /// Heap bytes held by the adjacency lists — the learned-DB share of a
    /// cached Design's memory footprint.
    std::size_t memory_bytes() const noexcept;

private:
    // Indexed by lit_key; each edge appears in the list of its lhs literal
    // (and its contrapositive in the list of !rhs), sorted by lit_key(to).
    // Both directions are always stored, so "edge present" is exactly
    // "relation present" — no separate membership structure needed.
    std::vector<std::vector<Edge>> adj_;
    std::size_t relation_count_ = 0;
    // Closure-hash accumulators for the set_edges()/seal() restore path.
    std::uint64_t restore_fwd_sum_ = 0;
    std::uint64_t restore_mirror_sum_ = 0;
    std::size_t restore_edge_count_ = 0;

    const Edge* find_edge(Literal lhs, Literal rhs) const;
};

/// Order-independent FNV-1a digest of a database's canonical relation set:
/// relations sorted by (lhs key, rhs key, frame), each triple mixed in. Two
/// databases hold exactly the same relations iff their hashes match (modulo
/// collisions), whatever order they were learned in — the determinism
/// goldens and the serving protocol's `relation_hash` field both use this.
std::uint64_t relation_hash(const ImplicationDB& db);

}  // namespace seqlearn::core
