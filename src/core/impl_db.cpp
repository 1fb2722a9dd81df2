#include "core/impl_db.hpp"

#include "util/bytes.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

namespace seqlearn::core {

namespace {

// Position of (the edge to) `to` in a list sorted by lit_key(to).
std::vector<ImplicationDB::Edge>::const_iterator lower_bound_to(
    const std::vector<ImplicationDB::Edge>& list, Literal to) {
    return std::lower_bound(list.begin(), list.end(), lit_key(to),
                            [](const ImplicationDB::Edge& e, std::uint64_t key) {
                                return lit_key(e.to) < key;
                            });
}

}  // namespace

ImplicationDB::ImplicationDB(std::size_t num_gates) : adj_(num_gates * 2) {}

const ImplicationDB::Edge* ImplicationDB::find_edge(Literal lhs, Literal rhs) const {
    const auto key = lit_key(lhs);
    if (key >= adj_.size()) return nullptr;
    const auto it = lower_bound_to(adj_[key], rhs);
    if (it != adj_[key].end() && it->to == rhs) return &*it;
    return nullptr;
}

bool ImplicationDB::add(Literal lhs, Literal rhs, std::uint32_t frame) {
    if (lhs.gate == rhs.gate) {
        if (lhs.value == rhs.value) return false;  // tautology
        throw std::invalid_argument("ImplicationDB::add: tie statement (a => !a)");
    }
    std::vector<Edge>& fwd = adj_[lit_key(lhs)];
    const auto it = lower_bound_to(fwd, rhs);
    if (it != fwd.end() && it->to == rhs) {
        // Keep the earliest frame at which the relation was learned — on
        // both stored directions, so the forward and contrapositive edges
        // never disagree about when the relation was first seen.
        Edge& e = fwd[static_cast<std::size_t>(it - fwd.begin())];
        if (frame < e.frame) {
            e.frame = frame;
            std::vector<Edge>& bwd = adj_[lit_key(negate(rhs))];
            const auto mit = lower_bound_to(bwd, negate(lhs));
            bwd[static_cast<std::size_t>(mit - bwd.begin())].frame = frame;
        }
        return false;
    }
    fwd.insert(it, {rhs, frame});
    std::vector<Edge>& bwd = adj_[lit_key(negate(rhs))];
    bwd.insert(lower_bound_to(bwd, negate(lhs)), {negate(lhs), frame});
    ++relation_count_;
    return true;
}

void ImplicationDB::add_batch(std::span<const Relation> rels) {
    // Count first so every touched list gets exactly one reservation; the
    // per-edge growth reallocations are most of what makes an add() loop
    // slower than this. (Average list degree is small — a handful of edges —
    // so the later per-list fixups are near-free.)
    std::vector<std::uint32_t> incoming(adj_.size(), 0);
    std::vector<std::size_t> touched;
    for (const Relation& r : rels) {
        if (r.lhs.gate == r.rhs.gate) {
            if (r.lhs.value == r.rhs.value) continue;  // tautology
            throw std::invalid_argument(
                "ImplicationDB::add_batch: tie statement (a => !a)");
        }
        const std::size_t fwd = lit_key(r.lhs);
        const std::size_t bwd = lit_key(negate(r.rhs));
        if (incoming[fwd]++ == 0) touched.push_back(fwd);
        if (incoming[bwd]++ == 0) touched.push_back(bwd);
    }
    for (const std::size_t key : touched)
        adj_[key].reserve(adj_[key].size() + incoming[key]);
    for (const Relation& r : rels) {
        if (r.lhs.gate == r.rhs.gate) continue;
        adj_[lit_key(r.lhs)].push_back({r.rhs, r.frame});
        adj_[lit_key(negate(r.rhs))].push_back({negate(r.lhs), r.frame});
    }
    std::size_t edge_delta = 0;
    for (const std::size_t key : touched) {
        std::vector<Edge>& list = adj_[key];
        const std::size_t old_size = list.size() - incoming[key];
        // Restore the sorted-by-key invariant. Snapshot files arrive close
        // to sorted, so a stable insertion sort is O(n + inversions) for the
        // common small list; genuinely large or shuffled lists (possible
        // only in a hostile file) fall back to std::sort.
        if (list.size() > 32) {
            std::stable_sort(list.begin(), list.end(),
                             [](const Edge& a, const Edge& b) {
                                 return lit_key(a.to) < lit_key(b.to);
                             });
        } else {
            for (std::size_t i = 1; i < list.size(); ++i) {
                const Edge e = list[i];
                std::size_t p = i;
                while (p > 0 && lit_key(list[p - 1].to) > lit_key(e.to)) {
                    list[p] = list[p - 1];
                    --p;
                }
                list[p] = e;
            }
        }
        // Adjacent dedupe keeping the earliest frame — the add() contract
        // for a re-inserted relation.
        std::size_t w = 0;
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (w > 0 && list[w - 1].to == list[i].to) {
                if (list[i].frame < list[w - 1].frame)
                    list[w - 1].frame = list[i].frame;
            } else {
                list[w++] = list[i];
            }
        }
        list.resize(w);
        edge_delta += w - old_size;
    }
    // Every stored relation is exactly one forward plus one contrapositive
    // edge in two distinct lists (a duplicate loses both or neither), so the
    // surviving-edge delta is always even and counts relations directly.
    relation_count_ += edge_delta / 2;
}

namespace {

// Strong per-edge mixer (splitmix64-style) for the closure hash below.
std::uint64_t edge_mix(std::uint64_t src, std::uint64_t dst, std::uint64_t frame) {
    std::uint64_t x = src * 0x9e3779b97f4a7c15ULL + dst;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL + frame;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

}  // namespace

void ImplicationDB::set_edges(Literal lhs, std::vector<Edge>&& edges) {
    const std::uint64_t key = lit_key(lhs);
    if (key >= adj_.size())
        throw std::invalid_argument("ImplicationDB::set_edges: lhs out of range");
    std::vector<Edge>& list = adj_[key];
    if (!list.empty())
        throw std::invalid_argument("ImplicationDB::set_edges: list already populated");
    const std::size_t num_gates = adj_.size() / 2;
    const std::uint64_t not_lhs_key = lit_key(negate(lhs));
    for (std::size_t i = 0; i < edges.size(); ++i) {
        if (edges[i].to.gate >= num_gates)
            throw std::invalid_argument("ImplicationDB::set_edges: target out of range");
        if (edges[i].to.gate == lhs.gate)
            throw std::invalid_argument("ImplicationDB::set_edges: self or tie edge");
        if (i > 0 && lit_key(edges[i - 1].to) >= lit_key(edges[i].to))
            throw std::invalid_argument(
                "ImplicationDB::set_edges: targets not strictly sorted");
        // Accumulate the closure hash while the edges are already in cache;
        // seal() then only compares the sums. Commutative addition makes the
        // result independent of installation order.
        restore_fwd_sum_ += edge_mix(key, lit_key(edges[i].to), edges[i].frame);
        restore_mirror_sum_ +=
            edge_mix(lit_key(negate(edges[i].to)), not_lhs_key, edges[i].frame);
    }
    restore_edge_count_ += edges.size();
    list = std::move(edges);
}

void ImplicationDB::seal() {
    // Closure under contraposition means the edge multiset equals its own
    // mirror image: (L => t, f) present iff (!t => !L, f) is. Looking each
    // mirror up edge-by-edge would be a random access per edge; instead
    // set_edges() accumulated an order-independent 64-bit sum of a strong
    // per-edge mix over the installed edges and over their mirrors. The sums
    // are equal iff the two multisets are equal — up to a ~2^-64 hash
    // collision, so this is an integrity check against corruption, not a
    // cryptographic defense.
    if (restore_fwd_sum_ != restore_mirror_sum_ || restore_edge_count_ % 2 != 0)
        throw std::invalid_argument(
            "ImplicationDB::seal: adjacency not closed under contraposition");
    // Mirroring pairs every edge with a distinct partner (set_edges rejects
    // edges within one gate), so surviving the check means the edges split
    // into mirror pairs — one stored relation each.
    relation_count_ = restore_edge_count_ / 2;
    restore_fwd_sum_ = 0;
    restore_mirror_sum_ = 0;
    restore_edge_count_ = 0;
}

bool ImplicationDB::implies(Literal lhs, Literal rhs) const {
    if (lhs.gate == rhs.gate) return false;
    return find_edge(lhs, rhs) != nullptr;
}

std::span<const ImplicationDB::Edge> ImplicationDB::edges_of(Literal lhs) const {
    const auto key = lit_key(lhs);
    if (key >= adj_.size()) return {};
    return adj_[key];
}

std::vector<Relation> ImplicationDB::relations() const {
    std::vector<Relation> out;
    out.reserve(relation_count_);
    for (std::size_t key = 0; key < adj_.size(); ++key) {
        const Literal lhs = lit_from_key(key);
        for (const Edge& e : adj_[key]) {
            const Relation r{lhs, e.to, e.frame};
            // Emit each relation once: only in its canonical orientation.
            if (r.canonical() == r) out.push_back(r);
        }
    }
    return out;
}

std::uint32_t ImplicationDB::frame_of(Literal lhs, Literal rhs) const {
    const Edge* e = find_edge(lhs, rhs);
    if (!e) throw std::invalid_argument("frame_of: relation not stored");
    return e->frame;
}

ImplicationDB::Counts ImplicationDB::counts(const netlist::Netlist& nl,
                                            std::uint32_t min_frame) const {
    Counts c;
    for (const Relation& r : relations()) {
        if (r.frame < min_frame) continue;
        const bool lhs_ff = netlist::is_sequential(nl.type(r.lhs.gate));
        const bool rhs_ff = netlist::is_sequential(nl.type(r.rhs.gate));
        if (lhs_ff && rhs_ff) ++c.ff_ff;
        else if (lhs_ff || rhs_ff) ++c.gate_ff;
        else ++c.gate_gate;
    }
    return c;
}

std::uint64_t relation_hash(const ImplicationDB& db) {
    std::vector<Relation> rels = db.relations();
    std::sort(rels.begin(), rels.end(), [](const Relation& a, const Relation& b) {
        return std::tuple(lit_key(a.lhs), lit_key(a.rhs), a.frame) <
               std::tuple(lit_key(b.lhs), lit_key(b.rhs), b.frame);
    });
    util::Fnv1a h;
    for (const Relation& r : rels) h.mix(lit_key(r.lhs)).mix(lit_key(r.rhs)).mix(r.frame);
    return h.value;
}

void ImplicationDB::shrink_to_fit() {
    for (std::vector<Edge>& list : adj_) list.shrink_to_fit();
}

std::size_t ImplicationDB::memory_bytes() const noexcept {
    std::size_t bytes = adj_.capacity() * sizeof(adj_[0]);
    for (const auto& edges : adj_) bytes += edges.capacity() * sizeof(Edge);
    return bytes;
}

}  // namespace seqlearn::core
