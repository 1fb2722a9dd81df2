#include "core/equivalence.hpp"

#include "logic/pattern.hpp"
#include "netlist/structure.hpp"
#include "sim/level_queue.hpp"
#include "sim/parallel_sim.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <span>

namespace seqlearn::core {

namespace {

using logic::Pattern;
using logic::Val3;
using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

bool is_source(const Netlist& nl, GateId g) {
    const GateType t = nl.type(g);
    return t == GateType::Input || netlist::is_sequential(t);
}

// A candidate proof: member == rep (or == !rep when `inverted`) over the
// union combinational support, plus the union cone it must evaluate.
// `lanes` = 1 << support.size() when the whole assignment space fits one
// 64-lane pass (support <= 6); larger proofs iterate 64-lane chunks alone.
struct ProofJob {
    GateId rep = netlist::kNoGate;
    GateId member = netlist::kNoGate;
    bool inverted = false;
    bool oversized = false;  ///< support > cap: dropped without simulation
    std::vector<GateId> support;
    std::vector<GateId> cone;  ///< topological order, sources included
};

// Per-gate structural cache: a proof pair unions two gates' cones, and a
// bucket's representative participates in every pair of its bucket, so the
// cone walk is done once per gate instead of once per pair. The walk uses a
// reusable flag array (no hashing) and aborts as soon as the gate's own
// support exceeds the proof cap — every pair containing such a gate is
// oversized regardless of its partner, and the abort keeps the whole-logic
// cones of deep gates (the common signature-collision victims) from being
// materialized at all.
struct ConeCache {
    const Netlist& nl;
    const std::vector<std::uint32_t>& pos;  // gate -> topological position
    std::vector<std::uint8_t> ready;
    std::vector<std::uint8_t> overflow;  // own support > cap: pairs oversized
    std::vector<std::vector<GateId>> cone;     // sorted by pos, includes gate
    std::vector<std::vector<GateId>> support;  // sorted by id, sources only
    std::vector<std::uint8_t> visited;         // traversal scratch
    std::vector<GateId> stack;

    ConeCache(const Netlist& n, const std::vector<std::uint32_t>& p)
        : nl(n),
          pos(p),
          ready(n.size(), 0),
          overflow(n.size(), 0),
          cone(n.size()),
          support(n.size()),
          visited(n.size(), 0) {}

    void build(GateId g) {
        if (ready[g]) return;
        ready[g] = 1;
        std::vector<GateId>& c = cone[g];
        std::vector<GateId>& s = support[g];
        stack.clear();
        stack.push_back(g);
        visited[g] = 1;
        while (!stack.empty()) {
            const GateId x = stack.back();
            stack.pop_back();
            c.push_back(x);
            if (is_source(nl, x)) {
                s.push_back(x);  // constants are not free variables
                if (s.size() > kSupportCap) {
                    overflow[g] = 1;
                    break;
                }
            }
            // Matches netlist::fanin_cone(through_seq = false): sequential
            // elements stop the walk — except the start gate itself, whose
            // data cone is deliberately expanded.
            if (x != g && netlist::is_sequential(nl.type(x))) continue;
            for (const GateId f : nl.fanins(x)) {
                if (!visited[f]) {
                    visited[f] = 1;
                    stack.push_back(f);
                }
            }
        }
        for (const GateId x : c) visited[x] = 0;
        for (const GateId x : stack) visited[x] = 0;
        if (overflow[g]) {
            c.clear();
            s.clear();
            return;
        }
        std::sort(c.begin(), c.end(), [&](GateId a, GateId b) { return pos[a] < pos[b]; });
        std::sort(s.begin(), s.end());
    }
};

// Stage one job's support assignments into lanes [base, base + count) for
// the chunk of assignments starting at `first`.
void stage_support(const ProofJob& job, std::vector<Pattern>& pats, int base,
                   std::uint64_t first, int count) {
    for (std::size_t b = 0; b < job.support.size(); ++b) {
        Pattern& p = pats[job.support[b]];
        for (int lane = 0; lane < count; ++lane) {
            const std::uint64_t assignment = first + static_cast<std::uint64_t>(lane);
            logic::pat_set(p, base + lane, (assignment >> b) & 1 ? Val3::One : Val3::Zero);
        }
    }
}

bool job_verdict_lanes(const ProofJob& job, const std::vector<Pattern>& pats, int base,
                       int count) {
    const Pattern a = pats[job.rep];
    const Pattern b = job.inverted ? logic::pat_not(pats[job.member]) : pats[job.member];
    const std::uint64_t lane_mask =
        (count == 64 ? ~0ULL : ((1ULL << count) - 1)) << base;
    if ((logic::pat_diff(a, b) & lane_mask) != 0) return false;
    // All lanes must be binary (they are, with binary support values).
    return ((logic::pat_known(a) & logic::pat_known(b)) & lane_mask) == lane_mask;
}

// Reusable evaluation scratch. `pats` is all-X outside a batch: a batch
// writes only its cone, which holds its supports, and resets the cone.
struct ProofScratch {
    std::vector<Pattern> pats;
    std::vector<GateId> cone;  // union cone of a packed batch

    void reset(std::span<const GateId> written) {
        for (const GateId g : written) pats[g] = logic::kPatAllX;
    }
};

// Prove a single oversized-assignment-space job (support 7..cap) by
// iterating 64-lane chunks, as the pre-batched implementation did.
bool prove_solo(const netlist::Topology& topo, const ProofJob& job, ProofScratch& s) {
    const std::size_t k = job.support.size();
    const std::uint64_t total = 1ULL << k;
    bool ok = true;
    for (std::uint64_t first = 0; ok && first < total; first += 64) {
        const int count = static_cast<int>(std::min<std::uint64_t>(64, total - first));
        stage_support(job, s.pats, 0, first, count);
        sim::eval_gates(topo, job.cone, s.pats);
        ok = job_verdict_lanes(job, s.pats, 0, count);
        s.reset(job.cone);
    }
    return ok;
}

// Prove a packed batch: every job's full assignment space staged side by
// side in one 64-lane pass over the union of their cones. A cone gate
// shared by several jobs is evaluated once for all of them, and evaluation
// is lane-wise, so each job reads exactly its own assignments.
void prove_packed(const netlist::Topology& topo, std::span<const ProofJob* const> jobs,
                  const std::vector<std::uint32_t>& pos, std::span<std::uint8_t> verdicts,
                  ProofScratch& s) {
    int base = 0;
    for (const ProofJob* job : jobs) {
        stage_support(*job, s.pats, base, 0, 1 << static_cast<int>(job->support.size()));
        base += 1 << static_cast<int>(job->support.size());
    }
    s.cone.clear();
    for (const ProofJob* job : jobs) s.cone.insert(s.cone.end(), job->cone.begin(),
                                                   job->cone.end());
    std::sort(s.cone.begin(), s.cone.end(),
              [&](GateId a, GateId b) { return pos[a] < pos[b]; });
    s.cone.erase(std::unique(s.cone.begin(), s.cone.end()), s.cone.end());
    sim::eval_gates(topo, s.cone, s.pats);
    base = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const int count = 1 << static_cast<int>(jobs[j]->support.size());
        verdicts[j] = job_verdict_lanes(*jobs[j], s.pats, base, count) ? 1 : 0;
        base += count;
    }
    s.reset(s.cone);
}

}  // namespace

EquivResult find_equivalences(const Netlist& nl, const netlist::Topology& topo) {
    EquivResult out;
    out.map.assign(nl.size(), {});
    out.rep.assign(nl.size(), netlist::kNoGate);
    out.inverted.assign(nl.size(), false);

    const sim::SignatureSet sigs =
        sim::collect_signatures(topo, kSignatureRounds, kSignatureSeed);
    const std::span<const GateId> order = topo.schedule();
    std::vector<std::uint32_t> pos(nl.size(), 0);
    for (std::uint32_t i = 0; i < order.size(); ++i) pos[order[i]] = i;

    // Canonical polarity: flip the whole signature when its first bit is 1,
    // so a gate and its complement land in the same bucket.
    struct Entry {
        GateId gate;
        bool flipped;
    };
    std::map<std::vector<std::uint64_t>, std::vector<Entry>> buckets;
    for (GateId g = 0; g < nl.size(); ++g) {
        const auto words = sigs.of(g);
        std::vector<std::uint64_t> key(words.begin(), words.end());
        const bool flip = !key.empty() && (key[0] & 1);
        if (flip) {
            for (auto& w : key) w = ~w;
        }
        buckets[std::move(key)].push_back({g, flip});
    }

    // Flatten the candidate proofs (each independent of the others) and
    // precompute every proof's union support and cone — once per gate via
    // the cone cache, not once per pair. Verdicts are merged in bucket
    // order below, making the result independent of batch packing.
    ConeCache cache(nl, pos);
    std::vector<ProofJob> proofs;
    for (const auto& [key, entries] : buckets) {
        if (entries.size() < 2 || entries.size() > kMaxBucket) continue;
        const Entry rep = entries[0];
        for (std::size_t i = 1; i < entries.size(); ++i) {
            ProofJob job;
            job.rep = rep.gate;
            job.member = entries[i].gate;
            job.inverted = entries[i].flipped != rep.flipped;
            cache.build(job.rep);
            cache.build(job.member);
            if (cache.overflow[job.rep] || cache.overflow[job.member]) {
                job.oversized = true;
                proofs.push_back(std::move(job));
                continue;
            }
            const auto& s1 = cache.support[job.rep];
            const auto& s2 = cache.support[job.member];
            job.support.resize(s1.size() + s2.size());
            job.support.erase(std::set_union(s1.begin(), s1.end(), s2.begin(), s2.end(),
                                             job.support.begin()),
                              job.support.end());
            if (job.support.size() > kSupportCap) {
                job.oversized = true;
            } else {
                const auto& c1 = cache.cone[job.rep];
                const auto& c2 = cache.cone[job.member];
                job.cone.resize(c1.size() + c2.size());
                const auto by_pos = [&](GateId a, GateId b) { return pos[a] < pos[b]; };
                job.cone.erase(std::set_union(c1.begin(), c1.end(), c2.begin(), c2.end(),
                                              job.cone.begin(), by_pos),
                               job.cone.end());
            }
            proofs.push_back(std::move(job));
        }
    }

    // Pack consecutive small jobs (assignment space <= 64 lanes) into shared
    // 64-lane passes; oversized-space jobs run alone over lane chunks.
    // Packing is a pure evaluation-scheduling choice: verdicts are exhaustive
    // either way.
    struct Batch {
        std::uint32_t first = 0;  // index into `proofs`
        std::uint32_t count = 0;  // 1 for solo jobs
        bool packed = false;
    };
    std::vector<Batch> batches;
    {
        std::uint32_t i = 0;
        while (i < proofs.size()) {
            if (proofs[i].oversized) {  // verdict 0 without simulation
                ++i;
                continue;
            }
            if (proofs[i].support.size() > 6) {
                batches.push_back({i, 1, false});
                ++i;
                continue;
            }
            Batch b{i, 0, true};
            int lanes = 0;
            while (i < proofs.size() && !proofs[i].oversized &&
                   proofs[i].support.size() <= 6 &&
                   lanes + (1 << proofs[i].support.size()) <= 64) {
                lanes += 1 << proofs[i].support.size();
                ++b.count;
                ++i;
            }
            batches.push_back(b);
        }
    }

    std::vector<std::uint8_t> proven_flags(proofs.size(), 0);
    ProofScratch scratch;
    scratch.pats.assign(nl.size(), logic::kPatAllX);
    for (const Batch& b : batches) {
        if (!b.packed) {
            proven_flags[b.first] = prove_solo(topo, proofs[b.first], scratch) ? 1 : 0;
            continue;
        }
        std::array<const ProofJob*, 64> jobs{};
        for (std::uint32_t j = 0; j < b.count; ++j) jobs[j] = &proofs[b.first + j];
        prove_packed(topo, {jobs.data(), b.count}, pos,
                     {proven_flags.data() + b.first, b.count}, scratch);
    }

    std::size_t next_proof = 0;
    for (const auto& [key, entries] : buckets) {
        if (entries.size() < 2) continue;
        if (entries.size() > kMaxBucket) {
            out.dropped += entries.size() - 1;
            continue;
        }
        const Entry rep = entries[0];
        std::vector<Entry> proven{rep};
        for (std::size_t i = 1; i < entries.size(); ++i) {
            if (proven_flags[next_proof++]) {
                proven.push_back(entries[i]);
            } else {
                ++out.dropped;
            }
        }
        if (proven.size() < 2) continue;
        ++out.num_classes;
        out.gates_in_classes += proven.size();
        for (const Entry& m : proven) {
            out.rep[m.gate] = rep.gate;
            out.inverted[m.gate] = m.flipped != rep.flipped;
            if (m.gate == rep.gate) continue;
            out.map[m.gate].push_back({rep.gate, m.flipped != rep.flipped});
            out.map[rep.gate].push_back({m.gate, m.flipped != rep.flipped});
        }
    }
    return out;
}

}  // namespace seqlearn::core
