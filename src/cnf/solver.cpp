#include "cnf/solver.hpp"

#include <algorithm>

namespace seqlearn::cnf {

namespace {

// Luby restart sequence (1,1,2,1,1,2,4,...) scaled by the base interval, in
// MiniSat's form: find the subsequence holding index x, then descend into it.
std::uint64_t luby(std::uint64_t x) {
    std::uint64_t size = 1;
    unsigned seq = 0;
    while (size < x + 1) {
        size = 2 * size + 1;
        ++seq;
    }
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        --seq;
        x %= size;
    }
    return std::uint64_t{1} << seq;
}

constexpr std::uint64_t kRestartBase = 100;
constexpr double kActivityRescale = 1e100;

}  // namespace

Var Solver::new_var() {
    const Var v = static_cast<Var>(assign_.size());
    assign_.push_back(kUndef);
    model_.push_back(kFalse);
    phase_.push_back(kFalse);
    level_.push_back(0);
    reason_.push_back(kRefUndef);
    activity_.push_back(0.0);
    heap_pos_.push_back(0xFFFFFFFFu);
    watches_.emplace_back();
    watches_.emplace_back();
    heap_insert(v);
    return v;
}

std::uint32_t Solver::alloc_clause(std::span<const Lit> lits) {
    const std::uint32_t cref = static_cast<std::uint32_t>(arena_.size());
    arena_.push_back(static_cast<std::uint32_t>(lits.size()));
    for (const Lit l : lits) arena_.push_back(l.x);
    ++num_clauses_;
    return cref;
}

std::span<Lit> Solver::clause(std::uint32_t cref) noexcept {
    return {reinterpret_cast<Lit*>(arena_.data() + cref + 1), arena_[cref]};
}

std::span<const Lit> Solver::clause(std::uint32_t cref) const noexcept {
    return {reinterpret_cast<const Lit*>(arena_.data() + cref + 1), arena_[cref]};
}

bool Solver::add_clause(std::span<const Lit> lits) {
    if (!ok_) return false;
    // Top-level simplification: sort by literal key, drop duplicates and
    // literals false at the root, skip tautologies and clauses already true.
    learnt_scratch_.assign(lits.begin(), lits.end());
    std::sort(learnt_scratch_.begin(), learnt_scratch_.end(),
              [](Lit a, Lit b) { return a.x < b.x; });
    std::size_t out = 0;
    Lit prev;
    for (const Lit l : learnt_scratch_) {
        if (l == prev && out > 0) continue;
        if (out > 0 && l == ~prev) return true;  // tautology
        const std::uint8_t v = value(l);
        if (v == kTrue && level_[l.var()] == 0) return true;   // already satisfied
        if (v == kFalse && level_[l.var()] == 0) continue;     // dead literal
        learnt_scratch_[out++] = l;
        prev = l;
    }
    learnt_scratch_.resize(out);
    if (out == 0) {
        ok_ = false;
        return false;
    }
    if (out == 1) {
        if (value(learnt_scratch_[0]) == kUndef) enqueue(learnt_scratch_[0], kRefUndef);
        if (propagate() != kRefUndef) {
            ok_ = false;
            return false;
        }
        return true;
    }
    const std::uint32_t cref = alloc_clause(learnt_scratch_);
    const auto c = clause(cref);
    watches_[(~c[0]).x].push_back({cref, c[1]});
    watches_[(~c[1]).x].push_back({cref, c[0]});
    return true;
}

void Solver::enqueue(Lit l, std::uint32_t reason) {
    const Var v = l.var();
    assign_[v] = l.neg() ? kFalse : kTrue;
    phase_[v] = assign_[v];
    level_[v] = decision_level();
    reason_[v] = reason;
    trail_.push_back(l);
}

exec::RunStatus Solver::poll_governance() {
    poll_at_ = propagations_ + kGovernancePollInterval;
    return exec::poll_point(cancel_, budget_);
}

std::uint32_t Solver::propagate() {
    std::uint32_t confl = kRefUndef;
    while (qhead_ < trail_.size()) {
        const Lit p = trail_[qhead_++];
        ++propagations_;
        auto& ws = watches_[p.x];
        std::size_t i = 0, j = 0;
        while (i < ws.size()) {
            const Watch w = ws[i];
            if (value(w.blocker) == kTrue) {
                ws[j++] = ws[i++];
                continue;
            }
            const auto c = clause(w.cref);
            const Lit false_lit = ~p;
            if (c[0] == false_lit) std::swap(c[0], c[1]);
            ++i;
            if (value(c[0]) == kTrue) {
                ws[j++] = {w.cref, c[0]};
                continue;
            }
            bool moved = false;
            for (std::size_t k = 2; k < c.size(); ++k) {
                if (value(c[k]) != kFalse) {
                    std::swap(c[1], c[k]);
                    watches_[(~c[1]).x].push_back({w.cref, c[0]});
                    moved = true;
                    break;
                }
            }
            if (moved) continue;
            ws[j++] = {w.cref, c[0]};
            if (value(c[0]) == kFalse) {
                confl = w.cref;
                qhead_ = trail_.size();
                while (i < ws.size()) ws[j++] = ws[i++];
            } else {
                enqueue(c[0], w.cref);
            }
        }
        ws.resize(j);
    }
    return confl;
}

void Solver::bump_var(Var v) {
    activity_[v] += var_inc_;
    if (activity_[v] > kActivityRescale) {
        for (double& a : activity_) a *= 1.0 / kActivityRescale;
        var_inc_ *= 1.0 / kActivityRescale;
    }
    if (heap_pos_[v] != 0xFFFFFFFFu) heap_sift_up(heap_pos_[v]);
}

void Solver::heap_insert(Var v) {
    if (heap_pos_[v] != 0xFFFFFFFFu) return;
    heap_pos_[v] = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(v);
    heap_sift_up(heap_.size() - 1);
}

void Solver::heap_sift_up(std::size_t i) {
    const Var v = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!heap_less(v, heap_[parent])) break;
        heap_[i] = heap_[parent];
        heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
        i = parent;
    }
    heap_[i] = v;
    heap_pos_[v] = static_cast<std::uint32_t>(i);
}

Var Solver::heap_pop() {
    const Var top = heap_[0];
    heap_pos_[top] = 0xFFFFFFFFu;
    const Var last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heap_pos_[last] = 0;
        std::size_t i = 0;
        for (;;) {
            const std::size_t l = 2 * i + 1, r = 2 * i + 2;
            std::size_t best = i;
            if (l < heap_.size() && heap_less(heap_[l], heap_[best])) best = l;
            if (r < heap_.size() && heap_less(heap_[r], heap_[best])) best = r;
            if (best == i) break;
            std::swap(heap_[i], heap_[best]);
            heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
            heap_pos_[heap_[best]] = static_cast<std::uint32_t>(best);
            i = best;
        }
    }
    return top;
}

Lit Solver::pick_branch() {
    while (!heap_.empty()) {
        const Var v = heap_pop();
        if (assign_[v] == kUndef) {
            ++decisions_;
            return Lit(v, phase_[v] == kFalse);
        }
    }
    Lit undef;
    return undef;
}

void Solver::cancel_until(std::uint32_t level) {
    if (decision_level() <= level) return;
    const std::size_t lim = trail_lim_[level];
    for (std::size_t k = trail_.size(); k > lim; --k) {
        const Var v = trail_[k - 1].var();
        assign_[v] = kUndef;
        reason_[v] = kRefUndef;
        heap_insert(v);
    }
    trail_.resize(lim);
    trail_lim_.resize(level);
    qhead_ = lim;
}

void Solver::analyze(std::uint32_t confl, std::vector<Lit>& learnt,
                     std::uint32_t& bt_level) {
    learnt.clear();
    learnt.push_back(Lit{});  // slot for the asserting (first-UIP) literal
    seen_.resize(assign_.size(), 0);
    std::size_t path = 0;
    Lit p;
    std::size_t index = trail_.size();
    bool first = true;
    do {
        const auto c = clause(confl);
        for (std::size_t k = first ? 0 : 1; k < c.size(); ++k) {
            const Lit q = c[k];
            if (seen_[q.var()] == 0 && level_[q.var()] > 0) {
                bump_var(q.var());
                seen_[q.var()] = 1;
                if (level_[q.var()] >= decision_level()) ++path;
                else learnt.push_back(q);
            }
        }
        first = false;
        while (seen_[trail_[index - 1].var()] == 0) --index;
        p = trail_[index - 1];
        --index;
        confl = reason_[p.var()];
        seen_[p.var()] = 0;
        --path;
    } while (path > 0);
    learnt[0] = ~p;
    // Current-level marks were cleared as the trail walk consumed them; the
    // lower-level literals that entered the clause still carry theirs.
    for (std::size_t k = 1; k < learnt.size(); ++k) seen_[learnt[k].var()] = 0;

    if (learnt.size() == 1) {
        bt_level = 0;
    } else {
        // Second-highest decision level among the clause becomes the
        // backtrack level; its literal moves to the watch position.
        std::size_t max_i = 1;
        for (std::size_t k = 2; k < learnt.size(); ++k) {
            if (level_[learnt[k].var()] > level_[learnt[max_i].var()]) max_i = k;
        }
        std::swap(learnt[1], learnt[max_i]);
        bt_level = level_[learnt[1].var()];
    }
}

SolveResult Solver::solve(std::span<const Lit> assumptions) {
    SolveResult res;
    res.run = exec::RunOutcome::completed();
    if (!ok_) {
        res.status = SolveStatus::Unsat;
        return res;
    }
    cancel_until(0);
    if (propagate() != kRefUndef) {
        ok_ = false;
        res.status = SolveStatus::Unsat;
        return res;
    }

    std::uint64_t restarts = 0;
    std::uint64_t conflict_limit = kRestartBase * luby(restarts);
    std::uint64_t conflicts_here = 0;

    for (;;) {
        const std::uint32_t confl = propagate();
        if (propagations_ >= poll_at_) {
            const exec::RunStatus st = poll_governance();
            if (st != exec::RunStatus::Completed) {
                cancel_until(0);
                res.status = SolveStatus::Stopped;
                res.run.status = st;
                if (budget_ != nullptr && budget_->detail() != nullptr &&
                    st != exec::RunStatus::Cancelled)
                    res.run.diagnostic = budget_->detail();
                return res;
            }
        }
        if (confl != kRefUndef) {
            ++conflicts_;
            ++conflicts_here;
            if (decision_level() == 0) {
                ok_ = false;
                res.status = SolveStatus::Unsat;
                return res;
            }
            std::uint32_t bt = 0;
            analyze(confl, learnt_scratch_, bt);
            // Never undo assumption levels a learned clause does not force:
            // backtracking below them is fine (the decide step re-asserts).
            cancel_until(bt);
            if (learnt_scratch_.size() == 1) {
                enqueue(learnt_scratch_[0], kRefUndef);
            } else {
                const std::uint32_t cref = alloc_clause(learnt_scratch_);
                const auto c = clause(cref);
                watches_[(~c[0]).x].push_back({cref, c[1]});
                watches_[(~c[1]).x].push_back({cref, c[0]});
                enqueue(c[0], cref);
            }
            decay_activities();
            continue;
        }
        if (conflicts_here >= conflict_limit) {
            ++restarts;
            conflict_limit = kRestartBase * luby(restarts);
            conflicts_here = 0;
            cancel_until(0);
            continue;
        }
        // Decide: assumptions first, then VSIDS.
        Lit next;
        bool have_next = false;
        while (decision_level() < assumptions.size()) {
            const Lit a = assumptions[decision_level()];
            if (value(a) == kTrue) {
                new_decision_level();  // dummy level keeps the index mapping
            } else if (value(a) == kFalse) {
                cancel_until(0);
                res.status = SolveStatus::Unsat;
                return res;
            } else {
                next = a;
                have_next = true;
                break;
            }
        }
        if (!have_next) {
            next = pick_branch();
            if (next.x == 0xFFFFFFFFu) {
                model_ = assign_;
                cancel_until(0);
                res.status = SolveStatus::Sat;
                return res;
            }
        }
        new_decision_level();
        enqueue(next, kRefUndef);
    }
}

bool Solver::probe(std::span<const Lit> assumptions, std::vector<Lit>& implied) {
    implied.clear();
    if (!ok_) return false;
    cancel_until(0);
    if (propagate() != kRefUndef) {
        ok_ = false;
        return false;
    }
    new_decision_level();
    for (const Lit a : assumptions) {
        if (value(a) == kFalse) {
            cancel_until(0);
            return false;
        }
        if (value(a) == kUndef) enqueue(a, kRefUndef);
    }
    const std::size_t base = trail_.size();
    const bool consistent = propagate() == kRefUndef;
    if (consistent) {
        implied.assign(trail_.begin() + static_cast<std::ptrdiff_t>(base), trail_.end());
    }
    cancel_until(0);
    return consistent;
}

}  // namespace seqlearn::cnf
