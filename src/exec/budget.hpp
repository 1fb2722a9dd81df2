#pragma once
// Run budgets: wall-clock deadline and work-item limit.
//
// A BudgetSpec travels inside stage configs; a Budget is materialised when a
// run starts (so the deadline clock begins at run entry, not config build)
// and is polled at the same work-item boundaries as exec::CancelFlag.
// Polling is cheap by design: note_item() is a relaxed counter bump and
// check() is one steady_clock read plus two compares — the bench suite pins
// the total at <2% of a learning pass (`budget_overhead` row).
//
// A tripped limit is sticky, and check() is safe from any thread: the
// campaign's target solves and the fault simulator's passes poll it on
// whichever pool worker runs them, and the first trip is what every later
// poll reports.

#include "exec/cancel.hpp"
#include "exec/outcome.hpp"

#include <atomic>
#include <chrono>
#include <cstddef>

namespace seqlearn::exec {

/// Declarative budget carried by stage configs. Zero fields mean "no limit";
/// a default BudgetSpec imposes no governance at all.
struct BudgetSpec {
    /// Wall-clock deadline measured from run start. 0 = unlimited.
    std::chrono::milliseconds deadline{0};
    /// Maximum number of work items (stems / targets / faults). 0 = unlimited.
    std::size_t max_items = 0;

    bool any() const noexcept { return deadline.count() > 0 || max_items > 0; }
};

/// Live budget for one run. Constructed at run entry; not copyable (shared
/// by reference between the stage and its workers).
class Budget {
public:
    explicit Budget(const BudgetSpec& spec) noexcept;

    Budget(const Budget&) = delete;
    Budget& operator=(const Budget&) = delete;

    /// Count one completed work item (relaxed; called once per item by the
    /// thread that owns the serial commit order).
    void note_item() noexcept { items_.fetch_add(1, std::memory_order_relaxed); }

    /// Poll the budget. Returns Completed while within budget, otherwise the
    /// status of the first limit tripped. Sticky: after a non-Completed
    /// return every later call returns the same status.
    RunStatus check() noexcept;

    /// Which limit tripped ("wall-clock deadline" or "item limit") or
    /// nullptr while within budget. For RunOutcome diagnostics.
    const char* detail() const noexcept;

    std::size_t items() const noexcept { return items_.load(std::memory_order_relaxed); }

private:
    std::chrono::steady_clock::time_point deadline_at_{};
    std::size_t max_items_ = 0;
    bool has_deadline_ = false;
    std::atomic<RunStatus> tripped_{RunStatus::Completed};
    std::atomic<std::size_t> items_{0};
};

/// Combined cancellation + budget poll used at every work-item boundary.
/// Cancellation wins ties so an explicit user request is always reported as
/// Cancelled. Either pointer may be null.
inline RunStatus poll_point(const CancelFlag* cancel, Budget* budget) noexcept {
    if (cancel && cancel->requested()) return RunStatus::Cancelled;
    if (budget) return budget->check();
    return RunStatus::Completed;
}

/// The outcome of a run that stopped with `st`; a budget stop names the
/// limit that tripped. `budget` may be null.
inline RunOutcome outcome_from(RunStatus st, const Budget* budget) {
    RunOutcome o;
    o.status = st;
    if (budget != nullptr && budget->detail() != nullptr &&
        (st == RunStatus::DeadlineExceeded || st == RunStatus::LimitReached)) {
        o.diagnostic = budget->detail();
    }
    return o;
}

}  // namespace seqlearn::exec
