#include "exec/budget.hpp"

namespace seqlearn::exec {

Budget::Budget(const BudgetSpec& spec) noexcept : max_items_(spec.max_items) {
    if (spec.deadline.count() > 0) {
        has_deadline_ = true;
        deadline_at_ = std::chrono::steady_clock::now() + spec.deadline;
    }
}

RunStatus Budget::check() noexcept {
    const RunStatus sticky = tripped_.load(std::memory_order_acquire);
    if (sticky != RunStatus::Completed) return sticky;

    RunStatus hit = RunStatus::Completed;
    if (max_items_ && items_.load(std::memory_order_relaxed) >= max_items_) {
        hit = RunStatus::LimitReached;
    } else if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_at_) {
        hit = RunStatus::DeadlineExceeded;
    }
    if (hit != RunStatus::Completed) {
        // First trip wins; concurrent pollers may race but can only publish
        // equally valid statuses, and stickiness keeps later reads stable.
        RunStatus expected = RunStatus::Completed;
        tripped_.compare_exchange_strong(expected, hit, std::memory_order_release,
                                         std::memory_order_acquire);
        return tripped_.load(std::memory_order_acquire);
    }
    return RunStatus::Completed;
}

const char* Budget::detail() const noexcept {
    switch (tripped_.load(std::memory_order_acquire)) {
        case RunStatus::DeadlineExceeded: return "wall-clock deadline";
        case RunStatus::LimitReached: return "item limit";
        default: return nullptr;
    }
}

}  // namespace seqlearn::exec
