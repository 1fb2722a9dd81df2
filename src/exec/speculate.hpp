#pragma once
// Ordered speculative execution over a sequence of work items.
//
// The ATPG campaign solves fault targets on the pool and commits their
// verdicts strictly in target order, so its result is the serial
// schedule's at any worker count. speculate_ordered dispatches a window of
// items to the pool, computing each against the shared state (frozen
// during the window — commits happen only between dispatches, on the
// calling thread), then commits the window's results in item order. A
// computation must stay valid whatever earlier commits of its window do to
// the shared state; the commit may still skip an item whose work an earlier
// commit made moot.
//
// The caller provides result slots indexed by position-in-window (so their
// buffers are reused across windows); slot s of the current window holds
// item `window_base + s`.

#include "exec/pool.hpp"

#include <algorithm>
#include <cstddef>

namespace seqlearn::exec {

/// Verdict of an ordered commit.
enum class Commit : std::uint8_t {
    Done,  ///< applied; move to the next item
    Stop,  ///< stage cancelled or complete; abandon the rest
};

struct SpeculateOptions {
    /// Items of the first window and of every later one. Slot arrays must
    /// hold max(first_window, window) slots; both must be at least 1.
    std::size_t first_window = 1;
    std::size_t window = 1;
};

/// Run items [0, n) through compute/commit as described above.
///  - compute(worker, item, slot): called concurrently, must only read the
///    shared state and write into its slot;
///  - commit(item, slot) -> Commit: called on the calling thread in strict
///    item order; applies the slot to the shared state.
/// With a null pool (or one worker) each item is computed and committed in
/// turn on the calling thread.
template <typename ComputeFn, typename CommitFn>
void speculate_ordered(Pool* pool, std::size_t n, const SpeculateOptions& opt,
                       ComputeFn&& compute, CommitFn&& commit, unsigned max_workers = 0) {
    unsigned workers = pool != nullptr ? pool->size() : 1;
    if (max_workers != 0) workers = std::min(workers, max_workers);

    if (pool == nullptr || workers <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            compute(0u, i, std::size_t{0});
            if (commit(i, std::size_t{0}) == Commit::Stop) return;
        }
        return;
    }

    std::size_t base = 0;
    std::size_t window = opt.first_window;
    while (base < n) {
        const std::size_t end = std::min(n, base + window);
        auto task = [&](unsigned worker, std::size_t k) { compute(worker, base + k, k); };
        pool->run(end - base, TaskView(task), workers);
        for (std::size_t i = base; i < end; ++i) {
            if (commit(i, i - base) == Commit::Stop) return;
        }
        base = end;
        window = opt.window;
    }
}

}  // namespace seqlearn::exec
