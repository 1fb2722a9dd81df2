#pragma once
// Ordered speculative execution over a sequence of dependent work items.
//
// The learning passes have a serial semantics: item k's computation may read
// state (the tie set) mutated by items < k, and bit-identical parallel runs
// must reproduce exactly the serial schedule.
//
// speculate_ordered dispatches a window of items to the pool, computing
// each against the current shared state (frozen during the window —
// commits happen only between dispatches, on the calling thread), then
// commits results strictly in item order. A commit that finds the
// shared state changed since the window was dispatched returns Retry: the
// window is abandoned from that item on and re-dispatched against the fresh
// state. Every dispatch commits at least its first item (nothing mutates
// between a dispatch and its first commit), so progress is guaranteed; the
// window grows after dispatches that committed without moving the shared
// state and shrinks after retries, adapting the speculation depth to the
// observed mutation rate. A caller whose mutations can come in runs sets
// min_window to 1: through such a run every dispatch holds one item and
// runs inline on the calling thread, as the serial schedule would.
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
    Done,     ///< applied; move to the next item
    Changed,  ///< applied, and it moved the shared state: the window's later items are stale
    Retry,    ///< shared state changed under the speculation; recompute from here
    Stop,     ///< stage cancelled or complete; abandon the rest
};

struct SpeculateOptions {
    /// Window bounds in items (0 = derived from the worker count: min =
    /// workers, max = 4 * workers — deep enough to amortize dispatch,
    /// shallow enough that a retry abandons little work). Slot arrays must
    /// hold max_window slots.
    std::size_t min_window = 0;
    std::size_t max_window = 0;
};

/// Resolved maximum window for slot sizing.
inline std::size_t resolved_max_window(const SpeculateOptions& opt, unsigned workers) {
    return opt.max_window != 0 ? opt.max_window
                               : static_cast<std::size_t>(workers) * 4;
}

/// Run items [0, n) through compute/commit as described above.
///  - prepare(begin, end): called on the calling thread immediately before
///    each dispatch (snapshot versions here);
///  - compute(worker, item, slot): called concurrently, must only read the
///    shared state and write into its slot;
///  - commit(item, slot) -> Commit: called on the calling thread in strict
///    item order; applies the slot to the shared state.
/// With a null pool (or one worker) the loop degenerates to the serial
/// schedule: prepare/compute/commit per item, retries impossible.
template <typename Prepare, typename ComputeFn, typename CommitFn>
void speculate_ordered(Pool* pool, std::size_t n, const SpeculateOptions& opt,
                       Prepare&& prepare, ComputeFn&& compute, CommitFn&& commit,
                       unsigned max_workers = 0) {
    unsigned workers = pool != nullptr ? pool->size() : 1;
    if (max_workers != 0) workers = std::min(workers, max_workers);

    if (pool == nullptr || workers <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            for (;;) {
                prepare(i, i + 1);
                compute(0u, i, std::size_t{0});
                const Commit verdict = commit(i, std::size_t{0});
                if (verdict == Commit::Stop) return;
                if (verdict != Commit::Retry) break;
                // Retry directly after prepare means the commit can never
                // observe fresher state; loop anyway — prepare re-snapshots
                // and the next commit sees its own dispatch as clean.
            }
        }
        return;
    }

    const std::size_t min_window =
        std::max<std::size_t>(1, opt.min_window != 0 ? opt.min_window : workers);
    const std::size_t max_window =
        std::max(min_window, resolved_max_window(opt, workers));

    std::size_t pos = 0;
    std::size_t window = min_window;
    while (pos < n) {
        const std::size_t end = std::min(n, pos + window);
        const std::size_t base = pos;
        prepare(base, end);
        auto task = [&](unsigned worker, std::size_t k) { compute(worker, base + k, k); };
        pool->run(end - base, TaskView(task), workers);

        bool retried = false;
        bool changed = false;
        for (std::size_t i = base; i < end; ++i) {
            const Commit verdict = commit(i, i - base);
            if (verdict == Commit::Stop) return;
            if (verdict == Commit::Retry) {
                pos = i;
                window = std::max(min_window, window / 2);
                retried = true;
                break;
            }
            changed |= verdict == Commit::Changed;
        }
        if (!retried) {
            pos = end;
            if (!changed) window = std::min(max_window, window * 2);
        }
    }
}

}  // namespace seqlearn::exec
