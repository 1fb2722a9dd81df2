#pragma once
// A small fixed-size thread pool with a chunked dynamic work queue — the
// execution engine underneath the parallel fault-simulation and ATPG
// paths. A stage runs on the pool it is handed: its worker count is the
// pool's size, and a null pool means the calling thread (exec::run).
//
// Design rules that keep N-thread results bit-identical to 1-thread runs:
//  - work items are indexed; workers claim indices from one atomic counter,
//    so *which* worker runs an item is arbitrary but the item set is exact;
//  - workers must be interchangeable (per-worker engine clones over shared
//    read-only structure) and write only into per-item result slots;
//  - callers merge result slots in canonical index order afterwards.
//
// The calling thread participates as worker 0, so Pool(1) (or a single-item
// run) degenerates to a plain inline loop with no synchronization at all —
// the sequential hot paths pay nothing for the pool's existence. run() is
// blocking and pools are not reentrant: a task must not call run() on the
// pool executing it (drivers that need nested parallelism run their inner
// stage between outer dispatches instead).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace seqlearn::exec {

/// Non-owning view of a callable `void(unsigned worker, std::size_t item)`.
/// The callable must outlive the call it is passed to (Pool::run blocks, so
/// passing a local lambda is safe).
class TaskView {
public:
    template <typename F>
    TaskView(F& fn)  // NOLINT(google-explicit-constructor): adapter by design
        : ctx_(&fn), call_([](void* ctx, unsigned worker, std::size_t item) {
              (*static_cast<F*>(ctx))(worker, item);
          }) {}

    void operator()(unsigned worker, std::size_t item) const { call_(ctx_, worker, item); }

private:
    void* ctx_;
    void (*call_)(void*, unsigned, std::size_t);
};

class Pool {
public:
    /// std::thread::hardware_concurrency(), never less than 1.
    static unsigned hardware_threads();

    /// A pool with `threads` worker slots including the calling thread
    /// (0 = hardware_threads()); `threads - 1` helper threads are spawned.
    explicit Pool(unsigned threads = 0);
    ~Pool();

    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;

    /// Worker slots (helpers + the calling thread); at least 1.
    unsigned size() const noexcept { return static_cast<unsigned>(threads_.size()) + 1; }

    /// Run task(worker, item) for every item in [0, items), distributing
    /// items dynamically over at most min(size(), items) slots, so `worker`
    /// is below both. Blocks until every item completed; the calling thread
    /// participates as worker 0. The first exception thrown by any item is
    /// rethrown here (remaining items are abandoned). Not reentrant.
    void run(std::size_t items, TaskView task);

private:
    void worker_main(unsigned id);
    void drain(unsigned worker, const TaskView& task);

    std::vector<std::thread> threads_;

    std::mutex mx_;
    std::condition_variable wake_cv_;   // helpers wait here for a job
    std::condition_variable done_cv_;   // run() waits here for helpers
    std::uint64_t generation_ = 0;      // bumped per published job
    bool job_open_ = false;             // late helpers skip closed jobs
    bool shutdown_ = false;
    unsigned active_ = 0;               // helpers inside the current job
    std::exception_ptr error_;

    // Current job (valid only while job_open_ or helpers are active).
    std::atomic<std::size_t> next_{0};
    std::size_t total_ = 0;
    const TaskView* task_ = nullptr;
    unsigned job_workers_ = 0;
};

/// pool->run(items, task), or every item in turn on the calling thread as
/// worker 0 when `pool` is null.
void run(Pool* pool, std::size_t items, TaskView task);

}  // namespace seqlearn::exec
