#include "exec/pool.hpp"

#include <algorithm>

namespace seqlearn::exec {

unsigned Pool::hardware_threads() {
    return std::max(1u, std::thread::hardware_concurrency());
}

void run(Pool* pool, std::size_t items, TaskView task) {
    if (pool != nullptr) return pool->run(items, task);
    for (std::size_t i = 0; i < items; ++i) task(0, i);
}

Pool::Pool(unsigned threads) {
    const unsigned n = threads == 0 ? hardware_threads() : threads;
    threads_.reserve(n > 0 ? n - 1 : 0);
    for (unsigned id = 1; id < n; ++id) {
        threads_.emplace_back([this, id] { worker_main(id); });
    }
}

Pool::~Pool() {
    {
        const std::lock_guard<std::mutex> lock(mx_);
        shutdown_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
}

void Pool::drain(unsigned worker, const TaskView& task) {
    for (;;) {
        const std::size_t item = next_.fetch_add(1, std::memory_order_relaxed);
        if (item >= total_) return;
        try {
            task(worker, item);
        } catch (...) {
            const std::lock_guard<std::mutex> lock(mx_);
            if (!error_) error_ = std::current_exception();
            // Abandon the remaining items; in-flight ones finish on their own.
            next_.store(total_, std::memory_order_relaxed);
            return;
        }
    }
}

void Pool::worker_main(unsigned id) {
    std::uint64_t seen = 0;
    for (;;) {
        std::unique_lock<std::mutex> lock(mx_);
        wake_cv_.wait(lock, [&] { return shutdown_ || (generation_ != seen && job_open_); });
        if (shutdown_) return;
        seen = generation_;
        if (id >= job_workers_) continue;  // more workers than items
        ++active_;
        const TaskView* task = task_;
        lock.unlock();

        drain(id, *task);

        lock.lock();
        if (--active_ == 0) done_cv_.notify_one();
    }
}

void Pool::run(std::size_t items, TaskView task) {
    if (items == 0) return;
    const auto workers = static_cast<unsigned>(std::min<std::size_t>(size(), items));
    if (workers <= 1 || threads_.empty()) {
        // Inline path: no helpers, no locking; exceptions propagate directly.
        for (std::size_t i = 0; i < items; ++i) task(0, i);
        return;
    }

    {
        const std::lock_guard<std::mutex> lock(mx_);
        next_.store(0, std::memory_order_relaxed);
        total_ = items;
        task_ = &task;
        job_workers_ = workers;
        error_ = nullptr;
        job_open_ = true;
        ++generation_;
    }
    wake_cv_.notify_all();

    drain(0, task);  // the calling thread is worker 0

    std::unique_lock<std::mutex> lock(mx_);
    // All items are claimed once worker 0's drain returns, so helpers that
    // wake from now on would find nothing; close the job so they skip it
    // (and never touch the dying TaskView), then wait out the ones inside.
    job_open_ = false;
    done_cv_.wait(lock, [&] { return active_ == 0; });
    task_ = nullptr;
    if (error_) {
        std::exception_ptr err = error_;
        error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(err);
    }
}

}  // namespace seqlearn::exec
