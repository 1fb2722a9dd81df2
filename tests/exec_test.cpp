// Tests for the exec subsystem: pool scheduling (every item exactly once,
// worker ids in range, caller participation, caps, exceptions), the cancel
// flag, and ordered speculation's in-order commits.

#include "exec/cancel.hpp"
#include "exec/pool.hpp"
#include "exec/speculate.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace seqlearn::exec {
namespace {

TEST(Pool, RunsEveryItemExactlyOnce) {
    for (const unsigned threads : {1u, 2u, 8u}) {
        Pool pool(threads);
        EXPECT_EQ(pool.size(), threads);
        constexpr std::size_t kItems = 10000;
        std::vector<std::atomic<int>> hits(kItems);
        std::atomic<bool> bad_worker{false};
        auto task = [&](unsigned worker, std::size_t item) {
            if (worker >= pool.size()) bad_worker = true;
            hits[item].fetch_add(1, std::memory_order_relaxed);
        };
        pool.run(kItems, TaskView(task));
        EXPECT_FALSE(bad_worker);
        for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    }
}

TEST(Pool, ReusableAcrossManyRuns) {
    Pool pool(4);
    std::atomic<std::size_t> total{0};
    auto task = [&](unsigned, std::size_t) { total.fetch_add(1); };
    for (int round = 0; round < 100; ++round) pool.run(17, TaskView(task));
    EXPECT_EQ(total.load(), 1700u);
}

TEST(Pool, MaxWorkersCapsParticipation) {
    Pool pool(8);
    std::atomic<unsigned> max_seen{0};
    auto task = [&](unsigned worker, std::size_t) {
        unsigned cur = max_seen.load();
        while (worker > cur && !max_seen.compare_exchange_weak(cur, worker)) {
        }
        std::this_thread::yield();
    };
    pool.run(500, TaskView(task), /*max_workers=*/2);
    EXPECT_LT(max_seen.load(), 2u);
}

TEST(Pool, SingleItemRunsInlineOnCaller) {
    Pool pool(8);
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id seen;
    unsigned seen_worker = 99;
    auto task = [&](unsigned worker, std::size_t) {
        seen = std::this_thread::get_id();
        seen_worker = worker;
    };
    pool.run(1, TaskView(task));
    EXPECT_EQ(seen, caller);
    EXPECT_EQ(seen_worker, 0u);
}

TEST(Pool, ExceptionsPropagateToCaller) {
    for (const unsigned threads : {1u, 4u}) {
        Pool pool(threads);
        auto task = [&](unsigned, std::size_t item) {
            if (item == 37) throw std::runtime_error("boom");
        };
        EXPECT_THROW(pool.run(1000, TaskView(task)), std::runtime_error);
        // The pool survives a failed run.
        std::atomic<std::size_t> count{0};
        auto ok = [&](unsigned, std::size_t) { count.fetch_add(1); };
        pool.run(10, TaskView(ok));
        EXPECT_EQ(count.load(), 10u);
    }
}

TEST(CancelFlag, RequestResetRoundTrip) {
    CancelFlag flag;
    EXPECT_FALSE(flag.requested());
    flag.request();
    EXPECT_TRUE(flag.requested());
    flag.request();  // idempotent
    EXPECT_TRUE(flag.requested());
    flag.reset();
    EXPECT_FALSE(flag.requested());
}

TEST(Speculate, NoMutationNeverRetries) {
    Pool pool(4);
    std::atomic<std::size_t> computed{0};
    const SpeculateOptions opt{4, 8};
    std::vector<std::size_t> slots(opt.window);
    auto compute = [&](unsigned, std::size_t item, std::size_t slot) {
        slots[slot] = item;
        computed.fetch_add(1, std::memory_order_relaxed);
    };
    std::size_t committed = 0;
    auto commit = [&](std::size_t item, std::size_t slot) -> Commit {
        EXPECT_EQ(item, committed);  // strictly in item order
        EXPECT_EQ(slots[slot], item);
        ++committed;
        return Commit::Done;
    };
    speculate_ordered(&pool, 300, opt, compute, commit, 4);
    EXPECT_EQ(committed, 300u);
    // Every item is computed exactly once.
    EXPECT_EQ(computed.load(), 300u);
}

TEST(Speculate, StopAbandonsTheRest) {
    Pool pool(4);
    const SpeculateOptions opt{4, 8};
    std::vector<std::size_t> slots(opt.window);
    auto compute = [&](unsigned, std::size_t item, std::size_t slot) { slots[slot] = item; };
    std::size_t committed = 0;
    auto commit = [&](std::size_t, std::size_t) -> Commit {
        if (committed == 10) return Commit::Stop;
        ++committed;
        return Commit::Done;
    };
    speculate_ordered(&pool, 1000, opt, compute, commit, 4);
    EXPECT_EQ(committed, 10u);
}

}  // namespace
}  // namespace seqlearn::exec
