// Tests for the exec subsystem: pool scheduling (every item exactly once,
// worker ids in range, caller participation, the null pool, exceptions)
// and the cancel flag. The ATPG campaign's in-order commits are tested
// through the Session (session_test's AtpgCancellationFlagsOutcome).

#include "exec/cancel.hpp"
#include "exec/pool.hpp"

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

TEST(Pool, NullPoolRunsEveryItemInOrderOnCaller) {
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    bool off_caller = false;
    auto task = [&](unsigned worker, std::size_t item) {
        off_caller |= worker != 0 || std::this_thread::get_id() != caller;
        order.push_back(item);
    };
    run(nullptr, 5, TaskView(task));
    EXPECT_FALSE(off_caller);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
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

}  // namespace
}  // namespace seqlearn::exec
