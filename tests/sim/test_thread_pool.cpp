/** @file Tests for the functional-path worker thread pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/thread_pool.hh"

using smartsage::sim::parallelFor;
using smartsage::sim::ThreadPool;

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { count.fetch_add(1); });
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, TaskExceptionIsRethrownFromWait)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([] { throw std::runtime_error("task boom"); });
    pool.submit([&count] { count.fetch_add(1); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed; the pool stays usable.
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { count.fetch_add(1); });
    }
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ParallelForCallersSharingAPoolAreIndependent)
{
    // Caller A's indices block on a gate and then throw, holding a pool
    // worker. While they are blocked, caller B runs parallelFor on the
    // same pool; B must return as soon as its own indices are done,
    // without A's exception, and A must receive its own exception once
    // the gate opens.
    ThreadPool pool(2);
    std::promise<void> gate;
    std::shared_future<void> opened = gate.get_future().share();
    std::atomic<int> a_started{0};

    std::future<void> a = std::async(std::launch::async, [&] {
        parallelFor(&pool, 2, [&](std::size_t) {
            a_started.fetch_add(1);
            opened.wait();
            throw std::runtime_error("caller A");
        });
    });
    while (a_started.load() < 2)
        std::this_thread::yield();

    std::atomic<int> b_count{0};
    std::future<void> b = std::async(std::launch::async, [&] {
        parallelFor(&pool, 8, [&](std::size_t) { b_count.fetch_add(1); });
    });
    const bool b_finished_first =
        b.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
    gate.set_value();

    EXPECT_TRUE(b_finished_first)
        << "caller B waited for caller A's blocked task";
    EXPECT_NO_THROW(b.get());
    EXPECT_EQ(b_count.load(), 8);
    EXPECT_THROW(a.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForRunsEveryIndexOnceWithBusyWorkers)
{
    // The caller claims indices too, so a call completes even when
    // every worker is still busy with another caller's task.
    ThreadPool pool(1);
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    pool.submit([released] { released.wait(); });

    std::vector<std::atomic<int>> hits(100);
    parallelFor(&pool, hits.size(),
                [&](std::size_t i) { hits[i].fetch_add(1); });
    release.set_value();
    pool.wait();
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}
