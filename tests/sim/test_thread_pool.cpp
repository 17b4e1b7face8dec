/** @file Tests for the functional-path worker thread pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/thread_pool.hh"

using smartsage::sim::ClaimableTask;
using smartsage::sim::parallelFor;
using smartsage::sim::ThreadPool;

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.size(), 4u);
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] { count.fetch_add(1); });
    }
    EXPECT_EQ(count.load(), 100);
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
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ClaimableTask, RunsExactlyOnceWhenAWorkerAndResolveRace)
{
    // Each task is resolved after a varying head start, so a worker
    // and the caller race to claim it; the loser must not run it again.
    constexpr int kTasks = 2000;
    ThreadPool pool(2);
    std::atomic<int> total{0};
    for (int t = 0; t < kTasks; ++t) {
        std::atomic<int> runs{0};
        ClaimableTask task(&pool, [&runs, &total] {
            runs.fetch_add(1);
            total.fetch_add(1);
        });
        for (int y = 0; y < t % 8; ++y)
            std::this_thread::yield();
        task.resolve();
        ASSERT_EQ(runs.load(), 1) << "task " << t;
    }
    EXPECT_EQ(total.load(), kTasks);
}

TEST(ClaimableTask, DestroyedWhileQueuedNeverRuns)
{
    std::atomic<bool> ran{false};
    {
        ThreadPool pool(1);
        std::promise<void> gate;
        std::shared_future<void> opened = gate.get_future().share();
        pool.submit([opened] { opened.wait(); });
        {
            ClaimableTask task(&pool, [&ran] { ran = true; });
        }
        gate.set_value();
    } // the pool drains the cancelled task's queue entry
    EXPECT_FALSE(ran.load());
}

TEST(ClaimableTask, DestroyingARunningTaskWaitsForTheWork)
{
    using namespace std::chrono_literals;
    ThreadPool pool(1);
    std::promise<void> started, release;
    std::shared_future<void> released = release.get_future().share();
    std::atomic<bool> finished{false};
    auto task = std::make_unique<ClaimableTask>(&pool, [&] {
        started.set_value();
        released.wait();
        finished = true;
    });
    started.get_future().wait(); // a worker has claimed it

    std::atomic<bool> finished_at_return{false};
    std::future<void> destroyer = std::async(std::launch::async, [&] {
        task.reset();
        finished_at_return = finished.load();
    });
    EXPECT_EQ(destroyer.wait_for(100ms), std::future_status::timeout)
        << "the destructor returned while the work was running";
    release.set_value();
    destroyer.get();
    EXPECT_TRUE(finished_at_return.load());
}

TEST(ClaimableTask, ResolveRethrowsTheWorksException)
{
    ThreadPool pool(2);
    for (ThreadPool *p : {&pool, static_cast<ThreadPool *>(nullptr)}) {
        ClaimableTask task(p, [] { throw std::runtime_error("work"); });
        EXPECT_THROW(task.resolve(), std::runtime_error);
    }
}

TEST(ClaimableTask, NullPoolRunsInsideResolveOnTheCaller)
{
    std::thread::id ran_on;
    ClaimableTask task(nullptr,
                       [&ran_on] { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, std::thread::id{}) << "ran before resolve()";
    task.resolve();
    EXPECT_EQ(ran_on, std::this_thread::get_id());
}
