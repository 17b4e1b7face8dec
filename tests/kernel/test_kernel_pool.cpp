/** @file The kernel pool's lifetime (ctest label `kernel`): one pool
 *  per kernel thread count, none at one thread, and never torn down —
 *  a process that exits through SS_FATAL while the pool's workers are
 *  up, as a forked death-test child does, must not try to join
 *  workers that do not exist in it. */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "gnn/tensor.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"

using namespace smartsage;

TEST(KernelPool, NoPoolAtOneThread)
{
    gnn::ScopedGemmThreads pin(1);
    EXPECT_EQ(gnn::kernelPool(), nullptr);
}

TEST(KernelPool, OnePoolPerThreadCountWithTheCallerAsOneThread)
{
    sim::ThreadPool *four = nullptr;
    {
        gnn::ScopedGemmThreads pin(4);
        four = gnn::kernelPool();
        ASSERT_NE(four, nullptr);
        EXPECT_EQ(four->size(), 3u);
        EXPECT_EQ(gnn::kernelPool(), four);
    }
    gnn::ScopedGemmThreads pin(2);
    ASSERT_NE(gnn::kernelPool(), nullptr);
    EXPECT_NE(gnn::kernelPool(), four);
    EXPECT_EQ(gnn::kernelPool()->size(), 1u);
}

TEST(KernelPool, FatalExitAfterAMultiBlockParallelRowsIsClean)
{
    gnn::ScopedGemmThreads pin(4);
    std::vector<int> rows(4 * gnn::kRowBlock + 1, 0);
    gnn::parallelRows(rows.size(), [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r)
            rows[r] = 1;
    });
    for (int r : rows)
        ASSERT_EQ(r, 1);
    EXPECT_EXIT(SS_FATAL("stop with the kernel pool up"),
                testing::ExitedWithCode(1), "stop with the kernel pool up");
}
