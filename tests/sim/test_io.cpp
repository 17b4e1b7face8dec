/** @file Unit tests for the async storage request layer (sim/io.hh):
 *  StorageChannel admission, queue-depth bounding, and the
 *  submit-and-drain blocking adapter. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/io.hh"
#include "sim/resource.hh"

using namespace smartsage;
using namespace smartsage::sim;

namespace
{

/** An always-Ok attempt finishing at @p finish(start). */
template <typename Finish>
StorageChannel::Service
alwaysOk(Finish finish)
{
    return [finish](Tick start, unsigned) {
        return IoOutcome{finish(start), IoStatus::Ok};
    };
}

/** Channel whose service takes a fixed time on a shared server. */
struct FixedService
{
    Server server{"srv"};
    Tick service_time;

    StorageChannel::Service
    make()
    {
        return alwaysOk([this](Tick start) {
            return server.request(start, service_time).finish;
        });
    }
};

} // namespace

TEST(StorageChannel, ImmediateDispatchWhenIdle)
{
    EventQueue eq;
    StorageChannel ch("ch", 4);
    FixedService svc{Server{"srv"}, 100};

    Tick finish = 0;
    eq.schedule(50, [&] {
        ch.submit(eq, svc.make(), [&](Tick f, IoStatus) { finish = f; });
    });
    eq.run();
    EXPECT_EQ(finish, 150u);
    EXPECT_EQ(ch.submitted(), 1u);
    EXPECT_EQ(ch.completed(), 1u);
    EXPECT_EQ(ch.totalQueueWait(), 0u);
    EXPECT_TRUE(ch.idle());
}

TEST(StorageChannel, DepthBoundsConcurrentService)
{
    // Three same-tick submissions into a depth-2 channel over a pool
    // of two independent servers: the third must wait for a slot.
    EventQueue eq;
    StorageChannel ch("ch", 2);
    ServerPool pool("pool", 2);
    std::vector<Tick> finishes;

    eq.schedule(0, [&] {
        for (int i = 0; i < 3; ++i) {
            ch.submit(
                eq,
                alwaysOk([&pool](Tick start) {
                    return pool.request(start, 100).finish;
                }),
                [&](Tick f, IoStatus) { finishes.push_back(f); });
        }
    });
    eq.run();
    ASSERT_EQ(finishes.size(), 3u);
    EXPECT_EQ(finishes[0], 100u);
    EXPECT_EQ(finishes[1], 100u);
    // The third dispatched only at tick 100, despite two free-by-then
    // servers: admission, not service, was the bottleneck.
    EXPECT_EQ(finishes[2], 200u);
    EXPECT_EQ(ch.totalQueueWait(), 100u);
    EXPECT_EQ(ch.maxQueueWait(), 100u);
    EXPECT_EQ(ch.peakOutstanding(), 3u);
}

TEST(StorageChannel, QueueWaitStatsCoverOnlyQueuedRequests)
{
    // Two back-to-back single-request submissions never queue: the
    // wait stats must stay empty rather than recording zero waits,
    // which would silently drag the mean queue wait toward zero.
    EventQueue eq;
    StorageChannel ch("ch", 1);
    Server server("srv");
    auto service = alwaysOk([&server](Tick start) {
        return server.request(start, 100).finish;
    });

    eq.schedule(0, [&] { ch.submit(eq, service, {}); });
    eq.schedule(500, [&] { ch.submit(eq, service, {}); });
    eq.run();
    EXPECT_EQ(ch.submitted(), 2u);
    EXPECT_EQ(ch.queuedCount(), 0u);
    EXPECT_EQ(ch.totalQueueWait(), 0u);

    // Three same-tick submissions into the depth-1 channel: the first
    // dispatches straight into the free slot, the other two queue for
    // 100 and 200 ticks. The corrected mean over *queued* requests is
    // 150; the pre-fix mean over all submissions would read 100.
    eq.reset();
    ch.reset();
    server.reset();
    eq.schedule(0, [&] {
        for (int i = 0; i < 3; ++i)
            ch.submit(eq, service, {});
    });
    eq.run();
    EXPECT_EQ(ch.submitted(), 3u);
    EXPECT_EQ(ch.queuedCount(), 2u);
    EXPECT_EQ(ch.totalQueueWait(), 300u);
    EXPECT_EQ(ch.maxQueueWait(), 200u);
    EXPECT_EQ(static_cast<double>(ch.totalQueueWait()) /
                  static_cast<double>(ch.queuedCount()),
              150.0);

    ch.reset();
    EXPECT_EQ(ch.queuedCount(), 0u);
}

TEST(StorageChannel, PendingRequestsDispatchInFifoOrder)
{
    EventQueue eq;
    StorageChannel ch("ch", 1);
    Server server("srv");
    std::vector<int> order;

    eq.schedule(0, [&] {
        for (int i = 0; i < 4; ++i) {
            ch.submit(
                eq,
                alwaysOk([&server](Tick start) {
                    return server.request(start, 10).finish;
                }),
                [&order, i](Tick, IoStatus) { order.push_back(i); });
        }
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(ch.completed(), 4u);
}

TEST(StorageChannel, WiderQueueNeverIncreasesWait)
{
    auto runAt = [](unsigned depth) {
        EventQueue eq;
        StorageChannel ch("ch", depth);
        ServerPool pool("pool", 4);
        for (int i = 0; i < 16; ++i) {
            eq.schedule(static_cast<Tick>(i), [&ch, &eq, &pool] {
                ch.submit(
                    eq,
                    alwaysOk([&pool](Tick start) {
                        return pool.request(start, 50).finish;
                    }),
                    {});
            });
        }
        eq.run();
        return ch.totalQueueWait();
    };
    Tick narrow = runAt(1);
    Tick wide = runAt(8);
    EXPECT_GT(narrow, 0u);
    EXPECT_LT(wide, narrow);
}

TEST(DrainOne, ReturnsTheCompletionTick)
{
    EventQueue eq;
    StorageChannel ch("ch", 2);
    Server server("srv");
    Tick t = drainOne(eq, 500, [&](EventQueue &q, IoCompletion done) {
        ch.submit(
            q,
            alwaysOk([&server](Tick start) {
                return server.request(start, 25).finish;
            }),
            std::move(done));
    });
    EXPECT_EQ(t, 525u);
    // The drain queue is reusable for a later, earlier-tick arrival.
    Tick t2 = drainOne(eq, 100, [&](EventQueue &q, IoCompletion done) {
        ch.submit(
            q,
            alwaysOk([&server](Tick start) {
                return server.request(start, 25).finish;
            }),
            std::move(done));
    });
    EXPECT_EQ(t2, 550u); // server busy until 525, then 25 of service
}
