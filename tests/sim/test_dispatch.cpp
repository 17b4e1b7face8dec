/** @file Golden-tick tests for StorageChannel dispatch policies and
 *  admission control (sim/io.hh): deadline/priority reordering of the
 *  pending queue, FIFO tick-identity for untagged traffic under every
 *  policy, and the max_queue / slo_aware shed paths. */

#include <gtest/gtest.h>

#include <vector>

#include "sim/io.hh"

using namespace smartsage;
using namespace smartsage::sim;

namespace
{

/** Fixed-service process: every dispatch takes exactly @p ticks and
 *  succeeds. */
StorageChannel::Service
fixedService(Tick ticks)
{
    return [ticks](Tick start, unsigned) {
        return IoOutcome{start + ticks, IoStatus::Ok};
    };
}

} // namespace

TEST(DispatchPolicy, EarlierDeadlineJumpsAheadOfFifoOrder)
{
    // Depth-1 channel under EDF: while A occupies the slot, B (deadline
    // 500) arrives before C (deadline 300). The slot frees at tick 100
    // and must go to C — the FIFO-earlier B waits one more service.
    EventQueue eq;
    StorageChannel ch("edf", 1);
    ch.setDispatchPolicy(DispatchPolicy::Deadline);
    Tick fa = 0, fb = 0, fc = 0;

    eq.schedule(0, [&] {
        ch.submit(eq, fixedService(100),
                  [&](Tick f, IoStatus) { fa = f; });
    });
    eq.schedule(10, [&] {
        ch.submit(eq, fixedService(100),
                  [&](Tick f, IoStatus) { fb = f; },
                  DispatchTag{0, 500});
    });
    eq.schedule(20, [&] {
        ch.submit(eq, fixedService(100),
                  [&](Tick f, IoStatus) { fc = f; },
                  DispatchTag{0, 300});
    });
    eq.run();
    EXPECT_EQ(fa, 100u);
    EXPECT_EQ(fc, 200u); // dispatched ahead of the earlier arrival
    EXPECT_EQ(fb, 300u);
    EXPECT_TRUE(ch.idle());
}

TEST(DispatchPolicy, NoDeadlineSortsLastUnderEdf)
{
    // An untagged request (deadline 0 = "none") must not be mistaken
    // for deadline-at-epoch: any finite deadline beats it.
    EventQueue eq;
    StorageChannel ch("edf", 1);
    ch.setDispatchPolicy(DispatchPolicy::Deadline);
    std::vector<int> order;

    eq.schedule(0, [&] {
        ch.submit(eq, fixedService(100),
                  [&](Tick, IoStatus) { order.push_back(0); });
        ch.submit(eq, fixedService(100),
                  [&](Tick, IoStatus) { order.push_back(1); }); // untagged
        ch.submit(eq, fixedService(100),
                  [&](Tick, IoStatus) { order.push_back(2); },
                  DispatchTag{0, 900});
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(DispatchPolicy, HigherPriorityDispatchesFirstTiesByArrival)
{
    // Under Priority the freed slot goes to the highest priority; equal
    // priorities keep arrival order (B at prio 1 arrives before C and D
    // at prio 5: C then D then B).
    EventQueue eq;
    StorageChannel ch("prio", 1);
    ch.setDispatchPolicy(DispatchPolicy::Priority);
    std::vector<int> order;
    auto track = [&order](int id) {
        return [&order, id](Tick, IoStatus) { order.push_back(id); };
    };

    eq.schedule(0, [&] {
        ch.submit(eq, fixedService(100), track(0));
        ch.submit(eq, fixedService(100), track(1), DispatchTag{1, 0});
        ch.submit(eq, fixedService(100), track(2), DispatchTag{5, 0});
        ch.submit(eq, fixedService(100), track(3), DispatchTag{5, 0});
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 1}));
}

TEST(DispatchPolicy, UntaggedTrafficIsTickIdenticalUnderEveryPolicy)
{
    // With every request carrying the default tag the non-FIFO policies
    // must degenerate to exact FIFO selection: same order, same ticks.
    auto runUnder = [](DispatchPolicy policy) {
        EventQueue eq;
        StorageChannel ch("ch", 2);
        ch.setDispatchPolicy(policy);
        std::vector<Tick> finishes;
        eq.schedule(0, [&] {
            for (int i = 0; i < 6; ++i)
                ch.submit(eq, fixedService(10 + static_cast<Tick>(i)),
                          [&](Tick f, IoStatus) { finishes.push_back(f); });
        });
        eq.run();
        return finishes;
    };
    std::vector<Tick> fifo = runUnder(DispatchPolicy::Fifo);
    EXPECT_EQ(runUnder(DispatchPolicy::Priority), fifo);
    EXPECT_EQ(runUnder(DispatchPolicy::Deadline), fifo);
    ASSERT_EQ(fifo.size(), 6u);
}

TEST(Admission, MaxQueueBoundShedsAtTheSubmitEdge)
{
    // Depth-1 channel with a one-deep pending bound: A takes the slot,
    // B queues, C finds the queue full and is shed at its submit tick
    // without ever entering service.
    EventQueue eq;
    StorageChannel ch("bounded", 1);
    ch.setAdmission(AdmissionControl{/*max_queue=*/1, false});
    Tick fa = 0, fb = 0, fc = ~Tick{0};
    IoStatus sc = IoStatus::Ok;

    eq.schedule(0, [&] {
        ch.submit(eq, fixedService(100),
                  [&](Tick f, IoStatus) { fa = f; });
        ch.submit(eq, fixedService(100),
                  [&](Tick f, IoStatus) { fb = f; });
        ch.submit(eq, fixedService(100), [&](Tick f, IoStatus s) {
            fc = f;
            sc = s;
        });
    });
    eq.run();
    EXPECT_EQ(fa, 100u);
    EXPECT_EQ(fb, 200u);
    EXPECT_EQ(fc, 0u); // shed completion fires at the submit tick
    EXPECT_EQ(sc, IoStatus::Shed);
    EXPECT_EQ(ch.shedAdmission(), 1u);
    EXPECT_EQ(ch.completed(), 2u);
    EXPECT_EQ(ch.submitted(), 3u);
}

TEST(Admission, SloAwareShedsOnlyDeadlinesTheEstimateMisses)
{
    // Build service history (one completed 100-tick request), then with
    // the slot busy submit two tagged requests: the estimator predicts
    // finish = now + 2 * mean_service for an empty pending queue, so a
    // deadline inside that window is shed and a comfortable one admits.
    EventQueue eq;
    StorageChannel ch("slo", 1);
    ch.setAdmission(AdmissionControl{0, /*slo_aware=*/true});
    Tick fw = 0;
    IoStatus sz = IoStatus::Ok, sw = IoStatus::Shed;

    eq.schedule(0, [&] { ch.submit(eq, fixedService(100), {}); });
    eq.schedule(200, [&] { ch.submit(eq, fixedService(100), {}); });
    // Estimate at tick 210: 210 + 100 + 100 = 410 > 260 -> shed.
    eq.schedule(210, [&] {
        ch.submit(eq, fixedService(100),
                  [&](Tick, IoStatus s) { sz = s; }, DispatchTag{0, 260});
    });
    // Estimate at tick 220: 220 + 100 + 100 = 420 <= 600 -> admit.
    eq.schedule(220, [&] {
        ch.submit(eq, fixedService(100), [&](Tick f, IoStatus s) {
            fw = f;
            sw = s;
        }, DispatchTag{0, 600});
    });
    eq.run();
    EXPECT_EQ(sz, IoStatus::Shed);
    EXPECT_EQ(sw, IoStatus::Ok);
    EXPECT_EQ(fw, 400u); // queued behind the tick-200 request
    EXPECT_EQ(ch.shedAdmission(), 1u);
}

TEST(Admission, UntaggedRequestsPassSloAwareAdmissionUntouched)
{
    // slo_aware only judges deadline-carrying requests; an untagged
    // flood through an slo_aware channel behaves exactly like FIFO.
    EventQueue eq;
    StorageChannel ch("slo", 1);
    ch.setAdmission(AdmissionControl{0, /*slo_aware=*/true});
    std::vector<Tick> finishes;

    eq.schedule(0, [&] {
        for (int i = 0; i < 4; ++i)
            ch.submit(eq, fixedService(50),
                      [&](Tick f, IoStatus) { finishes.push_back(f); });
    });
    eq.run();
    EXPECT_EQ(finishes, (std::vector<Tick>{50, 100, 150, 200}));
    EXPECT_EQ(ch.shedAdmission(), 0u);
}
