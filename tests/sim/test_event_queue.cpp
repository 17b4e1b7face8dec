/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

using namespace smartsage::sim;

namespace
{

/** (tick, id) of every fired event, in firing order. */
using FireLog = std::vector<std::pair<Tick, std::uint64_t>>;

/**
 * One randomized schedule, run either with every stream item scheduled
 * up front (schedule() per item) or through scheduleStream(). Top-level
 * registrations mix plain events and streams; each fired event may
 * schedule follow-ups at now() + {0, 1, 2}, and some plain events open
 * a nested stream, so same-tick ties between streams, plain events and
 * follow-ups are common. Every choice is a function of (seed, id), so
 * both modes make the same registrations.
 */
class RandomSchedule
{
  public:
    RandomSchedule(std::uint64_t seed, bool streamed)
        : seed_(seed), streamed_(streamed)
    {
    }

    /** Register the top-level events and streams. */
    void
    registerAll()
    {
        Rng rng(seed_);
        for (std::uint64_t e = 1; e <= 24; ++e) {
            std::uint64_t id = e << 16;
            if (rng.nextBounded(3) == 0) {
                q.schedule(rng.nextBounded(100),
                           [this, id] { fire(id, 0); });
                continue;
            }
            std::vector<Tick> ticks(1 + rng.nextBounded(300));
            Tick t = rng.nextBounded(20);
            for (Tick &tick : ticks) {
                static const Tick gaps[] = {0, 0, 1, 2, 5};
                t += gaps[rng.nextBounded(5)];
                tick = t;
            }
            addStream(id, std::move(ticks), 0);
        }
    }

    EventQueue q;
    FireLog log;

  private:
    void
    addStream(std::uint64_t base, std::vector<Tick> ticks, unsigned depth)
    {
        if (streamed_) {
            std::size_t count = ticks.size();
            q.scheduleStream(
                count,
                [ticks = std::move(ticks)](std::size_t i) {
                    return ticks[i];
                },
                [this, base, depth](std::size_t i) {
                    fire(base + i, depth);
                });
            return;
        }
        for (std::size_t i = 0; i < ticks.size(); ++i)
            q.schedule(ticks[i], [this, id = base + i, depth] {
                fire(id, depth);
            });
    }

    void
    fire(std::uint64_t id, unsigned depth)
    {
        log.emplace_back(q.now(), id);
        Rng rng = Rng(seed_).fork(id);
        if (depth >= 2)
            return;
        unsigned children = static_cast<unsigned>(rng.nextBounded(3));
        for (unsigned k = 0; k < children; ++k) {
            std::uint64_t child = (id << 2) + k + 1;
            q.schedule(q.now() + rng.nextBounded(3),
                       [this, child, depth] { fire(child, depth + 1); });
        }
        if (depth == 0 && rng.nextBounded(8) == 0) {
            std::vector<Tick> ticks(1 + rng.nextBounded(6));
            Tick t = q.now() + rng.nextBounded(2);
            for (Tick &tick : ticks) {
                t += rng.nextBounded(3);
                tick = t;
            }
            addStream((id << 8) + 0x80, std::move(ticks), depth + 1);
        }
    }

    std::uint64_t seed_;
    bool streamed_;
};

/** Callable that counts its copies (moves are free). */
struct CopyCounter
{
    int *copies;
    int *calls;

    CopyCounter(int *copies_, int *calls_) : copies(copies_), calls(calls_)
    {
    }
    CopyCounter(const CopyCounter &o) : copies(o.copies), calls(o.calls)
    {
        ++*copies;
    }
    CopyCounter(CopyCounter &&) noexcept = default;

    void operator()() const { ++*calls; }
};

} // namespace

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbackCanScheduleMore)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.scheduleAfter(5, [&] { ++fired; });
    });
    Tick end = q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(end, 6u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, NowAdvancesWithEvents)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(42, [&] { seen = q.now(); });
    q.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, SameTickSchedulingIsAllowed)
{
    // The precondition is when >= now(): scheduling *at* the current
    // tick is legal (completions fire at eq.now() constantly).
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { q.schedule(10, [&] { ++fired; }); });
    q.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ResetRewindsTheClockAndDropsEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.run();
    EXPECT_EQ(q.now(), 10u);

    q.schedule(50, [&] { ++fired; });
    q.reset();
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.pending(), 0u);

    // After reset, earlier-than-before ticks are schedulable again.
    q.schedule(3, [&] { ++fired; });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(fired, 2); // the dropped event never fired
}

TEST(EventQueueDeath, SchedulingInThePastIsFatal)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(5, [] {}),
                 "scheduling at tick 5, which is in the past \\(now = "
                 "10\\)");
}

TEST(EventQueueStream, RunsInTheOrderOfSchedulingEveryItemUpFront)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 0x5eedull, 0xe7e7ull}) {
        RandomSchedule upfront(seed, false);
        RandomSchedule streamed(seed, true);
        upfront.registerAll();
        streamed.registerAll();
        // The streamed heap holds one entry per stream, not per item.
        EXPECT_LT(streamed.q.pending(), upfront.q.pending())
            << "seed " << seed;

        Tick end_upfront = upfront.q.run();
        Tick end_streamed = streamed.q.run();
        EXPECT_EQ(end_streamed, end_upfront) << "seed " << seed;
        ASSERT_GT(upfront.log.size(), 1000u) << "seed " << seed;
        ASSERT_EQ(streamed.log, upfront.log) << "seed " << seed;
        EXPECT_EQ(streamed.q.pending(), 0u);
    }
}

TEST(EventQueueStream, ItemsFireAtTheirTicksWithTheirIndex)
{
    EventQueue q;
    std::vector<Tick> ticks = {3, 3, 7, 7, 7, 20};
    std::vector<Tick> fired_at;
    std::vector<std::uint64_t> ids;
    auto record = [&](std::uint64_t id) {
        fired_at.push_back(q.now());
        ids.push_back(id);
    };
    q.schedule(7, [&] { record(100); });
    q.scheduleStream(
        ticks.size(), [&](std::size_t i) { return ticks[i]; },
        [&](std::size_t i) { record(i); });
    q.schedule(7, [&] { record(200); });
    // Stream plus two plain events; the stream's items come one by one.
    EXPECT_EQ(q.pending(), 3u);
    EXPECT_EQ(q.run(), 20u);
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{0, 1, 100, 2, 3, 4, 200, 5}));
    EXPECT_EQ(fired_at, (std::vector<Tick>{3, 3, 7, 7, 7, 7, 7, 20}));
}

TEST(EventQueueStream, EmptyStreamFiresNothing)
{
    EventQueue q;
    int fired = 0;
    q.scheduleStream(
        0, [](std::size_t) -> Tick { return 0; },
        [&](std::size_t) { ++fired; });
    EXPECT_EQ(q.pending(), 0u);
    q.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, RunMovesEventsInsteadOfCopyingThem)
{
    EventQueue q;
    int copies = 0;
    int calls = 0;
    // Enough events, at scrambled ticks, that the heap sifts and grows.
    Rng rng(0xc0b1);
    for (int i = 0; i < 200; ++i)
        q.schedule(rng.nextBounded(50), CopyCounter(&copies, &calls));
    q.run();
    EXPECT_EQ(calls, 200);
    EXPECT_EQ(copies, 0);
}

TEST(EventQueueStream, ResetDropsALiveStream)
{
    EventQueue q;
    auto owned = std::make_shared<int>(0);
    int fired = 0;
    q.scheduleStream(
        10,
        [owned](std::size_t i) {
            (void)owned;
            return Tick{10} * (i + 1);
        },
        [&](std::size_t) { ++fired; });
    q.runUntil(30);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(owned.use_count(), 2);

    q.reset();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(owned.use_count(), 1); // the stream's record is gone
    q.run();
    EXPECT_EQ(fired, 3);

    // The queue takes new streams after the reset.
    q.scheduleStream(
        2, [](std::size_t i) { return Tick{5} + i; },
        [&](std::size_t) { ++fired; });
    EXPECT_EQ(q.run(), 6u);
    EXPECT_EQ(fired, 5);
}

TEST(EventQueueDeath, DecreasingStreamTicksAreFatal)
{
    EventQueue q;
    std::vector<Tick> ticks = {10, 20, 15};
    q.scheduleStream(
        ticks.size(), [&](std::size_t i) { return ticks[i]; },
        [](std::size_t) {});
    EXPECT_DEATH(q.run(), "item 2 is due at tick 15, before item 1 at "
                          "tick 20");
}

TEST(EventQueueDeath, StreamStartingInThePastIsFatal)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    EXPECT_DEATH(q.scheduleStream(
                     1, [](std::size_t) -> Tick { return 4; },
                     [](std::size_t) {}),
                 "item 0 is due at tick 4, which is in the past \\(now = "
                 "10\\)");
}
