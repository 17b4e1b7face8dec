/** @file StorageChannel recovery goldens: exponential backoff with
 *  zero jitter is tick-exact, deadlines convert retries into timeouts,
 *  exhausted budgets abandon with TransientError, a retrying request
 *  holds its queue slot, and the blocking adapters die loudly on a
 *  failed request (there is nowhere to report one). Label `fault`. */

#include <gtest/gtest.h>

#include <vector>

#include "host/io_path.hh"
#include "sim/event_queue.hh"
#include "sim/io.hh"
#include "sim/random.hh"
#include "sim/serialize.hh"

using namespace smartsage;
using namespace smartsage::sim;

namespace
{

/**
 * Scripted fallible service: attempt i returns script[i - 1] after a
 * fixed service time, recording each attempt's start tick.
 */
struct ScriptedService
{
    std::vector<IoStatus> script;
    Tick service_time = us(10);
    std::vector<Tick> starts;

    StorageChannel::Service
    make()
    {
        return [this](Tick start, unsigned attempt) {
            starts.push_back(start);
            IoStatus status = attempt <= script.size()
                                  ? script[attempt - 1]
                                  : IoStatus::Ok;
            return IoOutcome{start + service_time, status};
        };
    }
};

/** Zero-jitter policy so backoff goldens are tick-exact. */
RetryPolicy
exactPolicy(unsigned attempts, Tick base = us(100), Tick cap = ms(10))
{
    RetryPolicy p;
    p.max_attempts = attempts;
    p.backoff_base = base;
    p.backoff_cap = cap;
    p.jitter = 0.0;
    return p;
}

} // namespace

TEST(RetryChannel, ExponentialBackoffGoldenWithZeroJitter)
{
    EventQueue eq;
    StorageChannel ch("ch", 4);
    ch.setRetryPolicy(exactPolicy(3));
    ScriptedService svc{{IoStatus::TransientError,
                         IoStatus::TransientError, IoStatus::Ok}};

    Tick finish = 0;
    IoStatus status = IoStatus::TransientError;
    eq.schedule(0, [&] {
        ch.submit(eq, svc.make(), [&](Tick f, IoStatus s) {
            finish = f;
            status = s;
        });
    });
    eq.run();

    // Attempt 1 at 0, attempt 2 after base backoff, attempt 3 after
    // the doubled backoff: 0, 10+100, 120+200 (all microseconds).
    ASSERT_EQ(svc.starts.size(), 3u);
    EXPECT_EQ(svc.starts[0], us(0));
    EXPECT_EQ(svc.starts[1], us(110));
    EXPECT_EQ(svc.starts[2], us(320));
    EXPECT_EQ(finish, us(330));
    EXPECT_EQ(status, IoStatus::Ok);
    EXPECT_EQ(ch.retries(), 2u);
    EXPECT_EQ(ch.abandoned(), 0u);
}

TEST(RetryChannel, BackoffSaturatesAtTheCap)
{
    EventQueue eq;
    StorageChannel ch("ch", 4);
    ch.setRetryPolicy(exactPolicy(3, us(100), us(150)));
    ScriptedService svc{{IoStatus::TransientError,
                         IoStatus::TransientError, IoStatus::Ok}};
    eq.schedule(0, [&] { ch.submit(eq, svc.make(), {}); });
    eq.run();
    // The doubled backoff (200 us) clips to the 150 us cap.
    ASSERT_EQ(svc.starts.size(), 3u);
    EXPECT_EQ(svc.starts[1], us(110));
    EXPECT_EQ(svc.starts[2], us(120) + us(150));
}

TEST(RetryChannel, ExhaustedBudgetAbandonsWithTransientError)
{
    EventQueue eq;
    StorageChannel ch("ch", 4);
    ch.setRetryPolicy(exactPolicy(2));
    ScriptedService svc{{IoStatus::TransientError,
                         IoStatus::TransientError}};
    Tick finish = 0;
    IoStatus status = IoStatus::Ok;
    eq.schedule(0, [&] {
        ch.submit(eq, svc.make(), [&](Tick f, IoStatus s) {
            finish = f;
            status = s;
        });
    });
    eq.run();
    EXPECT_EQ(finish, us(120)); // second attempt's finish tick
    EXPECT_EQ(status, IoStatus::TransientError);
    EXPECT_EQ(ch.retries(), 1u);
    EXPECT_EQ(ch.abandoned(), 1u);
    EXPECT_EQ(ch.timeouts(), 0u);
    EXPECT_TRUE(ch.idle());
}

TEST(RetryChannel, DeadlinePassedAtCompletionTimesOut)
{
    EventQueue eq;
    StorageChannel ch("ch", 4);
    RetryPolicy p = exactPolicy(3);
    p.timeout = us(5); // service takes 10 us: Ok arrives too late
    ch.setRetryPolicy(p);
    ScriptedService svc{{IoStatus::Ok}};
    IoStatus status = IoStatus::Ok;
    eq.schedule(0, [&] {
        ch.submit(eq, svc.make(), [&](Tick, IoStatus s) { status = s; });
    });
    eq.run();
    EXPECT_EQ(status, IoStatus::Timeout);
    EXPECT_EQ(ch.timeouts(), 1u);
}

TEST(RetryChannel, BackoffOvershootingTheDeadlineTimesOut)
{
    EventQueue eq;
    StorageChannel ch("ch", 4);
    RetryPolicy p = exactPolicy(3);
    p.timeout = us(50); // attempt 2 would start at 110 us
    ch.setRetryPolicy(p);
    ScriptedService svc{{IoStatus::TransientError}};
    IoStatus status = IoStatus::Ok;
    Tick finish = 0;
    eq.schedule(0, [&] {
        ch.submit(eq, svc.make(), [&](Tick f, IoStatus s) {
            finish = f;
            status = s;
        });
    });
    eq.run();
    // No second attempt is made and no retry is counted: the budget
    // was there but the deadline was not.
    EXPECT_EQ(svc.starts.size(), 1u);
    EXPECT_EQ(status, IoStatus::Timeout);
    EXPECT_EQ(finish, us(10));
    EXPECT_EQ(ch.retries(), 0u);
    EXPECT_EQ(ch.timeouts(), 1u);
}

TEST(RetryChannel, DeadlinePassedWhileQueuedSkipsTheServiceAttempt)
{
    // A depth-1 channel busy until 100 us; the queued request's 5 us
    // deadline passes while it waits, so dispatch must time it out
    // without burning a service attempt.
    EventQueue eq;
    StorageChannel ch("ch", 1);
    RetryPolicy p = exactPolicy(3);
    p.timeout = us(5);
    ScriptedService blocker{{IoStatus::Ok}, us(100)};
    ScriptedService starved{{IoStatus::Ok}};
    IoStatus status = IoStatus::Ok;
    eq.schedule(0, [&] {
        // The blocker is submitted before the policy is installed, so
        // it carries no deadline of its own.
        ch.submit(eq, blocker.make(), {});
        ch.setRetryPolicy(p);
        ch.submit(eq, starved.make(), [&](Tick, IoStatus s) { status = s; });
    });
    eq.run();
    EXPECT_TRUE(starved.starts.empty());
    EXPECT_EQ(status, IoStatus::Timeout);
    EXPECT_EQ(ch.timeouts(), 1u);
}

TEST(RetryChannel, RetryingRequestHoldsItsQueueSlot)
{
    // Depth 1: while the first request backs off and retries, the
    // second must wait — a retrying command still occupies its queue
    // entry, exactly like a real SQ slot.
    EventQueue eq;
    StorageChannel ch("ch", 1);
    ch.setRetryPolicy(exactPolicy(3));
    ScriptedService flaky{{IoStatus::TransientError, IoStatus::Ok}};
    Tick first = 0, second = 0;
    eq.schedule(0, [&] {
        ch.submit(eq, flaky.make(), [&](Tick f, IoStatus) { first = f; });
        ch.submit(
            eq,
            [](Tick start, unsigned) {
                return IoOutcome{start + us(10), IoStatus::Ok};
            },
            [&](Tick f, IoStatus) { second = f; });
    });
    eq.run();
    EXPECT_EQ(first, us(120)); // fail at 10, retry at 110, done 120
    EXPECT_EQ(second, us(130)); // dispatched only after the retrier
    EXPECT_EQ(ch.queuedCount(), 1u);
}

TEST(RetryChannel, JitterReplaysAfterReset)
{
    // Jittered backoff draws come from a per-request fork keyed by
    // submission index, so reset() (which rewinds the index) replays
    // the exact same schedule — the property worker-count invariance
    // of the fault-space artifact rests on.
    auto runOnce = [](StorageChannel &ch) {
        EventQueue eq;
        std::vector<Tick> finishes;
        eq.schedule(0, [&] {
            for (int i = 0; i < 8; ++i) {
                ch.submit(
                    eq,
                    [](Tick start, unsigned attempt) {
                        return IoOutcome{start + us(10),
                                         attempt < 3
                                             ? IoStatus::TransientError
                                             : IoStatus::Ok};
                    },
                    [&](Tick f, IoStatus) { finishes.push_back(f); });
            }
        });
        eq.run();
        return finishes;
    };

    StorageChannel ch("ch", 8);
    RetryPolicy p = exactPolicy(4);
    p.jitter = 0.5;
    ch.setRetryPolicy(p);
    std::vector<Tick> first = runOnce(ch);
    ch.reset();
    std::vector<Tick> replay = runOnce(ch);
    ASSERT_EQ(first.size(), 8u);
    EXPECT_EQ(first, replay);

    // And the jitter actually varies across requests: identical
    // scripts must not all land on the same finish tick.
    bool all_equal = true;
    for (const Tick f : first)
        all_equal = all_equal && f == first[0];
    EXPECT_FALSE(all_equal);
}

// Recorded while submit forked each request's jitter stream at
// submission: every request's completion tick and status through the
// event path, with jittered retries on a queueing channel, so any
// change in which stream a request draws its backoff from shows.
TEST(RetryChannel, JitteredCompletionTicksPinned)
{
    StorageChannel ch("ch", 3);
    RetryPolicy p = exactPolicy(4);
    p.jitter = 0.5;
    ch.setRetryPolicy(p);
    EventQueue eq;
    const std::size_t n = 400;
    std::vector<std::uint64_t> outcomes(2 * n, ~std::uint64_t{0});
    Rng arrivals(17);
    Tick t = 0;
    for (std::size_t id = 0; id < n; ++id) {
        t += arrivals.nextBounded(us(40));
        eq.schedule(t, [&, id] {
            ch.submit(
                eq,
                [id](Tick start, unsigned attempt) {
                    // Fails on about a third of the attempts.
                    Rng r = Rng(0xfa11).fork(id * 16 + attempt);
                    Tick took = us(5) + r.nextBounded(us(30));
                    return IoOutcome{start + took,
                                     r.nextBounded(3) == 0
                                         ? IoStatus::TransientError
                                         : IoStatus::Ok};
                },
                [&, id](Tick f, IoStatus s) {
                    outcomes[2 * id] = f;
                    outcomes[2 * id + 1] = static_cast<std::uint64_t>(s);
                });
        });
    }
    eq.run();
    EXPECT_EQ(ch.completed(), n);
    EXPECT_GT(ch.retries(), 100u);
    EXPECT_GT(ch.abandoned(), 0u);
    EXPECT_GT(ch.queuedCount(), 0u);
    const std::uint64_t d =
        fnv1a64(outcomes.data(), outcomes.size() * sizeof(outcomes[0]));
    EXPECT_EQ(d, 0x60100e058de86306ull) << std::hex << d;
}

TEST(BlockingAdapter, DiesOnAFailedRequest)
{
    EventQueue eq;
    StorageChannel ch("ch", 2);
    ch.setRetryPolicy(exactPolicy(1));
    EXPECT_DEATH(
        drainOne(
            eq, 0,
            [&](EventQueue &q, IoCompletion done) {
                ch.submit(
                    q,
                    [](Tick start, unsigned) {
                        return IoOutcome{start + us(10),
                                         IoStatus::TransientError};
                    },
                    std::move(done));
            },
            "test-io", 7),
        "blocking read on 'test-io'.*request 7");
}

TEST(BlockingAdapter, EdgeStoreBlockingReadsNameTheComponent)
{
    // Satellite of the silent-failure fix: the classic blocking calls
    // must surface a non-Ok completion fatally, naming the store, not
    // return a tick as if the data were valid.
    host::HostConfig config;
    config.fault.read_error_rate = 1.0;
    config.retry.max_attempts = 1;
    host::DramEdgeStore store(config);
    EXPECT_DEATH(store.readGather(0, {0}, 8), "DRAM");
    const std::vector<std::uint64_t> addrs{0, 64, 128};
    EXPECT_DEATH(store.readGather(0, addrs, 8), "DRAM");
}
