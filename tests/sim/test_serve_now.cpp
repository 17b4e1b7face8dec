/** @file Equivalence tests for in-place blocking service: a blocking
 *  call served by StorageChannel::serveNow must be indistinguishable
 *  from a submit-and-drain of the async port — the same completion
 *  ticks, the same channel counters, the same jitter and fault draws,
 *  and the same fatal exit on a request that ends non-Ok. Covered at
 *  the channel and at an EdgeStore under a host fault plan. The
 *  device-level blocking calls, SsdDevice::readBlocks,
 *  IspEngine::runGroup and FpgaCsdEngine::runBatch, have no async form
 *  to compare against; they are pinned to digests of their completion
 *  ticks and counters. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "graph/layout.hh"
#include "host/config.hh"
#include "host/io_path.hh"
#include "isp/fpga_csd.hh"
#include "isp/isp_engine.hh"
#include "isp/nsconfig.hh"
#include "sim/io.hh"
#include "sim/random.hh"
#include "sim/serialize.hh"
#include "ssd/ssd_device.hh"

using namespace smartsage;
using namespace smartsage::sim;

namespace
{

/** Every public counter of two channels agrees. */
void
expectSameCounters(const StorageChannel &a, const StorageChannel &b)
{
    EXPECT_EQ(a.submitted(), b.submitted());
    EXPECT_EQ(a.completed(), b.completed());
    EXPECT_EQ(a.peakOutstanding(), b.peakOutstanding());
    EXPECT_EQ(a.queuedCount(), b.queuedCount());
    EXPECT_EQ(a.totalQueueWait(), b.totalQueueWait());
    EXPECT_EQ(a.maxQueueWait(), b.maxQueueWait());
    EXPECT_EQ(a.retries(), b.retries());
    EXPECT_EQ(a.timeouts(), b.timeouts());
    EXPECT_EQ(a.abandoned(), b.abandoned());
    EXPECT_EQ(a.shedAdmission(), b.shedAdmission());
    EXPECT_EQ(a.idle(), b.idle());
}

/**
 * A deterministic fallible service: request @p id's attempts fail until
 * attempt `succeed_at`, and each takes a request- and attempt-specific
 * time. Both paths call it with the same (start, attempt) sequence.
 */
IoOutcome
scriptedAttempt(std::uint64_t id, unsigned max_attempts, Tick start,
                unsigned attempt)
{
    Rng rng = Rng(0x5e7e).fork(id * 64 + attempt);
    Tick took = us(5) + rng.nextBounded(us(40));
    unsigned succeed_at =
        1 + static_cast<unsigned>(Rng(0xa77).fork(id).nextBounded(
                max_attempts));
    return {start + took, attempt < succeed_at ? IoStatus::TransientError
                                               : IoStatus::Ok};
}

/** Blocking fallible request through the event path. */
Tick
drainFallible(StorageChannel &ch, EventQueue &eq, Tick arrival,
              StorageChannel::Service service,
              std::string_view component = "blocking adapter")
{
    return drainOne(
        eq, arrival,
        [&](EventQueue &q, IoCompletion done) {
            ch.submit(q, service, std::move(done));
        },
        component, ch.submitted());
}

RetryPolicy
policy(unsigned attempts, double jitter, Tick timeout)
{
    RetryPolicy p;
    p.max_attempts = attempts;
    p.backoff_base = us(20);
    p.backoff_cap = us(200);
    p.jitter = jitter;
    p.timeout = timeout;
    return p;
}

/**
 * Random NodeWork lists over one shared entry pool. Scattered: each
 * node's entries fall anywhere in a 4096-entry window, so most lists
 * span flash pages. Clustered: each node samples within an adjacency
 * list of its own, mostly short and now and then thousands of entries
 * long, so most lists sit on one page and some straddle a boundary.
 */
struct WorkStream
{
    std::vector<std::vector<std::uint64_t>> entries;
    std::vector<isp::NodeWork> work;

    WorkStream(std::size_t nodes, Rng &rng, bool clustered = false)
    {
        entries.resize(nodes);
        work.reserve(nodes);
        for (std::size_t i = 0; i < nodes; ++i) {
            std::size_t n = rng.nextBounded(12);
            std::uint64_t base = rng.nextBounded(1u << 24);
            std::uint64_t span = 4096;
            if (clustered)
                span = 1 + rng.nextBounded(rng.nextBounded(8) == 0 ? 8192
                                                                   : 400);
            for (std::size_t k = 0; k < n; ++k)
                entries[i].push_back(base + rng.nextBounded(span));
            work.emplace_back(static_cast<graph::LocalNodeId>(i), entries[i]);
        }
    }
};

} // namespace

TEST(ServeNow, MatchesDrainedFallibleSubmit)
{
    // Jitter-free single attempts, retries with jitter, and retries
    // with jitter under a deadline every request still meets.
    const std::vector<RetryPolicy> policies = {
        policy(1, 0.0, 0), policy(4, 0.5, 0), policy(4, 0.5, ms(5))};
    for (std::size_t p = 0; p < policies.size(); ++p) {
        SCOPED_TRACE("policy " + std::to_string(p));
        const RetryPolicy &rp = policies[p];
        StorageChannel drained("ch", 4);
        StorageChannel served("ch", 4);
        drained.setRetryPolicy(rp);
        served.setRetryPolicy(rp);
        EventQueue eq;
        Rng arrivals(p + 1);
        for (int round = 0; round < 2; ++round) {
            Tick t = 0;
            for (std::uint64_t id = 0; id < 400; ++id) {
                // Mostly forward in time, sometimes back: a blocking
                // caller's arrival is its own business.
                t = arrivals.nextBounded(8) == 0
                        ? t / 2
                        : t + arrivals.nextBounded(us(100));
                auto service = [id, &rp](Tick start, unsigned attempt) {
                    return scriptedAttempt(id, rp.max_attempts, start,
                                           attempt);
                };
                Tick a = drainFallible(drained, eq, t, service);
                Tick b = served.serveNow(t, service);
                ASSERT_EQ(a, b) << "request " << id;
            }
            expectSameCounters(drained, served);
            if (p > 0)
                EXPECT_GT(served.retries(), 0u);
            drained.reset();
            served.reset();
        }
    }
}

TEST(ServeNowDeath, NonOkStatusIsFatalLikeTheDrain)
{
    // An exhausted attempt budget and a missed deadline: both paths
    // die with the same component, status and request id.
    const auto always_fails = [](Tick start, unsigned) {
        return IoOutcome{start + us(10), IoStatus::TransientError};
    };
    const auto slow = [](Tick start, unsigned) {
        return IoOutcome{start + us(50), IoStatus::Ok};
    };
    const auto ok = [](Tick start, unsigned) {
        return IoOutcome{start + us(1), IoStatus::Ok};
    };
    const auto exhausted =
        "blocking read on 'test-io' failed with status "
        "transient-error \\(request 2\\)";
    const auto timed_out =
        "blocking read on 'test-io' failed with status timeout "
        "\\(request 2\\)";

    auto channel = [](const RetryPolicy &rp) {
        auto ch = std::make_unique<StorageChannel>("ch", 2);
        ch->setRetryPolicy(rp);
        return ch;
    };
    EventQueue eq;
    {
        auto ch = channel(policy(3, 0.5, 0));
        ch->serveNow(0, ok);
        ch->serveNow(0, ok);
        EXPECT_DEATH(ch->serveNow(0, always_fails, "test-io"), exhausted);
        EXPECT_DEATH(drainFallible(*ch, eq, 0, always_fails, "test-io"),
                     exhausted);
    }
    {
        auto ch = channel(policy(3, 0.5, us(20)));
        ch->serveNow(0, ok);
        ch->serveNow(0, ok);
        EXPECT_DEATH(ch->serveNow(0, slow, "test-io"), timed_out);
        EXPECT_DEATH(drainFallible(*ch, eq, 0, slow, "test-io"),
                     timed_out);
        // A retry whose backoff would cross the deadline times out too.
        EXPECT_DEATH(ch->serveNow(0, always_fails, "test-io"), timed_out);
        EXPECT_DEATH(drainFallible(*ch, eq, 0, always_fails, "test-io"),
                     timed_out);
    }
}

TEST(ServeNow, EdgeStoreReadsMatchDrainedSubmitsUnderAHostFaultPlan)
{
    host::HostConfig config;
    config.page_cache_bytes = sim::MiB(1);
    config.fault.read_error_rate = 0.2;
    config.fault.slow_rate = 0.2;
    config.retry.max_attempts = 8;
    config.retry.jitter = 0.5;
    config.retry.timeout = ms(20);
    ssd::SsdConfig ssd_config;
    ssd_config.page_buffer_bytes = sim::MiB(1);

    ssd::SsdDevice drained_ssd(ssd_config), served_ssd(ssd_config);
    host::MmapEdgeStore drained(config, drained_ssd);
    host::MmapEdgeStore served(config, served_ssd);
    EventQueue eq;
    Rng rng(11);
    std::vector<std::uint64_t> addrs;
    Tick t = 0;
    for (int i = 0; i < 600; ++i) {
        t += rng.nextBounded(us(50));
        unsigned bytes = 8;
        if (rng.nextBounded(2) == 0) {
            // A byte range: one entry of up to 16 KiB.
            addrs.assign(1, rng.nextBounded(sim::MiB(64)));
            bytes = static_cast<unsigned>(1 + rng.nextBounded(sim::KiB(16)));
        } else {
            addrs.clear();
            std::size_t n = rng.nextBounded(6); // empty gathers too
            for (std::size_t k = 0; k < n; ++k)
                addrs.push_back(rng.nextBounded(sim::MiB(64)));
        }
        Tick a = drainOne(eq, t, [&](EventQueue &q, IoCompletion done) {
            drained.submitGather(q, addrs, bytes, std::move(done));
        });
        Tick b = served.readGather(t, addrs, bytes);
        ASSERT_EQ(a, b) << "request " << i;
        t = std::max(t, b);
    }
    expectSameCounters(drained.ioChannel(), served.ioChannel());
    EXPECT_GT(served.ioChannel().retries(), 0u);
    EXPECT_EQ(drained.pageFaults(), served.pageFaults());
    EXPECT_EQ(drained.pageCacheHitRate(), served.pageCacheHitRate());
    EXPECT_EQ(drained_ssd.hostReads(), served_ssd.hostReads());
    EXPECT_EQ(drained_ssd.bytesToHost(), served_ssd.bytesToHost());
}

namespace
{

/** FNV-1a over a run's integer outcomes. */
std::uint64_t
digestOf(const std::vector<std::uint64_t> &v)
{
    return fnv1a64(v.data(), v.size() * sizeof(v[0]));
}

} // namespace

// The digests below were recorded when readBlocks and runGroup were
// still served through a device submission queue, on the same streams
// that then matched a submit-and-drain of each device's async port
// tick for tick. They cover every completion tick and the device and
// batch counters, so any change in what the blocking calls compute
// shows here.

TEST(ServeInPlacePinned, SsdReadBlocks)
{
    ssd::SsdConfig config;
    config.page_buffer_bytes = sim::MiB(2);
    config.flash.fault.ecc_rate = 0.1;
    ssd::SsdDevice ssd(config);
    Rng rng(5);
    Tick t = 0;
    std::vector<std::uint64_t> v;
    for (int i = 0; i < 2000; ++i) {
        t = rng.nextBounded(8) == 0 ? t / 3 : t + rng.nextBounded(us(30));
        std::uint64_t addr = rng.nextBounded(sim::MiB(256));
        std::uint64_t bytes = 1 + rng.nextBounded(sim::KiB(96));
        v.push_back(ssd.readBlocks(t, addr, bytes));
    }
    v.insert(v.end(), {ssd.hostReads(), ssd.bytesToHost(), ssd.eccRetries(),
                       ssd.pageBuffer().hits(), ssd.pageBuffer().misses()});
    EXPECT_GT(ssd.eccRetries(), 0u);
    EXPECT_GT(ssd.pageBuffer().hits(), 0u);
    EXPECT_EQ(digestOf(v), 0x7eb901a679134d4aull) << std::hex << digestOf(v);
}

namespace
{

/** @p stream through IspEngine::runGroup in random-size groups at
 *  random arrivals: every completion tick, then the counters. */
std::vector<std::uint64_t>
ispRunGroupOutcomes(const WorkStream &stream, Rng &rng)
{
    ssd::SsdConfig ssd_config;
    ssd_config.page_buffer_bytes = sim::MiB(2);
    ssd::SsdDevice ssd(ssd_config);
    graph::EdgeLayout layout;
    isp::IspEngine engine(isp::IspConfig{}, ssd, layout);

    isp::IspBatchResult result;
    Tick t = 0;
    std::size_t next = 0;
    std::vector<std::uint64_t> v;
    while (next < stream.work.size()) {
        std::size_t n = std::min<std::size_t>(1 + rng.nextBounded(64),
                                               stream.work.size() - next);
        t += rng.nextBounded(us(200));
        v.push_back(engine.runGroup(stream.work.data() + next, n, t, result));
        next += n;
    }
    v.insert(v.end(), {result.finish, result.commands, result.bytes_to_host,
                       result.bytes_from_host, result.flash_pages,
                       ssd.pageBuffer().hits(), ssd.pageBuffer().misses()});
    EXPECT_GT(ssd.pageBuffer().hits(), 0u);
    return v;
}

/** @p stream through FpgaCsdEngine::runBatch, cut into batches of
 *  random size at random arrivals: every batch's stage times and
 *  bytes, then the device counters. */
std::vector<std::uint64_t>
fpgaRunBatchOutcomes(const WorkStream &stream, Rng &rng)
{
    ssd::SsdConfig ssd_config;
    ssd_config.page_buffer_bytes = sim::MiB(2);
    ssd::SsdDevice ssd(ssd_config);
    graph::EdgeLayout layout;
    isp::FpgaCsdEngine engine(isp::FpgaCsdConfig{}, ssd, layout);

    Tick t = 0;
    std::size_t next = 0;
    std::vector<std::uint64_t> v;
    isp::IspTraceVisitor trace;
    while (next < stream.work.size()) {
        std::size_t n = std::min<std::size_t>(1 + rng.nextBounded(400),
                                               stream.work.size() - next);
        trace.onBatchStart(n);
        for (std::size_t i = next; i < next + n; ++i) {
            trace.onOffsetRead(stream.work[i].node());
            for (std::uint64_t e : stream.work[i].entries())
                trace.onEdgeEntryRead(stream.work[i].node(), e);
        }
        trace.onBatchEnd();
        t += rng.nextBounded(us(2000));
        isp::FpgaBatchResult r = engine.runBatch(trace, t);
        v.insert(v.end(), {r.finish, r.ssd_to_fpga, r.sampling,
                           r.fpga_to_cpu, r.p2p_bytes, r.out_bytes});
        next += n;
    }
    v.insert(v.end(),
             {ssd.pageBuffer().hits(), ssd.pageBuffer().misses()});
    EXPECT_GT(ssd.pageBuffer().hits(), 0u);
    return v;
}

} // namespace

TEST(ServeInPlacePinned, IspRunGroup)
{
    Rng rng(9);
    WorkStream stream(3000, rng);
    std::uint64_t d = digestOf(ispRunGroupOutcomes(stream, rng));
    EXPECT_EQ(d, 0x95d5692072ef4a21ull) << std::hex << d;

    Rng clustered_rng(11);
    WorkStream clustered(3000, clustered_rng, true);
    // Both page-list shapes occur: one page, and several.
    ssd::Ftl ftl{ssd::SsdConfig{}};
    graph::EdgeLayout layout;
    std::size_t one_page = 0, multi_page = 0;
    for (const auto &list : clustered.entries) {
        if (list.empty())
            continue;
        auto [lo, hi] = std::minmax_element(list.begin(), list.end());
        (ftl.pageOf(layout.addrOf(*lo)) == ftl.pageOf(layout.addrOf(*hi))
             ? one_page
             : multi_page)++;
    }
    EXPECT_GT(one_page, 4 * multi_page);
    EXPECT_GT(multi_page, 50u);
    d = digestOf(ispRunGroupOutcomes(clustered, clustered_rng));
    EXPECT_EQ(d, 0xdb4d08d342a4fcbaull) << std::hex << d;
}

// The FPGA engine maps each node's entries to pages the same way; its
// digests were recorded before the page list had a one-page fast path.
TEST(ServeInPlacePinned, FpgaRunBatch)
{
    Rng rng(9);
    WorkStream stream(3000, rng);
    std::uint64_t d = digestOf(fpgaRunBatchOutcomes(stream, rng));
    EXPECT_EQ(d, 0xfdc83dfe147ce8b1ull) << std::hex << d;

    Rng clustered_rng(11);
    WorkStream clustered(3000, clustered_rng, true);
    d = digestOf(fpgaRunBatchOutcomes(clustered, clustered_rng));
    EXPECT_EQ(d, 0xfb1e89b3ff13082bull) << std::hex << d;
}

namespace
{

/**
 * A seeded stream of blocking mmap gathers under a host fault plan
 * with read errors and jittered retries, on OS pages of @p page_bytes:
 * every completion tick, then the store, page-cache, SSD and channel
 * counters. Each gather walks a few entries of one home page in a
 * row, now and then visits another page and comes back to it, and
 * now and then reads the last bytes of a page, which a 12-byte entry
 * straddles into the next.
 */
std::vector<std::uint64_t>
mmapGatherOutcomes(std::uint64_t page_bytes, std::uint64_t seed)
{
    host::HostConfig config;
    config.os_page_bytes = page_bytes;
    config.page_cache_bytes = sim::KiB(768);
    config.fault.read_error_rate = 0.2;
    config.fault.slow_rate = 0.1;
    config.retry.max_attempts = 8;
    config.retry.jitter = 0.5;
    config.retry.timeout = ms(50);
    ssd::SsdConfig ssd_config;
    ssd_config.page_buffer_bytes = sim::MiB(1);
    ssd::SsdDevice ssd(ssd_config);
    host::MmapEdgeStore store(config, ssd);

    Rng rng(seed);
    const std::uint64_t pages = 2048; // > the cache's 192-256 pages
    std::vector<std::uint64_t> recent(16, 0);
    std::vector<std::uint64_t> addrs;
    std::vector<std::uint64_t> v;
    Tick t = 0;
    for (int i = 0; i < 3000; ++i) {
        // Half the gathers revisit a recently used page.
        std::uint64_t home = rng.nextBounded(2) == 0
                                 ? recent[rng.nextBounded(recent.size())]
                                 : rng.nextBounded(pages);
        recent[i % recent.size()] = home;
        const unsigned entry_bytes = rng.nextBounded(3) == 0 ? 12 : 8;
        addrs.clear();
        const std::size_t n = rng.nextBounded(25); // empty gathers too
        for (std::size_t k = 0; k < n; ++k) {
            std::uint64_t page = home;
            std::uint64_t offset = rng.nextBounded(page_bytes - 16);
            switch (rng.nextBounded(8)) {
              case 0: // elsewhere; the next entry returns home
                page = rng.nextBounded(pages);
                break;
              case 1: // the page's tail: a 12-byte entry straddles
                offset = page_bytes - 4 * (1 + rng.nextBounded(2));
                break;
              default:
                break;
            }
            addrs.push_back(page * page_bytes + offset);
        }
        t += rng.nextBounded(us(60));
        v.push_back(store.readGather(t, addrs, entry_bytes));
        t = std::max(t, v.back());
    }
    const sim::StorageChannel &ch = store.ioChannel();
    v.insert(v.end(),
             {store.pageFaults(), store.pageCache().hits(),
              store.pageCache().misses(), ssd.hostReads(), ssd.bytesToHost(),
              ssd.pageBuffer().hits(), ch.retries(), ch.timeouts()});
    EXPECT_GT(ch.retries(), 100u);
    EXPECT_GT(store.pageCache().hits(), store.pageFaults());
    EXPECT_GT(store.pageFaults(), 1000u);
    EXPECT_GT(ssd.pageBuffer().hits(), 0u);
    return v;
}

} // namespace

// Recorded while MmapEdgeStore walked a gather one virtual per-entry
// read at a time and StorageChannel forked each request's jitter
// stream at submission. A 3000-byte page covers the cache's
// non-power-of-two line size.
TEST(ServeInPlacePinned, MmapGather)
{
    std::uint64_t d = digestOf(mmapGatherOutcomes(sim::KiB(4), 23));
    EXPECT_EQ(d, 0xda185347cffa0d44ull) << std::hex << d;
    d = digestOf(mmapGatherOutcomes(3000, 29));
    EXPECT_EQ(d, 0x93c8af6265ade01aull) << std::hex << d;
}
