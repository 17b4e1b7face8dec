/** @file Tests for the scratchpad block stores: the direct-I/O store,
 *  the striped multi-SSD store and the partitioned scale-out store all
 *  classify a request's blocks through a user scratchpad and send the
 *  missing ones as one submission of contiguous per-device runs.
 *  Seeded gather streams with scratchpad hits, repeated entries and
 *  block straddles are pinned to digests of their completion ticks
 *  and every device, submission and network counter; and the
 *  one-entry gathers over four byte ranges are pinned to their
 *  ticks. */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/system.hh"
#include "graph/layout.hh"
#include "host/config.hh"
#include "host/io_path.hh"
#include "host/partitioned_store.hh"
#include "sim/random.hh"
#include "sim/serialize.hh"
#include "ssd/sharded_ssd.hh"
#include "ssd/ssd_device.hh"

using namespace smartsage;
using namespace smartsage::sim;

namespace
{

constexpr unsigned kEntryBytes = 8;

const core::Workload &
smallWorkload()
{
    static core::Workload wl =
        core::Workload::make(graph::DatasetId::Amazon, false);
    return wl;
}

/** A scratchpad small enough that the streams below also miss. */
host::HostConfig
testHost()
{
    host::HostConfig config;
    config.scratchpad_bytes = sim::KiB(256);
    return config;
}

ssd::SsdConfig
testSsd()
{
    ssd::SsdConfig config;
    config.page_buffer_bytes = sim::MiB(2);
    return config;
}

/**
 * A seeded stream of blocking gathers of 8 B entries inside
 * [@p base, @p base + @p window). Each gather clusters around an
 * anchor, a quarter of them around the previous gather's anchor (so
 * the scratchpad hits), and mixes in repeated entries, entries that
 * straddle a block boundary and empty gathers. Arrivals mostly move
 * forward and now and then jump back.
 */
struct GatherStream
{
    std::vector<Tick> arrivals;
    std::vector<std::vector<std::uint64_t>> gathers;

    GatherStream(std::uint64_t seed, std::uint64_t base,
                 std::uint64_t window, std::size_t count)
    {
        const std::uint64_t block = host::HostConfig{}.os_page_bytes;
        Rng rng(seed);
        Tick t = 0;
        std::uint64_t anchor = 0;
        for (std::size_t i = 0; i < count; ++i) {
            t = rng.nextBounded(8) == 0 ? t / 2
                                        : t + rng.nextBounded(us(60));
            if (i == 0 || rng.nextBounded(4) != 0)
                anchor = rng.nextBounded(window - sim::KiB(96));
            std::vector<std::uint64_t> g;
            std::size_t n = rng.nextBounded(20);
            for (std::size_t k = 0; k < n; ++k) {
                std::uint64_t off = anchor + rng.nextBounded(sim::KiB(64));
                switch (rng.nextBounded(6)) {
                case 0: // a repeated entry
                    if (!g.empty()) {
                        g.push_back(g[rng.nextBounded(g.size())]);
                        continue;
                    }
                    break;
                case 1: // straddles the next block boundary
                    off = (off / block + 1) * block - kEntryBytes / 2;
                    break;
                default:
                    break;
                }
                g.push_back(base + off);
            }
            arrivals.push_back(t);
            gathers.push_back(std::move(g));
        }
    }
};

/**
 * Run @p stream through @p store's blocking gather: every completion
 * tick, then submits() and each device's host reads and bytes, then
 * whatever @p extra appends.
 */
template <typename Store>
std::uint64_t
digestOf(Store &store, const GatherStream &stream,
         const std::function<void(std::vector<std::uint64_t> &)> &extra =
             {})
{
    std::vector<std::uint64_t> v;
    for (std::size_t i = 0; i < stream.gathers.size(); ++i)
        v.push_back(store.readGather(stream.arrivals[i], stream.gathers[i],
                                     kEntryBytes));
    v.push_back(store.submits());
    for (unsigned d = 0; d < store.numDevices(); ++d) {
        v.push_back(store.device(d).hostReads());
        v.push_back(store.device(d).bytesToHost());
    }
    if (extra)
        extra(v);
    // Every stream both hits the scratchpad and misses it.
    EXPECT_GT(store.scratchpadHitRate(), 0.0);
    EXPECT_LT(store.scratchpadHitRate(), 1.0);
    return fnv1a64(v.data(), v.size() * sizeof(v[0]));
}

std::unique_ptr<ssd::ShardedEdgeStore>
makeSharded(const host::HostConfig &config)
{
    ssd::ShardedSsdParams params;
    params.shards = 4;
    // Two blocks a stripe: a gather's blocks interleave across shards,
    // so a shard's device-local runs differ from global-block runs.
    params.stripe_bytes = 2 * config.os_page_bytes;
    return std::make_unique<ssd::ShardedEdgeStore>(config, testSsd(),
                                                   params);
}

std::unique_ptr<host::PartitionedEdgeStore>
makePartitioned(host::PartitionStrategy strategy)
{
    host::PartitionedParams params;
    params.nodes = 3;
    params.strategy = strategy;
    return std::make_unique<host::PartitionedEdgeStore>(
        testHost(), testSsd(), sim::NetConfig{}, params,
        smallWorkload().graph, graph::EdgeLayout{});
}

/** The byte range of the small workload's edge array. */
std::uint64_t
edgeArrayBytes()
{
    return smallWorkload().graph.numEdges() * graph::EdgeLayout{}.entry_bytes;
}

} // namespace

// The digests below were recorded when each of the three stores still
// had its own copy of the classify, dedup and run-cutting code.

TEST(BlockStorePinned, DirectIo)
{
    ssd::SsdDevice ssd(testSsd());
    host::DirectIoEdgeStore store(testHost(), ssd);
    GatherStream stream(21, 0, sim::MiB(8), 3000);
    std::uint64_t d = digestOf(store, stream);
    EXPECT_EQ(d, 0xb0256acbb7171840ull) << std::hex << d;
}

TEST(BlockStorePinned, MultiSsd)
{
    auto store = makeSharded(testHost());
    GatherStream stream(22, 0, sim::MiB(8), 3000);
    std::uint64_t d = digestOf(*store, stream, [&](auto &v) {
        v.push_back(store->degradedReads());
    });
    EXPECT_EQ(store->degradedReads(), 0u);
    EXPECT_EQ(d, 0x8cfeb679010ff79aull) << std::hex << d;
}

TEST(BlockStorePinned, MultiSsdUnderOutages)
{
    host::HostConfig config = testHost();
    config.fault.shard_outage_rate = 0.3;
    config.fault.outage_period = ms(2);
    auto store = makeSharded(config);
    GatherStream stream(23, 0, sim::MiB(8), 3000);
    std::uint64_t d = digestOf(*store, stream, [&](auto &v) {
        v.push_back(store->degradedReads());
    });
    EXPECT_GT(store->degradedReads(), 0u);
    EXPECT_EQ(d, 0xd3e39680a5fb0bceull) << std::hex << d;
}

TEST(BlockStorePinned, PartitionedHashCut)
{
    auto store = makePartitioned(host::PartitionStrategy::Hash);
    GatherStream stream(24, 0, edgeArrayBytes(), 3000);
    std::uint64_t d = digestOf(*store, stream, [&](auto &v) {
        v.insert(v.end(), {store->localBlocks(), store->remoteBlocks(),
                           store->netBytes()});
    });
    EXPECT_GT(store->localBlocks(), 0u);
    EXPECT_GT(store->remoteBlocks(), 0u);
    EXPECT_EQ(d, 0x6fd05963129bbf3aull) << std::hex << d;
}

TEST(BlockStorePinned, PartitionedDegreeCut)
{
    auto store = makePartitioned(host::PartitionStrategy::Degree);
    GatherStream stream(25, 0, edgeArrayBytes(), 3000);
    std::uint64_t d = digestOf(*store, stream, [&](auto &v) {
        v.insert(v.end(), {store->localBlocks(), store->remoteBlocks(),
                           store->netBytes()});
    });
    EXPECT_GT(store->localBlocks(), 0u);
    EXPECT_GT(store->remoteBlocks(), 0u);
    EXPECT_EQ(d, 0x40b00f6d2e3f6abcull) << std::hex << d;
}

namespace
{

/**
 * Serve four byte ranges as one-entry gathers on @p store from base
 * address @p base: a cold straddle whose two blocks both miss, a
 * multi-block range, a straddle with one block resident, and a full
 * hit. Three of them submit. @return each completion tick
 */
template <typename Store>
std::vector<Tick>
oneEntryGatherTicks(Store &store, std::uint64_t base)
{
    const std::uint64_t bs = host::HostConfig{}.os_page_bytes;
    struct Range
    {
        std::uint64_t addr;
        std::uint64_t bytes;
    };
    const std::vector<Range> ranges = {
        {bs - 4, 8},                   // blocks 0 and 1, both cold
        {5 * bs + 100, 2 * bs + 300},  // blocks 5 to 7, cold
        {2 * bs - 4, 8},               // block 1 resident, block 2 cold
        {bs - 4, 8},                   // both resident
    };
    std::vector<Tick> ticks;
    Tick t = 1000;
    for (const Range &range : ranges) {
        const auto bytes = static_cast<unsigned>(range.bytes);
        t = store.readGather(t, {base + range.addr}, bytes);
        ticks.push_back(t);
    }
    EXPECT_EQ(store.submits(), 3u);
    return ticks;
}

} // namespace

// Recorded when a byte range had its own read call, which returned
// these same ticks.
TEST(BlockStorePinned, OneEntryGatherRanges)
{
    {
        ssd::SsdDevice ssd(testSsd());
        host::DirectIoEdgeStore store(testHost(), ssd);
        EXPECT_EQ(oneEntryGatherTicks(store, 0),
                  (std::vector<Tick>{93557, 187393, 206715, 206895}));
    }
    {
        auto store = makeSharded(testHost());
        EXPECT_EQ(oneEntryGatherTicks(*store, 0),
                  (std::vector<Tick>{93557, 186114, 277391, 277571}));
    }
    // A block-aligned base mid-array, where both cuts have moved off
    // node 0.
    const std::uint64_t bs = host::HostConfig{}.os_page_bytes;
    const std::uint64_t mid = edgeArrayBytes() / 2 / bs * bs;
    auto hash = makePartitioned(host::PartitionStrategy::Hash);
    EXPECT_EQ(oneEntryGatherTicks(*hash, mid),
              (std::vector<Tick>{97587, 196765, 221397, 221577}));
    auto degree = makePartitioned(host::PartitionStrategy::Degree);
    EXPECT_EQ(oneEntryGatherTicks(*degree, mid),
              (std::vector<Tick>{100178, 201946, 226578, 226758}));
}
