/** @file Tests for the host-side LLC model and the four I/O paths. */

#include <gtest/gtest.h>

#include "host/io_path.hh"
#include "host/llc.hh"
#include "host/tiered_store.hh"
#include "sim/random.hh"

using namespace smartsage::host;
namespace sim = smartsage::sim;

namespace
{

HostConfig
testHost()
{
    HostConfig c;
    c.llc_bytes = sim::KiB(64); // small so misses are easy to force
    c.page_cache_bytes = sim::KiB(256);
    c.scratchpad_bytes = sim::KiB(256);
    return c;
}

smartsage::ssd::SsdConfig
testSsd()
{
    smartsage::ssd::SsdConfig c;
    c.page_buffer_bytes = sim::MiB(1);
    return c;
}

} // namespace

TEST(Llc, SequentialStreamMostlyHits)
{
    LlcModel llc(testHost());
    for (std::uint64_t a = 0; a < sim::KiB(16); a += 8)
        llc.access(a, 8);
    // 8 B strides in 64 B lines: 1 miss per 8 accesses.
    EXPECT_NEAR(llc.missRate(), 0.125, 0.01);
}

TEST(Llc, RandomStreamMostlyMisses)
{
    LlcModel llc(testHost());
    sim::Rng rng(1);
    for (int i = 0; i < 10000; ++i)
        llc.access(rng.next() % (1ull << 30), 8);
    EXPECT_GT(llc.missRate(), 0.9);
}

TEST(Llc, MissCostsDramLatency)
{
    HostConfig c = testHost();
    LlcModel llc(c);
    EXPECT_EQ(llc.access(0, 8), c.dram_latency);
    EXPECT_EQ(llc.access(0, 8), c.llc_hit);
}

TEST(Llc, DramBytesCountLineFills)
{
    HostConfig c = testHost();
    LlcModel llc(c);
    llc.access(0, 8);
    llc.access(0, 8); // hit
    EXPECT_EQ(llc.dramBytes(), c.llc_line);
}

TEST(Llc, BwUtilizationScalesWithWorkers)
{
    LlcModel llc(testHost());
    sim::Rng rng(2);
    for (int i = 0; i < 5000; ++i)
        llc.access(rng.next() % (1ull << 30), 8);
    double one = llc.dramBwUtilization(1);
    double twelve = llc.dramBwUtilization(12);
    EXPECT_GT(one, 0.0);
    EXPECT_LE(twelve, 1.0);
    EXPECT_GT(twelve, one);
}

TEST(DramStore, ReadAdvancesByAccessLatency)
{
    HostConfig c = testHost();
    DramEdgeStore store(c);
    sim::Tick t = store.readGather(100, {0}, 8);
    EXPECT_EQ(t, 100 + c.dram_latency); // cold miss
    t = store.readGather(t, {0}, 8);
    EXPECT_EQ(t, 100 + c.dram_latency + c.llc_hit);
}

TEST(MmapStore, FaultThenResidentHit)
{
    HostConfig c = testHost();
    smartsage::ssd::SsdDevice ssd(testSsd());
    MmapEdgeStore store(c, ssd);

    sim::Tick miss_done = store.readGather(0, {0}, 8);
    EXPECT_GT(miss_done, c.page_fault_cost); // went to the device
    EXPECT_EQ(store.pageFaults(), 1u);

    sim::Tick hit_done = store.readGather(miss_done, {4}, 8) - miss_done;
    EXPECT_EQ(hit_done, c.page_cache_hit);
    EXPECT_EQ(store.pageFaults(), 1u);
}

TEST(MmapStore, CrossPageReadFaultsTwice)
{
    HostConfig c = testHost();
    smartsage::ssd::SsdDevice ssd(testSsd());
    MmapEdgeStore store(c, ssd);
    store.readGather(0, {c.os_page_bytes - 4}, 8); // straddles two pages
    EXPECT_EQ(store.pageFaults(), 2u);
}

TEST(DirectIoStore, GatherCoalescesIntoOneSubmit)
{
    HostConfig c = testHost();
    smartsage::ssd::SsdDevice ssd(testSsd());
    DirectIoEdgeStore store(c, ssd);

    // Entries scattered over 4 blocks of one node chunk.
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 4; ++i)
        addrs.push_back(i * c.os_page_bytes + 16);
    store.readGather(0, addrs, 8);
    EXPECT_EQ(store.submits(), 1u);
}

TEST(DirectIoStore, GatherBeatsMmapOnMultiBlockNodes)
{
    HostConfig c = testHost();
    smartsage::ssd::SsdDevice ssd_m(testSsd()), ssd_d(testSsd());
    MmapEdgeStore mm(c, ssd_m);
    DirectIoEdgeStore dio(c, ssd_d);

    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 8; ++i)
        addrs.push_back(i * c.os_page_bytes);

    sim::Tick t_mm = mm.readGather(0, addrs, 8);
    sim::Tick t_dio = dio.readGather(0, addrs, 8);
    EXPECT_LT(t_dio, t_mm);
}

TEST(DirectIoStore, ScratchpadHitsAreCheap)
{
    HostConfig c = testHost();
    smartsage::ssd::SsdDevice ssd(testSsd());
    DirectIoEdgeStore store(c, ssd);
    std::vector<std::uint64_t> addrs = {64};
    sim::Tick warm = store.readGather(0, addrs, 8);
    sim::Tick hit = store.readGather(warm, addrs, 8);
    EXPECT_EQ(hit - warm, c.scratchpad_hit);
}

TEST(PmemStore, PerChunkLatency)
{
    HostConfig c = testHost();
    PmemEdgeStore store(c);
    // Within one 256 B chunk.
    EXPECT_EQ(store.readGather(0, {0}, 8), c.pmem_latency);
    // Straddling two chunks.
    EXPECT_EQ(store.readGather(0, {c.pmem_access_bytes - 4}, 8),
              2 * c.pmem_latency);
}

TEST(PmemStore, NoCachingEffect)
{
    HostConfig c = testHost();
    PmemEdgeStore store(c);
    sim::Tick first = store.readGather(0, {0}, 8);
    sim::Tick second = store.readGather(first, {0}, 8) - first;
    EXPECT_EQ(second, c.pmem_latency); // same cost every time
}

TEST(Stores, PmemGatherMatchesSerialEntries)
{
    HostConfig c = testHost();
    PmemEdgeStore a(c), b(c);
    std::vector<std::uint64_t> addrs = {0, 1000, 2000};
    sim::Tick gathered = a.readGather(0, addrs, 8);
    sim::Tick serial = 0;
    for (auto addr : addrs)
        serial = b.readGather(serial, {addr}, 8);
    EXPECT_EQ(gathered, serial);
}

TEST(DirectIoStore, GatherWithEmptyAddressListIsFree)
{
    HostConfig c = testHost();
    smartsage::ssd::SsdDevice ssd(testSsd());
    DirectIoEdgeStore store(c, ssd);
    std::vector<std::uint64_t> none;
    EXPECT_EQ(store.readGather(1234, none, 8), 1234u);
    EXPECT_EQ(store.submits(), 0u);
    EXPECT_EQ(ssd.hostReads(), 0u);
    // The empty gather never occupied a host-I/O queue slot.
    EXPECT_EQ(store.ioChannel().submitted(), 0u);
}

TEST(DirectIoStore, ZeroLengthGatherEntryIsFatal)
{
    // Unchecked, an empty entry at address 0 spans blocks 0 through
    // lineOf(UINT64_MAX), and one at a block boundary spans none.
    HostConfig c = testHost();
    smartsage::ssd::SsdDevice ssd(testSsd());
    DirectIoEdgeStore dio(c, ssd);
    EXPECT_DEATH(dio.readGather(0, {0}, 0),
                 "zero-length SmartSAGE \\(SW\\) gather entry");
    EXPECT_DEATH(dio.readGather(0, {c.os_page_bytes}, 0),
                 "zero-length SmartSAGE \\(SW\\) gather entry");
    TieredEdgeStore tiered(c, ssd, TieredStoreParams{});
    EXPECT_DEATH(tiered.readGather(0, {0}, 0),
                 "zero-length tiered gather entry");
    EXPECT_DEATH(tiered.readGather(0, {c.os_page_bytes}, 0),
                 "zero-length tiered gather entry");
}

TEST(DirectIoStore, GatherDeduplicatesRepeatedAddresses)
{
    HostConfig c = testHost();
    smartsage::ssd::SsdDevice ssd_dup(testSsd()), ssd_one(testSsd());
    DirectIoEdgeStore dup(c, ssd_dup);
    DirectIoEdgeStore one(c, ssd_one);

    // Eight copies of the same entry vs a single copy: one block read
    // either way, and the same completion tick.
    std::vector<std::uint64_t> repeated(8, 4096 + 16);
    std::vector<std::uint64_t> single = {4096 + 16};
    sim::Tick t_dup = dup.readGather(0, repeated, 8);
    sim::Tick t_one = one.readGather(0, single, 8);
    EXPECT_EQ(t_dup, t_one);
    EXPECT_EQ(dup.submits(), 1u);
    EXPECT_EQ(ssd_dup.hostReads(), ssd_one.hostReads());
    EXPECT_EQ(ssd_dup.bytesToHost(), c.os_page_bytes);
}

TEST(DirectIoStore, GatherEntryStraddlingABlockBoundaryFetchesBoth)
{
    HostConfig c = testHost();
    smartsage::ssd::SsdDevice ssd(testSsd());
    DirectIoEdgeStore store(c, ssd);

    // One 8 B entry whose bytes span the block boundary: both blocks
    // are missing, contiguous, and ride one coalesced command.
    std::vector<std::uint64_t> addrs = {c.os_page_bytes - 4};
    store.readGather(0, addrs, 8);
    EXPECT_EQ(store.submits(), 1u);
    EXPECT_EQ(ssd.hostReads(), 1u); // contiguous run, one command
    EXPECT_EQ(ssd.bytesToHost(), 2 * c.os_page_bytes);
}

TEST(DirectIoStore, StraddlingEntryCostsNoMoreThanTwoResidentBlocks)
{
    HostConfig c = testHost();
    smartsage::ssd::SsdDevice ssd(testSsd());
    DirectIoEdgeStore store(c, ssd);

    std::vector<std::uint64_t> straddle = {c.os_page_bytes - 4};
    sim::Tick cold = store.readGather(0, straddle, 8);
    // Warm repeat: both blocks now sit in the scratchpad.
    sim::Tick warm = store.readGather(cold, straddle, 8) - cold;
    EXPECT_EQ(warm, c.scratchpad_hit);
    EXPECT_EQ(store.submits(), 1u);
}

TEST(DirectIoStore, GatherMixingDuplicatesHitsAndStraddles)
{
    HostConfig c = testHost();
    smartsage::ssd::SsdDevice ssd(testSsd());
    DirectIoEdgeStore store(c, ssd);

    // Warm block 0 so the mixed gather sees a hit, a duplicate pair,
    // and a boundary straddle at once.
    std::vector<std::uint64_t> warmup = {0};
    sim::Tick t = store.readGather(0, warmup, 8);

    std::vector<std::uint64_t> mixed = {
        16,                     // scratchpad hit in block 0
        2 * c.os_page_bytes,    // miss
        2 * c.os_page_bytes,    // duplicate of the miss
        3 * c.os_page_bytes - 4 // straddles blocks 2 and 3
    };
    sim::Tick done = store.readGather(t, mixed, 8);
    EXPECT_GT(done, t);
    // Blocks 2 and 3 are one contiguous missing run: one command.
    EXPECT_EQ(store.submits(), 2u);
    EXPECT_EQ(ssd.hostReads(), 2u);
    EXPECT_EQ(ssd.bytesToHost(), 3 * c.os_page_bytes);
}

TEST(Stores, AsyncSubmissionMatchesBlockingAdapter)
{
    // For every store flavor: a lone async gather submitted at tick T
    // completes exactly when the blocking adapter says it does.
    HostConfig c = testHost();
    smartsage::ssd::SsdDevice ssd_a(testSsd()), ssd_b(testSsd());
    DirectIoEdgeStore blocking(c, ssd_a);
    DirectIoEdgeStore async(c, ssd_b);

    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 6; ++i)
        addrs.push_back(i * c.os_page_bytes + 8);

    sim::Tick t_blocking = blocking.readGather(777, addrs, 8);

    smartsage::sim::EventQueue eq;
    sim::Tick t_async = 0;
    eq.schedule(777, [&] {
        async.submitGather(eq, addrs, 8,
                           [&](sim::Tick f, sim::IoStatus) { t_async = f; });
    });
    eq.run();
    EXPECT_EQ(t_async, t_blocking);
}

TEST(Stores, ConcurrentGathersQueueAtTheHostChannel)
{
    // Sixteen same-tick cold gathers through a depth-2 host channel:
    // every gather completes, the channel bound is respected, and
    // later arrivals record queueing delay — the contention signal the
    // serving harness measures.
    HostConfig c = testHost();
    c.io_queue_depth = 2;
    smartsage::ssd::SsdDevice ssd(testSsd());
    DirectIoEdgeStore store(c, ssd);

    std::vector<std::vector<std::uint64_t>> gathers;
    for (int g = 0; g < 16; ++g)
        gathers.push_back({static_cast<std::uint64_t>(g) *
                           sim::KiB(256)});

    smartsage::sim::EventQueue eq;
    int completions = 0;
    eq.schedule(0, [&] {
        for (const auto &addrs : gathers)
            store.submitGather(eq, addrs, 8,
                               [&](sim::Tick, sim::IoStatus) { ++completions; });
    });
    eq.run();
    EXPECT_EQ(completions, 16);
    EXPECT_EQ(store.ioChannel().completed(), 16u);
    EXPECT_GT(store.ioChannel().totalQueueWait(), 0u);
    EXPECT_EQ(store.ioChannel().peakOutstanding(), 16u);
}

TEST(Stores, LatencyOrderingAcrossTiers)
{
    // DRAM < PMEM < direct I/O < mmap for one cold 8 B read.
    HostConfig c = testHost();
    smartsage::ssd::SsdDevice ssd_m(testSsd()), ssd_d(testSsd());
    DramEdgeStore dram(c);
    PmemEdgeStore pmem(c);
    MmapEdgeStore mm(c, ssd_m);
    DirectIoEdgeStore dio(c, ssd_d);

    sim::Tick t_dram = dram.readGather(0, {0}, 8);
    sim::Tick t_pmem = pmem.readGather(0, {0}, 8);
    sim::Tick t_mm = mm.readGather(0, {0}, 8);
    std::vector<std::uint64_t> one = {0};
    sim::Tick t_dio = dio.readGather(0, one, 8);

    EXPECT_LT(t_dram, t_pmem);
    EXPECT_LT(t_pmem, t_dio);
    EXPECT_LT(t_dio, t_mm);
}
