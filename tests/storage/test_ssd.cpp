/** @file Tests for FTL, page buffer, embedded cores, and SsdDevice. */

#include <gtest/gtest.h>

#include <set>

#include "sim/set_assoc.hh"
#include "ssd/ssd_device.hh"

using namespace smartsage::ssd;
namespace sim = smartsage::sim;

namespace
{

SsdConfig
smallConfig()
{
    SsdConfig c;
    c.flash.channels = 2;
    c.flash.dies_per_channel = 2;
    c.page_buffer_bytes = sim::MiB(1);
    return c;
}

} // namespace

TEST(Ftl, StripingCoversAllDies)
{
    SsdConfig c = smallConfig();
    Ftl ftl(c);
    std::set<std::pair<unsigned, unsigned>> seen;
    for (std::uint64_t lpn = 0; lpn < 4; ++lpn) {
        auto addr = ftl.translate(lpn);
        seen.insert({addr.channel, addr.die});
    }
    EXPECT_EQ(seen.size(), 4u); // 2 channels x 2 dies all hit
}

TEST(Ftl, TranslationIsInjective)
{
    SsdConfig c = smallConfig();
    Ftl ftl(c);
    std::set<std::tuple<unsigned, unsigned, std::uint64_t>> seen;
    for (std::uint64_t lpn = 0; lpn < 1000; ++lpn) {
        auto a = ftl.translate(lpn);
        EXPECT_TRUE(seen.insert({a.channel, a.die, a.page}).second);
    }
}

TEST(Ftl, PageOfMapsFirstAndLastByteOfEachPage)
{
    SsdConfig c = smallConfig();
    Ftl ftl(c);
    std::uint64_t pb = c.flash.page_bytes;
    for (std::uint64_t page = 0; page < 3; ++page) {
        EXPECT_EQ(ftl.pageOf(page * pb), page);
        EXPECT_EQ(ftl.pageOf((page + 1) * pb - 1), page);
    }
}

TEST(PageBuffer, HitAfterInsert)
{
    sim::SetAssocLru buf(sim::MiB(1), sim::KiB(16), 4);
    EXPECT_FALSE(buf.access(7));
    EXPECT_TRUE(buf.access(7));
    EXPECT_DOUBLE_EQ(buf.hitRate(), 0.5);
}

TEST(PageBuffer, EvictsUnderPressure)
{
    sim::SetAssocLru buf(sim::KiB(64), sim::KiB(16), 4); // 4 pages total
    for (std::uint64_t p = 0; p < 64; ++p)
        buf.access(p);
    std::uint64_t hits = 0;
    for (std::uint64_t p = 0; p < 64; ++p) {
        if (buf.lookup(p))
            ++hits;
    }
    EXPECT_LE(hits, 4u);
}

TEST(EmbeddedCores, DutyCycleInflatesWork)
{
    SsdConfig c = smallConfig();
    c.firmware_duty = 0.5;
    EmbeddedCores cores(c);
    EXPECT_DOUBLE_EQ(cores.inflation(), 2.0);
    auto iv = cores.execute(0, sim::us(10));
    EXPECT_EQ(iv.finish, sim::us(20));
}

TEST(EmbeddedCores, DedicatedIspHasNoInflation)
{
    SsdConfig c = smallConfig();
    EmbeddedCores cores(c, true);
    EXPECT_DOUBLE_EQ(cores.inflation(), 1.0);
}

TEST(EmbeddedCores, PoolParallelism)
{
    SsdConfig c = smallConfig();
    c.embedded_cores = 2;
    c.firmware_duty = 0.0;
    EmbeddedCores cores(c);
    auto a = cores.execute(0, sim::us(10));
    auto b = cores.execute(0, sim::us(10));
    auto third = cores.execute(0, sim::us(10));
    EXPECT_EQ(a.start, 0u);
    EXPECT_EQ(b.start, 0u);
    EXPECT_EQ(third.start, sim::us(10)); // queues behind one of them
}

TEST(SsdDevice, FetchPageHitIsCheap)
{
    SsdDevice ssd(smallConfig());
    sim::Tick miss = ssd.fetchPage(0, 42);
    sim::Tick hit = ssd.fetchPage(miss, 42) - miss;
    EXPECT_EQ(hit, smallConfig().page_buffer_hit);
    EXPECT_GT(miss, hit * 10);
}

TEST(SsdDevice, ReadBlocksRoundsToBlockSize)
{
    SsdDevice ssd(smallConfig());
    ssd.readBlocks(0, 10, 1); // 1 byte -> one 4 KiB block
    EXPECT_EQ(ssd.bytesToHost(), smallConfig().block_bytes);
    ssd.readBlocks(0, smallConfig().block_bytes - 1, 2); // straddles
    EXPECT_EQ(ssd.bytesToHost(), 3 * smallConfig().block_bytes);
}

TEST(SsdDevice, LargerReadsTakeLonger)
{
    SsdDevice a(smallConfig()), b(smallConfig());
    sim::Tick small = a.readBlocks(0, 0, sim::KiB(4));
    sim::Tick large = b.readBlocks(0, 0, sim::KiB(256));
    EXPECT_GT(large, small);
}

TEST(SsdDevice, CountsHostReads)
{
    SsdDevice ssd(smallConfig());
    ssd.readBlocks(0, 0, 100);
    ssd.readBlocks(0, 1 << 20, 100);
    EXPECT_EQ(ssd.hostReads(), 2u);
}

TEST(SsdDevice, ResetRestoresColdTimeline)
{
    SsdDevice ssd(smallConfig());
    sim::Tick first = ssd.readBlocks(0, 0, 4096);
    ssd.reset();
    sim::Tick again = ssd.readBlocks(0, 0, 4096);
    EXPECT_EQ(first, again);
    EXPECT_EQ(ssd.hostReads(), 1u);
}

TEST(SsdDevice, DmaCostScalesWithBytes)
{
    SsdDevice ssd(smallConfig());
    sim::Tick small = ssd.dmaToHost(0, 4096);
    ssd.reset();
    sim::Tick large = ssd.dmaToHost(0, 1 << 20);
    EXPECT_GT(large, small);
}

TEST(SsdDeviceDeath, ZeroLengthReadPanics)
{
    SsdDevice ssd(smallConfig());
    EXPECT_DEATH(ssd.readBlocks(0, 0, 0), "zero-length");
}
